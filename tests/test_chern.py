import warnings

import numpy as np
import pytest

from ncindex import bumps, chern
from ncindex.chern import (ProjectionPath, bott_integral, bott_projector,
                           chern_even, chern_homotopy_defect, chern_odd,
                           closedness_defect)
from ncindex.covering import CoverData, build_mf_projection
from ncindex.cyclic import closed_cocycle_basis, pair_cochain_form
from ncindex.errors import NotAProjection, NotUnitary
from ncindex.group_algebra import GAMatrix, GroupSpec
from ncindex.nc_forms import (ChartGrid2D, CircleGrid, JetFunction,
                              MixedForm, ScalarForm)
from ncindex.testing import random_projection_form, random_unitary_form

GRID = CircleGrid(12)
Z3 = GroupSpec.cyclic(3)


def constant_projection(rank, size, spec=Z3, grid=GRID):
    mat = np.zeros((size, size), dtype=complex)
    mat[:rank, :rank] = np.eye(rank)
    P = MixedForm.zero(grid, spec, size, 4)
    P.add_term(ScalarForm.one(grid), (GAMatrix(spec, size,
                                               {spec.identity(): mat}),))
    return P


def phase_unitary(grid, m, spec=None):
    spec = spec or GroupSpec.trivial()
    u = MixedForm.zero(grid, spec, 1, 4)
    u.add_term(ScalarForm.function(JetFunction.trig(grid, {-m: 1.0})),
               (GAMatrix.identity(spec, 1),))
    return u


def test_constant_projection_character():
    ch = chern_even(constant_projection(2, 3), 2)
    assert np.max(np.abs(ch.scalar_part().component(()) - 2.0)) <= 1e-13
    assert ch.components() == [(0, 0)]


def test_chern_even_rejects_non_projection():
    bad = constant_projection(2, 3)
    bad = bad.scale(0.7)
    with pytest.raises(NotAProjection):
        chern_even(bad, 1)


def test_bott_normalization():
    assert abs(bott_integral(64) - 1.0) <= 2e-3
    assert abs(bott_integral(128) - 1.0) <= 2e-4


@pytest.mark.parametrize("family", ["mollifier", "raised-cosine",
                                    "poly-spline"])
@pytest.mark.parametrize("n, tol", [(63, 2e-3), (65, 2e-3), (127, 2e-4)])
def test_bott_normalization_on_odd_grids(family, n, tol):
    # an odd chart grid has its centre on a grid point, where the field
    # takes its limits n = (0, 0, 1) with zero derivatives
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        jets = chern._sphere_field(ChartGrid2D(n), family=family)
        val = bott_integral(n, family=family)
    c = n // 2
    assert [jets[k].stack[:, c, c].tolist() for k in ("n1", "n2", "n3")] \
        == [[0j, 0j, 0j], [0j, 0j, 0j], [1 + 0j, 0j, 0j]]
    assert abs(val - 1.0) <= tol


def test_bott_projector_is_projection():
    grid = ChartGrid2D(32)
    P = bott_projector(grid)
    assert (P @ P - P).max_abs() <= 1e-12
    assert (P.star() - P).max_abs() <= 1e-12


def _bott_projector_by_words(grid):
    """(1 + n.sigma)/2 as four `add_term` calls, one word per matrix."""
    jets = chern._sphere_field(grid)
    spec = GroupSpec.trivial()
    P = MixedForm.zero(grid, spec, 2, kalg=2)
    P.add_term(ScalarForm.function(JetFunction.constant(grid, 0.5, order=1)),
               (GAMatrix(spec, 2, {spec.identity(): np.eye(2)}),))
    for jet, sigma in ((jets["n1"], [[0, 1], [1, 0]]),
                       (jets["n2"].scale(-1.0), [[0, -1j], [1j, 0]]),
                       (jets["n3"], [[1, 0], [0, -1]])):
        P.add_term(ScalarForm.function(jet.scale(0.5)),
                   (GAMatrix(spec, 2, {spec.identity(): np.array(sigma)}),))
    return P


@pytest.mark.parametrize("n", [7, 32])
def test_bott_projector_entries_are_the_word_sum(n):
    grid = ChartGrid2D(n)
    (got,), (want,) = (list(P.entries()) for P in (
        bott_projector(grid), _bott_projector_by_words(grid)))
    assert got[:2] == want[:2]
    assert got[2].dtype == want[2].dtype and got[2].shape == want[2].shape
    assert np.array_equal(got[2], want[2])


def _sphere_field_by_formulas(grid, r_max=0.42, family="mollifier"):
    """The sphere field with one fresh array per operation."""
    u = grid.xs - 0.5
    v = grid.ys - 0.5
    r = np.sqrt(u * u + v * v)
    s, s1 = bumps.step(r / r_max, family)
    sig = np.pi * s
    sig_r = np.pi * s1 / r_max
    cos_s = np.cos(sig)
    sin_s = np.sin(sig)
    r = np.where(r > 0, r, 1.0)
    w = sin_s / r
    w_r = cos_s * sig_r / r - sin_s / r ** 2
    ux, uy = u / r, v / r
    comps = {
        "n1": (u * w, w + u * w_r * ux, u * w_r * uy),
        "n2": (v * w, v * w_r * ux, w + v * w_r * uy),
        "n3": (cos_s, -sin_s * sig_r * ux, -sin_s * sig_r * uy),
    }
    return {name: JetFunction.from_arrays(
        grid, {(0, 0): val, (1, 0): dx, (0, 1): dy})
        for name, (val, dx, dy) in comps.items()}


def _bott_entry_by_einsum(grid, family):
    """(1 + n.sigma)/2 as one complex einsum of PAULI with the jets."""
    field = _sphere_field_by_formulas(grid, family=family)
    jets = np.stack([JetFunction.constant(grid, 1.0, order=1).stack,
                     field["n1"].stack, -field["n2"].stack,
                     field["n3"].stack])
    return np.einsum("kij,kJ...->ijJ...", chern.PAULI / 2, jets)


@pytest.mark.parametrize("family", sorted(bumps.FAMILIES))
@pytest.mark.parametrize("n", [32, 64, 128])
def test_bott_projector_is_the_einsum_construction_bit_for_bit(n, family):
    grid = ChartGrid2D(n)
    field = chern._sphere_field(grid, family=family)
    want = _sphere_field_by_formulas(grid, family=family)
    for name in ("n1", "n2", "n3"):
        assert field[name].order == want[name].order == 1
        assert field[name].stack.tobytes() == want[name].stack.tobytes()
    ((tup, axes, got),) = bott_projector(grid, family=family).entries()
    entry = _bott_entry_by_einsum(grid, family)
    assert (tup, axes) == (((),), ())
    assert got.dtype == entry.dtype and got.shape == entry.shape
    assert got.tobytes() == entry.tobytes()


def _traced_peak(fn):
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bott_projector_at_128_is_lean():
    # the complex projector (3 MB) and the three field jets (1.2 MB),
    # with no complex einsum operands and no per-operation grid arrays
    # (5.75 MB with them)
    grid = ChartGrid2D(128)
    assert _traced_peak(lambda: bott_projector(grid)) < 4.8 * 2 ** 20
    # the projector, its differential as views of it and the two
    # curvature products, 6.0 MB; at 8.76 MB, with the differential
    # copied, glibc trimmed its heap after each call and the next call
    # refaulted about 2300 pages
    assert _traced_peak(lambda: bott_integral(grid)) < 6.5 * 2 ** 20


def test_chern_odd_identity_vanishes():
    one = MixedForm.one(GRID, Z3, 2, 4)
    assert chern_odd(one, 2).max_abs() <= 1e-13


def test_chern_odd_rejects_non_unitary(monkeypatch):
    bad = MixedForm.one(GRID, Z3, 2, 4).scale(1.2)
    message = f"unitarity residual {chern.unitary_residual(bad):.3g} > 1e-08"
    real = chern.unitary_residual
    calls = []

    def counted(u):
        calls.append(u)
        return real(u)

    monkeypatch.setattr(chern, "unitary_residual", counted)
    with pytest.raises(NotUnitary) as excinfo:
        chern_odd(bad, 1)
    # the residual is computed once, for the test and for the message
    assert len(calls) == 1
    assert str(excinfo.value) == message


@pytest.mark.parametrize("m", [-2, -1, 1, 3])
def test_chern_odd_winding(m):
    grid = CircleGrid(64)
    u = phase_unitary(grid, m)
    val = chern_odd(u, 1).scalar_part().integrate()
    assert abs(val - m) <= 1e-10


def test_chern_odd_first_coefficient_matches_derivation_trace():
    # k = 1 coefficient is -1/(2 pi i): the loop x -> e^{-2 pi i x}
    # integrates to +1, the same number the dynamical-system trace
    # formula produces for the corresponding symbol
    grid = CircleGrid(64)
    val = chern_odd(phase_unitary(grid, 1), 1).scalar_part().integrate()
    from ncindex.toeplitz import CircleSystem, dynsys_formula

    sys_c = CircleSystem(64)
    assert abs(val - dynsys_formula(sys_c, sys_c.exponential(1))) <= 1e-10


def test_characters_are_closed_observably():
    rng = np.random.default_rng(0)
    cocycles = []
    for q in (2, 3):
        cocycles.extend(closed_cocycle_basis(Z3, q))
    P = random_projection_form(GRID, Z3, 2, rng, kalg=4)
    assert closedness_defect(chern_even(P, 1), cocycles) <= 1e-9
    u = random_unitary_form(GRID, Z3, 2, rng, kalg=4)
    assert closedness_defect(chern_odd(u, 2), cocycles) <= 1e-9


def _direct_sum(blocks, kalg):
    """Block-diagonal 4x4 form from 2x2 algebra-degree-0 forms, one
    add_term per matrix entry of each (group tuple, axes) entry."""
    direct = MixedForm.zero(GRID, Z3, 4, kalg)
    for src, off in blocks:
        for (g,), axes, x in src.entries():
            for i in range(2):
                for j in range(2):
                    jet = JetFunction.from_stack(GRID, x[i, j])
                    direct.add_term(
                        ScalarForm(GRID, {axes: jet}),
                        (GAMatrix.single(Z3, 4, off + i, off + j, g),))
    return direct


def test_character_additive_on_direct_sums():
    rng = np.random.default_rng(1)
    Pa = random_projection_form(GRID, Z3, 2, rng, kalg=4)
    Pb = random_projection_form(GRID, Z3, 2, rng, kalg=4)
    direct = _direct_sum(((Pa, 0), (Pb, 2)), 4)
    lhs = chern_even(direct, 1)
    rhs = chern_even(Pa, 1) + chern_even(Pb, 1)
    assert (lhs - rhs).max_abs() <= 1e-10


def test_odd_character_additive_on_direct_sums():
    rng = np.random.default_rng(6)
    ua = random_unitary_form(GRID, Z3, 2, rng, kalg=3)
    ub = random_unitary_form(GRID, Z3, 2, rng, kalg=3)
    direct = _direct_sum(((ua, 0), (ub, 2)), 3)
    lhs = chern_odd(direct, 1)
    rhs = chern_odd(ua, 1) + chern_odd(ub, 1)
    assert (lhs - rhs).max_abs() <= 1e-10


def test_homotopy_defect_constant_path():
    rng = np.random.default_rng(2)
    P = random_projection_form(GRID, Z3, 2, rng, kalg=4)
    phi = closed_cocycle_basis(Z3, 2)[0]
    assert chern_homotopy_defect(ProjectionPath([P, P]), phi) == 0.0


def test_homotopy_defect_rotation_path():
    rng = np.random.default_rng(3)
    P = random_projection_form(GRID, Z3, 2, rng, kalg=4)
    u = random_unitary_form(GRID, Z3, 2, rng, kalg=4)
    path = ProjectionPath([P, u @ P @ u.star()])
    phi = closed_cocycle_basis(Z3, 2)[0]
    assert chern_homotopy_defect(path, phi) <= 1e-7


def test_projection_path_precondition():
    rng = np.random.default_rng(4)
    P = random_projection_form(GRID, Z3, 2, rng, kalg=4)
    with pytest.raises(NotAProjection):
        ProjectionPath([P, P.scale(0.9)])


def test_conjugation_invariant_pairings():
    rng = np.random.default_rng(5)
    P = random_projection_form(GRID, Z3, 2, rng, kalg=4)
    u = random_unitary_form(GRID, Z3, 2, rng, kalg=4)
    chP = chern_even(P, 1)
    chQ = chern_even(u @ P @ u.star(), 1)
    for phi in closed_cocycle_basis(Z3, 2):
        a = pair_cochain_form(phi, chP).integrate()
        b = pair_cochain_form(phi, chQ).integrate()
        assert abs(a - b) <= 1e-8


def _count_products(monkeypatch):
    """The list that grows by one at every full graded product."""
    calls = []
    matmul = MixedForm.__matmul__

    def counted(self, other):
        calls.append(other)
        return matmul(self, other)

    monkeypatch.setattr(MixedForm, "__matmul__", counted)
    return calls


@pytest.mark.parametrize("k_max", [1, 2, 3])
def test_characters_form_only_the_trace_of_the_last_product(monkeypatch,
                                                           k_max):
    rng = np.random.default_rng(6)
    P = random_projection_form(GRID, Z3, 2, rng, kalg=2 * k_max)
    mf = build_mf_projection(CoverData.standard(CircleGrid(32)),
                             kalg=2 * k_max)
    u = random_unitary_form(GRID, Z3, 2, rng, kalg=2 * k_max - 1)
    calls = _count_products(monkeypatch)
    # the residual P @ P, dP @ dP and the powers below the last one
    chern_even(P, k_max)
    assert len(calls) == k_max + 1
    calls.clear()
    chern_even(mf, k_max)
    assert len(calls) == k_max
    calls.clear()
    # the residual's two, u* du and (du*)(du) below the last one
    chern_odd(u, k_max)
    assert len(calls) == (2 if k_max == 1 else k_max + 2)


def test_z7_bridge_character_is_lean():
    import tracemalloc

    from ncindex.testing import random_projection_matrix

    z7 = GroupSpec.cyclic(7)
    grid = CircleGrid(4)
    p = random_projection_matrix(z7, 2, np.random.default_rng(7))
    P = MixedForm.zero(grid, z7, 2, kalg=6)
    P.add_term(ScalarForm.one(grid), (p,))
    tracemalloc.start()
    try:
        ch = chern_even(P, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ch.components() == [(0, 0), (0, 2), (0, 4)]
    assert peak < 20 * 2 ** 20


# ---------------------------------------------------------------------
# residuals at jet order 0: max_abs reads values only, and the value jet
# of a product, sum or adjoint reads only the value jets of its inputs
# ---------------------------------------------------------------------


def _full_order_defects(P):
    return (P @ P - P).max_abs(), (P.star() - P).max_abs()


def _projections():
    for n_arcs in (3, 4, 5):
        cover = CoverData.standard(CircleGrid(256), n_arcs=n_arcs)
        yield f"cover-{n_arcs}", build_mf_projection(cover).form
    for n in (32, 64):
        yield f"bott-{n}", bott_projector(ChartGrid2D(n))
    for seed in range(3):
        yield f"z3-{seed}", random_projection_form(
            GRID, Z3, 2, np.random.default_rng(seed), kalg=4)


@pytest.mark.parametrize("name, P", list(_projections()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_projection_defects_at_jet_order_0_are_the_full_order_ones(name, P):
    got = chern.projection_defects(P)
    assert got == _full_order_defects(P)
    assert chern.projection_residual(P) == max(got) <= 1e-12
    # far from a projection, where the defects do not round to 0
    Q = (P + P.scale(0.25)) @ P
    got = chern.projection_defects(Q)
    assert got == _full_order_defects(Q) and max(got) > 1e-3


@pytest.mark.parametrize("seed", range(3))
def test_unitary_residual_at_jet_order_0_is_the_full_order_one(seed):
    u = random_unitary_form(GRID, Z3, 2, np.random.default_rng(seed),
                            kalg=3)
    one = MixedForm.one(u.grid, u.spec, u.size, u.kalg)
    for v in (u, u.scale(1.5)):
        want = max((v.star() @ v - one).max_abs(),
                   (v @ v.star() - one).max_abs())
        assert chern.unitary_residual(v) == want
    assert chern.unitary_residual(u) <= 1e-12 < chern.unitary_residual(
        u.scale(1.5))


@pytest.mark.parametrize("n_arcs", [3, 4, 5])
def test_flat_projection_records_the_full_order_defects(n_arcs):
    mf = build_mf_projection(CoverData.standard(CircleGrid(256),
                                                n_arcs=n_arcs))
    assert (mf.idempotence, mf.selfadjoint) == _full_order_defects(mf.form)


def _star_by_entries(P):
    """The adjoint through full entries: each one conjugated, transposed
    and added at the inverse group element."""
    out = MixedForm.zero(P.grid, P.spec, P.size, P.kalg)
    out.add_entries(((P.spec.inv(g),), axes, x.conj().swapaxes(0, 1))
                    for (g,), axes, x in P.entries())
    return out


@pytest.mark.parametrize("name, P", list(_projections()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_star_is_the_adjoint_of_the_full_entries(name, P):
    # each layout conjugates its own entries (a tuple block on its live
    # rows and columns) and densifies nothing
    for form in (P, P._values(), ((P + P.scale(0.25)) @ P).scale(1 - 2j)):
        got = sorted(form.star().entries(), key=lambda e: e[0])
        want = sorted(_star_by_entries(form).entries(), key=lambda e: e[0])
        assert [e[:2] for e in got] == [e[:2] for e in want]
        for (_, _, x), (_, _, y) in zip(got, want):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert form.star().max_abs_diff(_star_by_entries(form)) == 0.0
