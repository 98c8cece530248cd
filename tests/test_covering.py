import itertools

import numpy as np
import pytest

from ncindex import bumps
from ncindex.chern import chern_even, closedness_defect
from ncindex.covering import (CoverData, build_mf_projection,
                              cocycle_closedness_defect, higher_index_rhs,
                              omega_integral, omega_tau, vandermonde_cocycle,
                              verify_prop_chern, winding_cocycle,
                              zero_cocycle)
from ncindex.cyclic import (GroupCocycle, d_gamma, pair_cochain_form,
                            tau_to_c)
from ncindex.errors import BadCover, NotAProjection, UnsupportedManifold
from ncindex.group_algebra import GroupSpec
from ncindex.nc_forms import CircleGrid, JetFunction, _jet_mul

GRID = CircleGrid(256)


def standard(grid=GRID, **kw):
    return CoverData.standard(grid, **kw)


def test_trivial_cover():
    cover = standard(n_arcs=1)
    mf = build_mf_projection(cover)
    assert mf.idempotence <= 1e-14
    tr = mf.form.graded_trace().scalar_part().component(())
    assert np.max(np.abs(tr - 1.0)) <= 1e-13


def test_partition_of_unity():
    for fam in ("mollifier", "raised-cosine", "poly-spline"):
        cover = standard(family=fam)
        assert cover.partition_residual() <= 1e-12


def test_projection_residual_grid_independent():
    # algebraic identity: residual at roundoff for every grid size
    for n in (64, 256, 1024):
        mf = build_mf_projection(standard(CircleGrid(n)))
        assert mf.idempotence <= 1e-12
        assert mf.selfadjoint <= 1e-12


def test_bad_partition_detected():
    cover = standard()
    cover.chi_sq[0] = cover.chi_sq[0].scale(1.05)
    with pytest.raises(BadCover):
        cover.validate()


def test_gap_cover_rejected():
    with pytest.raises(BadCover):
        CoverData(GRID, [(0.0, 0.4), (0.5, 0.9)], "mollifier",
                  GroupSpec.lattice(1), [[0, 0], [0, 0]])


def test_disconnected_overlap_rejected():
    with pytest.raises(BadCover):
        standard(n_arcs=2)


def test_bad_deck_rejected():
    grid = CircleGrid(128)
    arcs = CoverData.standard(grid).arcs
    deck = [[0, 0, -1], [0, 0, 0], [1, 0, 1]]  # nonzero diagonal
    with pytest.raises(BadCover):
        CoverData(grid, arcs, "mollifier", GroupSpec.lattice(1), deck)


def test_bump_derivatives_satisfy_stokes():
    # the partition bumps carry analytic derivatives; their exact
    # differentials integrate to zero on the circle
    for fam in ("mollifier", "raised-cosine", "poly-spline"):
        cover = standard(CircleGrid(512), family=fam)
        for sq in cover.chi_sq:
            assert abs(np.mean(sq.partial(0).value())) <= 1e-10


def test_omega_zero_cocycle():
    cover = standard()
    w = omega_tau(cover, zero_cocycle(cover.deck_spec))
    assert w.max_abs() == 0.0


def test_omega_winding_integral_is_one():
    for fam in ("mollifier", "raised-cosine", "poly-spline"):
        cover = standard(CircleGrid(1024), family=fam)
        val = omega_integral(cover, winding_cocycle(cover.deck_spec))
        assert abs(val - 1.0) <= 1e-8


def test_omega_bump_family_independence():
    vals = []
    for fam in ("mollifier", "raised-cosine", "poly-spline"):
        cover = standard(CircleGrid(1024), family=fam)
        vals.append(omega_integral(cover, winding_cocycle(cover.deck_spec)))
    for a in vals:
        for b in vals:
            assert abs(a - b) <= 1e-8


@pytest.mark.parametrize("kw, fn", [
    ({}, lambda a, b: complex((b[0] - a[0]) ** 2)),
    ({}, lambda a, b, c: complex((b[0] - a[0]) ** 2 * (c[0] - a[0]))),
    ({"deck_order": 4}, lambda a, b: complex((b - a) % 4))],
    ids=["lattice", "lattice-degree-2", "Z4"])
def test_closedness_defect_draws_the_tuples_of_40_single_draws(kw, fn):
    """One draw of the 40 tuples reads the stream of 40 draws of one
    tuple each, on a cocycle that is not closed."""
    cover = standard(**kw)
    spec = cover.deck_spec
    tau = GroupCocycle(spec, fn.__code__.co_argcount - 1, fn)
    pool = spec.elements() if spec.is_finite else spec.ball(3)
    rng = np.random.default_rng(0)
    dt = d_gamma(tau)
    want = 0.0
    for _ in range(40):
        tup = [pool[int(i)] for i in
               rng.integers(0, len(pool), tau.degree + 2)]
        want = max(want, abs(dt(*tup)))
    assert cocycle_closedness_defect(cover, tau) == want > 1e-3


def test_omega_rejects_non_closed_tau():
    cover = standard(deck_order=4)
    spec = cover.deck_spec
    tau = GroupCocycle(spec, 1, lambda a, b: complex((b - a) % 4))
    assert cocycle_closedness_defect(cover, tau) > 1e-3
    with pytest.raises(ValueError):
        omega_tau(cover, tau)


def test_torsion_deck_closed_cocycles_vanish():
    # over Z/k every closed invariant degree-1 cochain is zero, so the
    # only omega to integrate is the zero form
    k = 4
    closed = []
    for f in itertools.product(*[np.linspace(-1, 1, 3)] * (k - 1)):
        table = {0: 0.0}
        table.update({d + 1: f[d] for d in range(k - 1)})
        ok = all(abs(table[(a + b) % k] - table[a] - table[b]) < 1e-9
                 for a in range(k) for b in range(k))
        if ok:
            closed.append(table)
    assert all(max(abs(v) for v in t.values()) == 0 for t in closed)
    cover = standard(deck_order=k)
    assert omega_integral(cover, zero_cocycle(cover.deck_spec)) == 0


def test_prop_chern_identity():
    cover = standard(CircleGrid(1024))
    rep = verify_prop_chern(cover, winding_cocycle(cover.deck_spec))
    assert rep["residual"] <= 1e-8
    assert rep["flat_connection_residual"] <= 1e-9
    assert rep["sign_match"]
    assert rep["idempotence"] <= 1e-12


def test_prop_chern_residual_monotone_under_refinement():
    r256 = verify_prop_chern(standard(CircleGrid(256)),
                             winding_cocycle(GroupSpec.lattice(1)))
    r1024 = verify_prop_chern(standard(CircleGrid(1024)),
                              winding_cocycle(GroupSpec.lattice(1)))
    assert r1024["residual"] <= r256["residual"] + 1e-12


def test_prop_chern_trivial_cover():
    cover = standard(n_arcs=1)
    rep = verify_prop_chern(cover, winding_cocycle(cover.deck_spec))
    assert rep["residual"] <= 1e-14
    assert abs(rep["lhs_integral"]) <= 1e-14


def test_prop_chern_irregular_cover():
    arcs = [(-0.05, 0.45), (0.35, 0.75), (0.65, 1.05)]
    deck = [[0, 0, -1], [0, 0, 0], [1, 0, 0]]
    cover = CoverData(CircleGrid(512), arcs, "mollifier",
                      GroupSpec.lattice(1), deck)
    rep = verify_prop_chern(cover, winding_cocycle(cover.deck_spec))
    assert rep["residual"] <= 1e-8


def test_coboundary_pairing_vanishes():
    # pairing the character with a transpose-boundary cochain gives zero
    from ncindex.cyclic import b_transpose, pair_cochain_form, CyclicCochain
    from ncindex.chern import chern_even, closedness_defect

    cover = standard(CircleGrid(256))
    P = build_mf_projection(cover).form
    ch = chern_even(P, 1)
    spec = cover.deck_spec
    psi = CyclicCochain(spec, 0,
                        lambda g: 1.0 if g == (2,) else 0.0)
    paired = pair_cochain_form(b_transpose(psi), ch)
    assert abs(paired.integrate()) <= 1e-12


def test_higher_index_rhs():
    cover = standard(CircleGrid(512))
    tau = winding_cocycle(cover.deck_spec)
    assert higher_index_rhs(cover, zero_cocycle(cover.deck_spec), 1) == 0
    v1 = higher_index_rhs(cover, tau, 1)
    expected = -1.0 / (2j * np.pi) * omega_integral(cover, tau)
    assert abs(v1 - expected) <= 1e-12
    assert abs(higher_index_rhs(cover, tau, 2) - 2 * v1) <= 1e-12


def test_higher_index_degree_guard():
    cover = standard()
    tau2 = GroupCocycle(cover.deck_spec, 2, lambda *a: 0j)
    with pytest.raises(UnsupportedManifold):
        higher_index_rhs(cover, tau2, 1)


@pytest.mark.parametrize("n_arcs,family", [(3, "mollifier"),
                                           (4, "raised-cosine")])
def test_flat_form_is_the_algebra_part_of_the_character(n_arcs, family):
    rng = np.random.default_rng(90 + n_arcs)
    ov = 1.0 / (2 * n_arcs)
    jit = rng.uniform(-0.2, 0.2, size=2 * n_arcs) * ov
    arcs = [(i / n_arcs - ov / 2 + jit[2 * i],
             (i + 1) / n_arcs + ov / 2 + jit[2 * i + 1])
            for i in range(n_arcs)]
    deck = np.zeros((n_arcs, n_arcs), dtype=int)
    deck[-1, 0], deck[0, -1] = 1, -1
    cover = CoverData(GRID, arcs, family, GroupSpec.lattice(1), deck)
    P = build_mf_projection(cover).form
    # the product verify_prop_chern took the flat form from before
    aP = P.dtot_algebra()
    ref = (P @ aP @ aP).graded_trace()
    flat = chern_even(P, 1).algebra_component(2).scale(-2j * np.pi)
    assert ref.max_abs() > 1e-2
    assert (flat - ref).max_abs() <= 1e-12
    phi = tau_to_c(vandermonde_cocycle(cover.deck_spec, 2))
    rep = verify_prop_chern(cover, winding_cocycle(cover.deck_spec))
    assert rep["flat_connection_residual"] \
        == pair_cochain_form(phi, ref).max_abs() == 0.0


def test_verify_prop_chern_checks_the_projection_once(monkeypatch):
    from ncindex import chern
    calls = []
    residual = chern.projection_residual

    def counted(P):
        calls.append(P)
        return residual(P)

    monkeypatch.setattr(chern, "projection_residual", counted)
    cover = standard()
    rep = verify_prop_chern(cover, winding_cocycle(cover.deck_spec))
    assert rep["passed"]
    assert calls == []
    # the MFProjection's own check stands in for the one chern_even skips
    mf = build_mf_projection(cover)
    ch = chern_even(mf, 1)
    assert calls == []
    assert (ch - chern_even(mf.form, 1)).max_abs() == 0.0
    assert len(calls) == 1


def test_chern_even_still_checks_a_mixed_form():
    P = build_mf_projection(standard()).form
    with pytest.raises(NotAProjection):
        chern_even(P.scale(0.7), 1)


# -- the lift table against the per-reader rules it replaced ------------

def _walk_cutoff(cover, g):
    """h(x - g) by the period walk: over Z/k, x - g is wrapped into
    [-1/2, k - 1/2) and shifted by -k, 0 and k; a lattice lift is x - g."""
    spec = cover.deck_spec
    period = spec.order if spec.family == "cyclic" else None
    c = int(g) if period else int(g[0])
    x = cover.grid.points
    total = None
    for (left, right), sq in zip(cover.arcs, cover.chi_sq):
        y = x - c
        if period:
            y = np.mod(y + 0.5, period) - 0.5
        mask = np.zeros(cover.grid.shape)
        for t in ((-1.0, 0.0, 1.0) if period else (0.0,)):
            tt = t * (period or 1.0)
            mask = np.maximum(mask, ((y + tt > left) & (y + tt < right))
                              .astype(float))
        masked = sq.stack * mask
        total = masked if total is None else total + masked
    return total


def _window_support(cover):
    """Every element of Z/k, or the lattice window around the arcs."""
    spec = cover.deck_spec
    if spec.family == "cyclic":
        return list(range(spec.order))
    lo = min(a[0] for a in cover.arcs)
    hi = max(a[1] for a in cover.arcs)
    return [(c,) for c in range(int(np.floor(lo)) - 1,
                                int(np.ceil(hi)) + 2)]


def _walk_omega(cover, tau):
    e = cover.deck_spec.identity()
    coeff = None
    for g in _window_support(cover):
        t = tau(e, g)
        if t != 0:
            jet = JetFunction(cover.grid, cover.chi_sq[0].order,
                              _walk_cutoff(cover, g)).partial(0).scale(t)
            coeff = jet if coeff is None else coeff + jet
    return coeff


def _jittered(n, seed, family="poly-spline", grid=CircleGrid(250)):
    rng = np.random.default_rng(seed)
    ov = 1.0 / (2 * n)
    jit = rng.uniform(-0.2, 0.2, size=2 * n) * ov
    arcs = [(i / n - ov / 2 + jit[2 * i],
             (i + 1) / n + ov / 2 + jit[2 * i + 1]) for i in range(n)]
    deck = np.zeros((n, n), dtype=int)
    deck[-1, 0], deck[0, -1] = 1, -1
    return CoverData(grid, arcs, family, GroupSpec.lattice(1), deck)


ORACLE_COVERS = {
    **{f"lattice-{n}-{fam}": (lambda n=n, fam=fam: standard(n_arcs=n,
                                                             family=fam))
       for n in (1, 3, 4, 5, 6)
       for fam in ("mollifier", "raised-cosine", "poly-spline")},
    **{f"cyclic-{k}-{n}": (lambda k=k, n=n: standard(n_arcs=n,
                                                      deck_order=k))
       for k in range(1, 6) for n in (1, 3, 4)},
    **{f"jittered-{n}-{seed}": (lambda n=n, seed=seed: _jittered(n, seed))
       for n in (3, 4, 5) for seed in (0, 1)},
    # no arc reaches below 0, so the lift -1 meets none
    "lattice-above-0": lambda: CoverData(
        GRID, [(0.0, 0.45), (0.35, 0.8), (0.7, 1.1)], "mollifier",
        GroupSpec.lattice(1), [[0, 0, -1], [0, 0, 0], [1, 0, 0]]),
}


@pytest.mark.parametrize("name", sorted(ORACLE_COVERS))
def test_lift_table_matches_the_period_walk(name):
    cover = ORACLE_COVERS[name]()
    spec = cover.deck_spec
    elements = spec.elements() if spec.is_finite else spec.ball(4)
    support = cover.deck_support()
    for g in elements:
        cut = cover.shifted_cutoff(g).stack
        assert np.array_equal(cut, _walk_cutoff(cover, g))
        if np.any(cut):
            assert g in support
    assert set(support) <= set(_window_support(cover))
    if spec.family == "lattice":
        tau = winding_cocycle(spec)
        assert np.array_equal(omega_tau(cover, tau).component((0,)),
                              _walk_omega(cover, tau).value())
    else:
        assert omega_tau(cover, zero_cocycle(spec)).terms == {}


# -- the array construction against the per-arc and loop oracles -------

def _chi_by_arc(cover):
    """chi by one plateau call and JetFunction products per arc."""
    grid = cover.grid
    if cover.n_arcs == 1:
        return [JetFunction.constant(grid, 1.0, 1)]
    lifts = grid.points + np.array([-1.0, 0.0, 1.0])[:, None]
    raw = []
    for (left, right), inside in zip(cover.arcs, cover._inside):
        width = 0.3 * (right - left)
        x = np.select(inside, lifts, left - 1.0)
        val, d1 = bumps.plateau(x, left, right, width, cover.family)
        raw.append(JetFunction.from_arrays(grid, {(0,): val, (1,): d1}))
    squares = [jet * jet for jet in raw]
    norm = sum(squares[1:], squares[0]).rsqrt()
    return [jet * norm for jet in raw]


def _jet_by_einsum(a, b):
    """The product of two jets as the einsum kernel on 1 x 1 matrices."""
    out = _jet_mul(a.stack.reshape(1, 1, len(a.stack), -1),
                   b.stack.reshape(1, 1, len(b.stack), -1), a.grid.ndim)
    return out.reshape(a.stack.shape)


@pytest.mark.parametrize("name", sorted(ORACLE_COVERS))
def test_chi_stacks_are_the_per_arc_ones(name):
    cover = ORACLE_COVERS[name]()
    want = _chi_by_arc(cover)
    assert [c.stack.tobytes() for c in cover.chi] \
        == [c.stack.tobytes() for c in want]
    assert [c.stack.tobytes() for c in cover.chi_sq] \
        == [_jet_by_einsum(c, c).tobytes() for c in want]


def _validate_by_loop(cover):
    """The deck and overlap checks of `CoverData.validate` as the loop
    over arcs; returns the first failure's message or None."""
    spec, n = cover.deck_spec, cover.n_arcs
    g = cover.deck_element
    for i in range(n):
        if g(i, i) != spec.identity():
            return "deck diagonal is not the identity"
        for j in range(n):
            if spec.mul(g(i, j), g(j, i)) != spec.identity():
                return "deck matrix is not antisymmetric"
    support = [np.abs(c.value().real) > 1e-9 for c in cover.chi]
    for i in range(n):
        for j in range(n):
            m = support[i] & support[j]
            if i != j and m.any() and not m.all() \
                    and np.sum(~m & np.roll(m, -1)) > 1:
                return (f"overlap of arcs {i} and {j} is not connected; "
                        f"a single deck element cannot describe it")
            for k in range(n):
                if np.any(m & support[k]) \
                        and spec.mul(g(i, j), g(j, k)) != g(i, k):
                    return f"cocycle condition fails on ({i},{j},{k})"
    return None


def _unvalidated(monkeypatch, *args):
    """A CoverData built without its validation."""
    with monkeypatch.context() as m:
        m.setattr(CoverData, "validate", lambda self: None)
        return CoverData(*args)


#: four arcs with one triple overlap, (0.4, 0.45) in arcs 0, 1 and 2
TRIPLE_ARCS = [(0.0, 0.45), (0.3, 0.7), (0.4, 0.9), (0.85, 1.05)]
TRIPLE_DECK = [[0, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]


def _with(deck, **entries):
    out = np.array(deck)
    for key, value in entries.items():
        out[int(key[1]), int(key[2])] = value
    return out


@pytest.mark.parametrize("arcs, spec, deck, need", [
    (TRIPLE_ARCS, GroupSpec.lattice(1), _with(TRIPLE_DECK, d11=1),
     "deck diagonal"),
    (TRIPLE_ARCS, GroupSpec.lattice(1), _with(TRIPLE_DECK, d21=1),
     "antisymmetric"),
    (TRIPLE_ARCS, GroupSpec.cyclic(3), _with(TRIPLE_DECK, d03=2, d12=1),
     "antisymmetric"),
    ([(-0.125, 0.625), (0.375, 1.125)], GroupSpec.lattice(1),
     [[0, -1], [1, 0]], "not connected"),
    (TRIPLE_ARCS, GroupSpec.lattice(1), _with(TRIPLE_DECK, d01=1, d10=-1),
     "cocycle condition fails on (0,1,2)"),
    (TRIPLE_ARCS, GroupSpec.cyclic(3),
     _with(TRIPLE_DECK, d03=2, d01=1, d10=2),
     "cocycle condition fails on (0,1,2)"),
], ids=["diagonal", "antisymmetry", "antisymmetry-Z3", "disconnected",
        "cocycle-lattice", "cocycle-Z3"])
def test_a_malformed_cover_raises_the_loop_message(monkeypatch, arcs, spec,
                                                    deck, need):
    cover = _unvalidated(monkeypatch, CircleGrid(400), arcs, "mollifier",
                         spec, deck)
    want = _validate_by_loop(cover)
    assert need in want
    with pytest.raises(BadCover) as err:
        cover.validate()
    assert str(err.value) == want
    # and so does the constructor, which validates
    with pytest.raises(BadCover) as err:
        CoverData(CircleGrid(400), arcs, "mollifier", spec, deck)
    assert str(err.value) == want


def test_the_deck_group_is_z_or_a_cyclic_group():
    with pytest.raises(BadCover, match="Z or Z/k"):
        CoverData(GRID, TRIPLE_ARCS, "mollifier", GroupSpec.lattice(2),
                  TRIPLE_DECK)


def test_a_cover_takes_the_bump_steps_once_for_all_arcs(monkeypatch):
    calls = []
    step = bumps.step

    def counted(*args, **kw):
        calls.append(1)
        return step(*args, **kw)

    monkeypatch.setattr(bumps, "step", counted)
    counts = set()
    for n_arcs in (3, 4, 5, 6):
        calls.clear()
        standard(n_arcs=n_arcs)
        counts.add(len(calls))
    assert counts == {2}


def _dtypes(form):
    return {arrays.dtype for *_, arrays in form.stacks()}


@pytest.mark.parametrize("deck_order", [0, 3], ids=["lattice", "Z3"])
def test_a_cover_stays_real_until_the_character_coefficients(deck_order):
    cover = standard(CircleGrid(64), deck_order=deck_order)
    real = {np.dtype(float)}
    assert {c.stack.dtype for c in cover.chi} == real
    P = build_mf_projection(cover).form
    dP = P.dtot()
    dP2 = dP @ dP
    for form in (P, dP, dP2, (P @ dP2).graded_trace()):
        assert form.terms and _dtypes(form) == real
    # tr P keeps its field; the (2 pi i)^-1 coefficient makes the rest
    # of the character complex
    ch = chern_even(P, 1)
    assert _dtypes(ch) == real | {np.dtype(complex)}
    rest = ch - P.graded_trace()
    assert rest.terms and _dtypes(rest) == {np.dtype(complex)}


def test_verify_prop_chern_on_4096_points_is_lean():
    # tuple-block entries held as their live submatrices: 3.1 MB (10.2
    # MB with every entry a full array, 23.4 MB at second-order jets)
    import tracemalloc

    cover = standard(CircleGrid(4096))
    tau = winding_cocycle(cover.deck_spec)
    tracemalloc.start()
    try:
        rep = verify_prop_chern(cover, tau)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep["passed"]
    assert peak < 3.9 * 2 ** 20


# ---------------------------------------------------------------------
# covers at jet order 1: the character identity and omega_tau read no
# derivative past the first
# ---------------------------------------------------------------------


@pytest.mark.parametrize("kw", [{}, {"deck_order": 3}, {"n_arcs": 1}],
                         ids=["lattice", "Z3", "one-arc"])
def test_a_cover_carries_first_order_jets(kw):
    cover = standard(CircleGrid(128), **kw)
    cutoffs = [cover.shifted_cutoff(g) for g in cover.deck_support()]
    assert cutoffs
    for jet in cover.chi + cover.chi_sq + cutoffs:
        assert jet.order == 1
    P = build_mf_projection(cover).form
    entries = list(P.entries())
    assert entries
    for _tup, _axes, x in entries:
        # the (n, n, J, *grid) array holds one jet order for all entries
        assert JetFunction.from_stack(cover.grid, x[0, 0]).order == 1
    for jet in cutoffs:
        with pytest.raises(ValueError, match="jet order exhausted"):
            jet.partial(0).partial(0)
    # no check is lost: the character of P is still closed
    assert closedness_defect(chern_even(P, 1)) <= 1e-12


def test_verify_prop_chern_on_4096_points_peaks_under_20_mb():
    # first-order jets: 2 jets per entry and 3 Leibniz terms per product
    # (3 and 6 at second order, which peaked at 23.4 MB)
    import tracemalloc

    cover = standard(CircleGrid(4096))
    tau = winding_cocycle(cover.deck_spec)
    tracemalloc.start()
    try:
        rep = verify_prop_chern(cover, tau)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep["passed"]
    assert peak < 20 * 2 ** 20
