import itertools

import numpy as np
import pytest

from ncindex.chern import chern_even
from ncindex.covering import (CoverData, build_mf_projection,
                              cocycle_closedness_defect, higher_index_rhs,
                              omega_integral, omega_tau, vandermonde_cocycle,
                              verify_prop_chern, winding_cocycle,
                              zero_cocycle)
from ncindex.cyclic import GroupCocycle, pair_cochain_form, tau_to_c
from ncindex.errors import BadCover, NotAProjection, UnsupportedManifold
from ncindex.group_algebra import GroupSpec
from ncindex.nc_forms import CircleGrid, JetFunction

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
    from ncindex.chern import chern_even

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
