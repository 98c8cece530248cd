import functools
import itertools
import operator

import numpy as np
import pytest

from ncindex.group_algebra import GAMatrix, GroupSpec
from ncindex.nc_forms import (ChartGrid2D, CircleGrid, JetFunction,
                              MixedForm, ScalarForm, _blocks, _DenseBlocks,
                              _jet_mul, _jet_outer, _merge_axes,
                              _multi_indices)
from ncindex.testing import (random_gamatrix, random_mixed_form,
                             random_normalized_cochain,
                             random_projection_form, random_trig_jet)

GRID = CircleGrid(16)
SPEC = GroupSpec.cyclic(3)


def test_jet_leibniz_and_partial():
    rng = np.random.default_rng(0)
    f = random_trig_jet(GRID, rng)
    g = random_trig_jet(GRID, rng)
    fg = f * g
    lhs = fg.partial(0).value()
    rhs = (f.partial(0) * g + f * g.partial(0)).value()
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_stokes_on_circle():
    rng = np.random.default_rng(1)
    f = random_trig_jet(GRID, rng)
    df = ScalarForm.function(f).d()
    assert abs(df.integrate()) <= 1e-10


def test_dtot_of_constant_vanishes():
    c = MixedForm.one(GRID, SPEC, 2, kalg=3)
    assert c.dtot().max_abs() <= 1e-14


def test_dtot_definition_on_simple_tensor():
    rng = np.random.default_rng(2)
    f = random_trig_jet(GRID, rng)
    g = GAMatrix.single(SPEC, 1, 0, 0, 1)
    w = MixedForm.zero(GRID, SPEC, 1, 3)
    w.add_term(ScalarForm.function(f), (g,))
    d = w.dtot()
    # (1,0) part is df x g, (0,1) part is f x (1 (x) g)
    comps = d.components()
    assert (1, 0) in comps and (0, 1) in comps
    [(tup, axes, x)] = list(d.algebra_component(0).entries())
    assert (tup, axes) == ((1,), (0,))
    assert np.max(np.abs(x[0, 0, 0] - f.partial(0).value())) <= 1e-12
    [(tup, axes, x)] = list(d.algebra_component(1).entries())
    assert (tup, axes) == ((0, 1), ())
    assert np.max(np.abs(x[0, 0, 0] - f.value())) <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_dtot_squares_to_zero(seed):
    rng = np.random.default_rng(seed)
    w = random_mixed_form(GRID, SPEC, 2, 0, 1, rng, kalg=5) \
        + random_mixed_form(GRID, SPEC, 2, 1, 0, rng, kalg=5)
    assert w.dtot().dtot().max_abs() <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_leibniz_rule(seed):
    rng = np.random.default_rng(seed)
    a = random_mixed_form(GRID, SPEC, 2, 0, 1, rng, kalg=6)
    b = random_mixed_form(GRID, SPEC, 2, 1, 1, rng, kalg=6)
    lhs = (a @ b).dtot()
    rhs = a.dtot() @ b - a @ b.dtot()  # |a| = 1
    assert (lhs - rhs).max_abs() <= 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_associativity(seed):
    rng = np.random.default_rng(seed)
    a = random_mixed_form(GRID, SPEC, 2, 0, 1, rng, kalg=6)
    b = random_mixed_form(GRID, SPEC, 2, 1, 0, rng, kalg=6)
    c = random_mixed_form(GRID, SPEC, 2, 0, 2, rng, kalg=6)
    assert ((a @ b) @ c - a @ (b @ c)).max_abs() <= 1e-9


def test_unit_is_neutral():
    rng = np.random.default_rng(3)
    a = random_mixed_form(GRID, SPEC, 2, 1, 1, rng, kalg=5)
    one = MixedForm.one(GRID, SPEC, 2, kalg=5)
    assert (a @ one - a).max_abs() <= 1e-12
    assert (one @ a - a).max_abs() <= 1e-12


def test_leibniz_word_identity():
    # (a db) c = a d(bc) - ab dc
    rng = np.random.default_rng(4)
    am, bm, cm = (random_gamatrix(SPEC, 2, rng) for _ in range(3))
    one = ScalarForm.one(GRID)

    def word(*mats):
        f = MixedForm.zero(GRID, SPEC, 2, 5)
        f.add_term(one, mats)
        return f

    lhs = word(am, bm) @ word(cm)
    rhs = word(am, bm @ cm) - word(am @ bm, cm)
    assert (lhs - rhs).max_abs() <= 1e-12


def test_canonicalization_idempotent_and_kills_identity_slots():
    ident = GAMatrix.identity(SPEC, 2)
    g = random_gamatrix(SPEC, 2, np.random.default_rng(5))
    w = MixedForm.zero(GRID, SPEC, 2, 4)
    w.add_term(ScalarForm.one(GRID), (g, ident))
    assert not w.terms  # d e = 0: a slot-1 identity kills the word
    w2 = MixedForm.zero(GRID, SPEC, 2, 4)
    w2.add_term(ScalarForm.one(GRID), (g, g))
    # phi(g dg): one entry per tuple (a, b), b != e, holding g_a g_b
    got = {tup: x[:, :, 0] for tup, _axes, x in w2.entries()}
    want = {(a, b): ma @ mb for a, ma in g.parts.items()
            for b, mb in g.parts.items() if b != SPEC.identity()}
    assert got and set(got) == set(want)
    for tup, m in want.items():
        assert np.max(np.abs(got[tup] - m[:, :, None])) <= 1e-14


def test_dtot_algebra_part_is_unit_prepend():
    rng = np.random.default_rng(9)
    f = random_trig_jet(GRID, rng)
    g = random_gamatrix(SPEC, 2, rng)
    w = MixedForm.zero(GRID, SPEC, 2, 3)
    w.add_term(ScalarForm.function(f), (g,))
    d = w.dtot().algebra_component(1)
    expected = MixedForm.zero(GRID, SPEC, 2, 3)
    expected.add_term(ScalarForm.function(f),
                      (GAMatrix.identity(SPEC, 2), g))
    assert (d - expected).max_abs() <= 1e-13


def test_forms_identified_modulo_slot_identity():
    # adding a scalar-identity summand in a slot >= 1 does not change
    # the canonical form
    rng = np.random.default_rng(10)
    g = random_gamatrix(SPEC, 2, rng)
    h = random_gamatrix(SPEC, 2, rng)
    shifted = h + GAMatrix.identity(SPEC, 2).scale(0.37 - 0.11j)
    w1 = MixedForm.zero(GRID, SPEC, 2, 4)
    w1.add_term(ScalarForm.one(GRID), (g, h))
    w2 = MixedForm.zero(GRID, SPEC, 2, 4)
    w2.add_term(ScalarForm.one(GRID), (g, shifted))
    assert (w1 - w2).max_abs() <= 1e-13
    assert not (w1 - w2).terms  # the shift lives in the dead e slot


def test_cutoff_drop_flag():
    rng = np.random.default_rng(6)
    w = random_mixed_form(GRID, SPEC, 2, 0, 2, rng, kalg=2)
    d = w.dtot()
    assert d.dropped


def test_graded_trace_identity():
    one = MixedForm.one(GRID, SPEC, 3, kalg=2)
    tr = one.graded_trace()
    vals = tr.scalar_part().component(())
    assert np.max(np.abs(vals - 3.0)) <= 1e-13


def test_graded_trace_kills_commutators_degree_zero():
    rng = np.random.default_rng(7)
    a = random_mixed_form(GRID, SPEC, 2, 0, 0, rng, kalg=4)
    b = random_mixed_form(GRID, SPEC, 2, 0, 0, rng, kalg=4)
    comm = a @ b - b @ a
    assert comm.graded_trace().max_abs() <= 1e-11


def test_graded_supercommutator_pairs_to_zero_with_closed_cocycles():
    # at algebra degree >= 1 the trace of a supercommutator vanishes
    # modulo b-boundaries, detected through closed cochains
    from ncindex.cyclic import closed_cocycle_basis, pair_cochain_form

    rng = np.random.default_rng(8)
    a = random_mixed_form(GRID, SPEC, 2, 0, 1, rng, kalg=6)   # |a| = 1
    b = random_mixed_form(GRID, SPEC, 2, 1, 1, rng, kalg=6)   # |b| = 2
    comm = a @ b - b @ a
    traced = comm.graded_trace()
    for phi in closed_cocycle_basis(SPEC, 2):
        assert pair_cochain_form(phi, traced).max_abs() <= 1e-10


def test_chart_grid_wedge_and_d():
    grid = ChartGrid2D(24)
    x, y = grid.xs, grid.ys
    f = JetFunction.from_arrays(
        grid, {(0, 0): np.sin(2 * np.pi * x) * y,
               (1, 0): 2 * np.pi * np.cos(2 * np.pi * x) * y,
               (0, 1): np.sin(2 * np.pi * x),
               (1, 1): 2 * np.pi * np.cos(2 * np.pi * x),
               (2, 0): -(2 * np.pi) ** 2 * np.sin(2 * np.pi * x) * y,
               (0, 2): np.zeros_like(x)})
    sf = ScalarForm.function(f)
    ddf = sf.d().d()
    assert ddf.max_abs() <= 1e-10
    # the product of df with f dy lies in degree (2, 0) only
    trivial = GroupSpec.trivial()

    def scalar(sform):
        form = MixedForm.zero(grid, trivial, 1)
        form.add_term(sform, (GAMatrix.identity(trivial, 1),))
        return form

    wedge = scalar(sf.d()) @ scalar(ScalarForm(grid, {(1,): f}))
    assert wedge.terms and set(wedge.terms) <= {(0, (0, 1))}


def _entry_map(form):
    return {(tup, axes): x for tup, axes, x in form.entries()}


def test_sum_merges_canonical_terms_without_add_term(monkeypatch):
    rng = np.random.default_rng(7)
    P = random_projection_form(GRID, SPEC, 2, rng)
    calls = []
    real = MixedForm.add_term

    def counted(self, sform, word):
        calls.append(len(word))
        return real(self, sform, word)

    monkeypatch.setattr(MixedForm, "add_term", counted)
    dP = P.dtot()
    monkeypatch.undo()
    assert dP.terms and len(calls) <= len(dP.terms)


def test_sum_merges_by_key():
    rng = np.random.default_rng(8)
    P = random_projection_form(GRID, SPEC, 2, rng)
    w = random_mixed_form(GRID, SPEC, 2, 1, 0, rng, kalg=5)
    low = random_mixed_form(GRID, SPEC, 2, 0, 1, rng, kalg=1)
    dP = P.dtot()
    for a, b in ((P, dP), (dP, P), (P, w), (P + w, P.scale(-1.0)),
                 (dP @ dP, low), (low, dP @ dP)):
        total = a + b
        kalg = min(a.kalg, b.kalg)
        ea, eb = _entry_map(a), _entry_map(b)
        want = {}
        for key in {**ea, **eb}:
            if len(key[0]) - 1 > kalg:
                continue
            parts = [e[key] for e in (ea, eb) if key in e]
            x = parts[0] if len(parts) == 1 else parts[0] + parts[1]
            if x.any():
                want[key] = x
        got = _entry_map(total)
        # exact group tuples: entries add bitwise, cancelled ones vanish
        assert set(got) == set(want)
        for key, x in want.items():
            assert np.array_equal(got[key], x)
        assert set(total.terms) == {(len(t) - 1, axes) for t, axes in want}
        assert total.dropped == (a.dropped or b.dropped or any(
            len(t) - 1 > kalg for t, _axes in {**ea, **eb}))
    assert (dP @ dP + low).dropped


@pytest.mark.parametrize("spec", [SPEC, GroupSpec.lattice(1)],
                         ids=["Z3", "Z"])
def test_products_merge_exactly(spec):
    grid = CircleGrid(8)
    rng = np.random.default_rng(1)
    a, b, c = (random_mixed_form(grid, spec, 2, 0, 1, rng, kalg=6)
               for _ in range(3))
    left, right = (a @ b) @ c, a @ (b @ c)
    assert set(left.terms) == set(right.terms)
    # equal words share their group tuple; an entry on one side only is
    # a rounding residue of a coefficient that is exactly zero
    el, er = _entry_map(left), _entry_map(right)
    assert len(set(el) & set(er)) >= 0.9 * max(len(el), len(er))
    for key in set(el) ^ set(er):
        assert np.max(np.abs({**el, **er}[key])) <= 1e-9
    diff = left - right
    assert len(diff.terms) <= min(len(left.terms), len(right.terms))
    assert len(_entry_map(diff)) <= max(len(el), len(er))
    assert diff.max_abs() <= 1e-9
    P = random_projection_form(grid, SPEC, 2, rng)
    assert len((P @ P - P).terms) <= len(P.terms)
    assert len(_entry_map(P @ P - P)) <= len(_entry_map(P))


def _snapshot(form):
    return {key: x.copy() for key, x in _entry_map(form).items()}


def _unchanged(form, snap):
    got = _entry_map(form)
    return set(got) == set(snap) and all(
        np.array_equal(x, snap[key]) for key, x in got.items())


@pytest.mark.parametrize("spec", [SPEC, GroupSpec.lattice(1),
                                  GroupSpec.trivial()],
                         ids=["Z3", "Z", "trivial"])
def test_operations_leave_their_operands_unchanged(spec):
    """`@`, `traced_product` and `+` write into no array of an operand,
    also where a block passes through with the sign +1 unscaled."""
    rng = np.random.default_rng(16)
    # over the trivial group every word of algebra degree >= 1 dies
    q = 0 if spec == GroupSpec.trivial() else 1
    a = random_mixed_form(GRID, spec, 2, 0, q, rng, kalg=6)
    b = random_mixed_form(GRID, spec, 2, 1, q, rng, kalg=6)
    forms = [a, b, a.dtot(), b + a.dtot()]
    assert all(f.terms for f in forms)
    snaps = [_snapshot(f) for f in forms]
    for x, y in itertools.product(forms, repeat=2):
        results = [x @ y, x.traced_product(y), (x + y) + x]
        assert results[2].terms
        assert all(_unchanged(f, snap) for f, snap in zip(forms, snaps))


def test_exact_cancellations_are_dropped():
    from ncindex.covering import CoverData, build_mf_projection

    P = random_projection_form(GRID, SPEC, 2, np.random.default_rng(9))
    cover = CoverData.standard(CircleGrid(64))
    Q = build_mf_projection(cover).form
    sf = ScalarForm.function(random_trig_jet(GRID,
                                             np.random.default_rng(10)))
    for form in (P, Q, sf):
        assert form.terms
        assert len((form - form).terms) == 0
        assert len((form + form.scale(-1.0)).terms) == 0


def _insertion_merge(a, b):
    """Merge of axis tuples by insertion sort, counting transpositions:
    the reference for `_merge_axes`."""
    if set(a) & set(b):
        return None, 0
    merged = list(a) + list(b)
    sign = 1
    for i in range(1, len(merged)):
        j = i
        while j > 0 and merged[j - 1] > merged[j]:
            merged[j - 1], merged[j] = merged[j], merged[j - 1]
            sign = -sign
            j -= 1
    return tuple(merged), sign


def test_merge_axes_matches_insertion_sort():
    tuples = [t for r in range(4) for t in itertools.combinations(range(3), r)]
    for a, b in itertools.product(tuples, repeat=2):
        assert _merge_axes(a, b) == _insertion_merge(a, b), (a, b)
    assert _merge_axes((0, 2), (1, 2)) == (None, 0)


def _jets(grid, rng):
    """A jet of order 2 with random samples for every multi-index."""
    return JetFunction.from_arrays(grid, {
        a: rng.standard_normal(grid.shape) + 1j * rng.standard_normal(
            grid.shape) for a in _multi_indices(grid.ndim, 2)})


def _same_jets(got, want):
    """{axes: JetFunction} maps equal bitwise, zero jets of want
    ignored."""
    want = {axes: jet for axes, jet in want.items() if not jet.is_zero()}
    assert set(got) == set(want)
    for axes, jet in want.items():
        assert got[axes].order == jet.order
        assert np.array_equal(got[axes].stack, jet.stack), axes


def test_scalar_forms_are_closed_under_their_operations():
    rng = np.random.default_rng(11)
    grid = ChartGrid2D(8)
    a = ScalarForm(grid, {(): _jets(grid, rng), (1,): _jets(grid, rng)})
    b = ScalarForm(grid, {(0,): _jets(grid, rng)})
    for form in (a + b, a - b, a.scale(0.5j), a.d(), a @ b, b @ a,
                 ScalarForm.one(grid) @ a):
        assert type(form) is ScalarForm
    assert ScalarForm.d is MixedForm.dtot_manifold
    assert (a @ b).component((0, 1)).any()
    assert np.array_equal((ScalarForm.one(grid) @ a).component((1,)),
                          a.component((1,)))


def test_scalar_form_round_trips_through_comps():
    rng = np.random.default_rng(12)
    f, g = _jets(GRID, rng), _jets(GRID, rng)
    zero = JetFunction.constant(GRID, 0.0)
    sf = ScalarForm(GRID, {(): f, (0,): g})
    _same_jets(sf.comps, {(): f, (0,): g})
    _same_jets(ScalarForm(GRID, sf.comps).comps, sf.comps)
    assert not ScalarForm(GRID, {(): zero}).terms
    assert set(ScalarForm(GRID, {(): zero, (0,): g}).comps) == {(0,)}
    assert ScalarForm.zero(GRID).integrate() == 0j
    with pytest.raises(TypeError):
        sf.comps[(0,)] = f


def test_scalar_d_matches_the_per_axis_loop():
    rng = np.random.default_rng(13)
    grid = ChartGrid2D(8)
    sf = ScalarForm(grid, {axes: _jets(grid, rng)
                           for axes in ((), (0,), (1,))})
    # the per-axis loop over {axes: JetFunction}, kept as the oracle
    want = {}
    for axes, jet in sf.comps.items():
        for ax in range(grid.ndim):
            if ax in axes:
                continue
            merged, sign = _insertion_merge((ax,), axes)
            dj = jet.partial(ax) if sign == 1 \
                else jet.partial(ax).scale(sign)
            want[merged] = want[merged] + dj if merged in want else dj
    _same_jets(sf.d().comps, want)


def _pair_oracle(phi, omega):
    """`pair_cochain_form` through JetFunction, as the reference."""
    traced = omega if omega.size == 1 else omega.graded_trace()
    return {axes: JetFunction.from_stack(omega.grid, np.tensordot(
        phi.values(tuples), arrays[:, 0, 0], 1))
        for q, axes, tuples, arrays in traced.stacks() if q == phi.degree}


def _scalar_part_oracle(form):
    """`MixedForm.scalar_part` through JetFunction, as the reference."""
    return {axes: JetFunction.from_stack(form.grid, x[0, 0])
            for tup, axes, x in form.algebra_component(0).entries()
            if tup == (form.spec.identity(),)}


def _z5_character():
    from ncindex.chern import chern_even
    from ncindex.cyclic import random_closed_cocycle

    rng = np.random.default_rng(14)
    spec = GroupSpec.cyclic(5)
    ch = chern_even(random_projection_form(CircleGrid(8), spec, 2, rng), 1)
    return ch, [random_closed_cocycle(spec, 2, rng),
                random_normalized_cochain(spec, 1, rng)]


def _cover_character():
    from ncindex.chern import chern_even
    from ncindex.covering import (CoverData, build_mf_projection,
                                  vandermonde_cocycle, winding_cocycle)
    from ncindex.cyclic import tau_to_c

    cover = CoverData.standard(CircleGrid(64))
    ch = chern_even(build_mf_projection(cover), 1)
    return ch, [tau_to_c(winding_cocycle(cover.deck_spec)),
                tau_to_c(vandermonde_cocycle(cover.deck_spec, 2))]


@pytest.mark.parametrize("build", [_z5_character, _cover_character],
                         ids=["Z5", "lattice-cover"])
def test_scalar_results_equal_the_jet_construction(build):
    from ncindex.cyclic import pair_cochain_form

    ch, cochains = build()
    part = ch.scalar_part()
    assert type(part) is ScalarForm
    _same_jets(part.comps, _scalar_part_oracle(ch))
    # over the cover the second pairing is the flat-connection
    # cancellation: exactly zero, so it keeps no component
    paired = [pair_cochain_form(phi, ch) for phi in cochains]
    assert paired[0].terms
    for phi, form in zip(cochains, paired):
        assert type(form) is ScalarForm
        _same_jets(form.comps, _pair_oracle(phi, ch))


def _refuse(*_args):
    raise AssertionError("stacked a dense block")


def test_dense_pairing_reads_the_block_without_stacking(monkeypatch):
    from ncindex.cyclic import pair_cochain_form

    ch, (phi, _) = _z5_character()
    assert phi.orbits is not None
    want = _pair_oracle(phi, ch)
    with monkeypatch.context() as m:
        m.setattr(_DenseBlocks, "stacked", _refuse)
        paired = pair_cochain_form(phi, ch)
    _same_jets(paired.comps, want)


def test_function_cochain_pairing_reads_each_live_tuple_once(monkeypatch):
    from ncindex.chern import chern_even
    from ncindex.covering import (CoverData, build_mf_projection,
                                  vandermonde_cocycle)
    from ncindex.cyclic import (CyclicCochain, GroupCocycle,
                                pair_cochain_form, tau_to_c)

    cover = CoverData.standard(CircleGrid(64), deck_order=3)
    spec = cover.deck_spec
    ch = chern_even(build_mf_projection(cover), 1)
    call = CyclicCochain.__call__
    for tau in (GroupCocycle(spec, 1, lambda a, b: complex((b - a) % 3)),
                vandermonde_cocycle(spec, 2)):
        c = tau_to_c(tau)
        want = _pair_oracle(c, ch)
        calls = []
        with monkeypatch.context() as m:
            m.setattr(CyclicCochain, "__call__",
                      lambda phi, *t: calls.append(t) or call(phi, *t))
            paired = pair_cochain_form(c, ch)
        # the tuples that `stacks` lists, in its order
        assert calls == [t for q, _axes, tuples, _x in ch.stacks()
                         if q == c.degree for t in tuples]
        assert calls
        _same_jets(paired.comps, want)


def _stacked_max(form):
    return max((float(np.max(np.abs(arrays[:, :, :, 0])))
                for *_, arrays in form.stacks()), default=0.0)


@pytest.mark.parametrize("build", [_z5_character, _cover_character],
                         ids=["Z5", "lattice-cover"])
def test_max_abs_is_the_maximum_over_the_stacked_entries(build):
    ch, _ = build()
    P = random_projection_form(GRID, SPEC, 2, np.random.default_rng(15))
    for form in (ch, ch.algebra_component(1), P, P.dtot() @ P,
                 MixedForm.zero(GRID, SPEC, 2)):
        assert form.max_abs() == _stacked_max(form)


# -- the fused product over Z/k: one BLAS product --------------------------

def _fused_outer_loop(lay, a, b):
    """The fused product as one `_jet_outer` per slot g of a, summed: a's
    last slot g meets b's first slot g^-1 f at the slot f."""
    head = (slice(None),) * (a.ndim - 5)
    return functools.reduce(operator.iadd, (
        _jet_outer(a[head + (g, None)], b, lay.ndim, lay.solve[g:g + 1])
        for g in range(lay.k) if a[head + (g,)].any()))


@pytest.mark.parametrize("jets", [(3, 2), (2, 3)], ids=["J32", "J23"])
@pytest.mark.parametrize("field", [float, complex])
@pytest.mark.parametrize("k", [3, 5, 7])
def test_fused_product_matches_the_per_slot_loop(k, field, jets):
    rng = np.random.default_rng(10 * k + jets[0])
    lay = _blocks(GroupSpec.cyclic(k), 1)

    def draw(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if field is complex else x

    # a degree-1 block of 2 x 3 entries times a degree-2 block of 3 x 1
    # entries, with different jet orders, on 4 grid points; one slot of
    # a is empty, which the loop skips
    a = draw((k, k, 2, 3, jets[0], 4))
    b = draw((k, k, k, 3, 1, jets[1], 4))
    a[:, 1] = 0
    got = lay.outer(a, b)
    want = _fused_outer_loop(lay, a, b)
    assert got.shape == want.shape == (k,) * 4 + (2, 1, 2, 4)
    assert got.dtype == want.dtype == np.dtype(field)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _all_pairs_outer(spec, a, b, ndim):
    """The fused product pair by pair: the entry of a at (s, g) times the
    entry of b at (h, t) by `_jet_mul`, added at (s, g h, t).  The jets
    are those of a side that varies on the grid."""
    k = spec.order
    jets = min(x.shape[-2] for x in (a, b) if x.shape[-1] > 1)
    shape = (a.shape[:-5] + (k,) + b.shape[1:-4] + (a.shape[-4], b.shape[-3])
             + (jets, max(a.shape[-1], b.shape[-1])))
    out = np.zeros(shape, np.result_type(a, b))
    for s in np.ndindex(a.shape[:-4]):
        for t in np.ndindex(b.shape[:-4]):
            out[s[:-1] + (spec.mul(s[-1], t[0]),) + t[1:]] += _jet_mul(
                a[s], b[t], ndim)
    return out


@pytest.mark.parametrize("field", [float, complex])
@pytest.mark.parametrize("grid", [CircleGrid(5), ChartGrid2D(3)],
                         ids=["circle-J3", "chart-J6"])
def test_jet_outer_matches_the_all_pairs_loop(grid, field):
    spec = GroupSpec.cyclic(3)
    lay = _blocks(spec, grid.ndim)
    J = len(_multi_indices(grid.ndim, 2))
    G = int(np.prod(grid.shape))
    rng = np.random.default_rng(17 + J)

    def draw(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if field is complex else x

    # degree 1 times degree 2, 2 x 3 entries times 3 x 2 ones, on the
    # grid; then a grid-constant side, padded to the jets of the other
    a = draw((3, 3, 2, 3, J, G))
    b = draw((3, 3, 3, 3, 2, J, G))
    for x, y in ((a, b), (a, b[..., :1, :1]), (a[..., :1, :1], b)):
        got = _jet_outer(x, y, grid.ndim, lay.solve)
        want = _all_pairs_outer(spec, x, y, grid.ndim)
        assert got.shape == want.shape == (3, 3, 3, 3, 2, 2, J, G)
        assert got.dtype == want.dtype == np.dtype(field)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_dense_pairing_is_the_masked_tensordot_bit_for_bit():
    from ncindex.chern import chern_even
    from ncindex.cyclic import (GroupCocycle, closed_cocycle_basis,
                                pair_cochain_form, random_closed_cocycle,
                                tau_to_c)
    from ncindex.testing import random_projection_matrix

    rng = np.random.default_rng(18)
    ch5, cochains = _z5_character()
    z7 = GroupSpec.cyclic(7)
    P = MixedForm.zero(CircleGrid(4), z7, 2, kalg=6)
    P.add_term(ScalarForm.one(CircleGrid(4)), (random_projection_matrix(
        z7, 2, rng, rank_choices=(1, 2)),))
    ch7 = chern_even(P, 2)
    function_cochain = tau_to_c(GroupCocycle(
        GroupSpec.cyclic(5), 1, lambda a, b: complex((b - a) % 5)))
    cases = [(ch5, phi) for phi in cochains + [function_cochain]]
    cases += [(ch7, random_closed_cocycle(z7, d, rng,
                                          closed_cocycle_basis(z7, d)))
              for d in (2, 4)]
    paired = 0
    for ch, phi in cases:
        traced = ch.graded_trace()
        lay = traced.layout
        for (q, _axes), block in traced.terms.items():
            if q != phi.degree:
                continue
            live = block.any(axis=(-4, -3, -2, -1))
            want = np.tensordot(phi.values(live), block[live], 1)
            got = lay.pair(block, phi.values)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            paired += 1
        assert pair_cochain_form(phi, ch).terms
    assert paired >= len(cases)


def test_a_z3_curvature_product_runs_no_einsum_and_no_moveaxis(monkeypatch):
    P = random_projection_form(GRID, SPEC, 2, np.random.default_rng(19))
    dP = P.dtot()
    calls = []
    for name in ("einsum", "moveaxis"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _n=name, _f=real, **kw: (
            calls.append(_n) or _f(*a, **kw)))
    curvature = dP @ dP
    monkeypatch.undo()
    assert curvature.terms
    assert calls == []


# -- the field of the inputs decides the dtype ------------------------------

REAL, COMPLEX = np.dtype(float), np.dtype(complex)


def _dtypes(form):
    return {arrays.dtype for *_, arrays in form.stacks()}


def test_jets_keep_the_field_of_their_values():
    x = GRID.points
    assert JetFunction.constant(GRID, 1.0).stack.dtype == REAL
    assert JetFunction.constant(GRID, 2).stack.dtype == REAL
    assert JetFunction.constant(GRID, 1j).stack.dtype == COMPLEX
    real = JetFunction.from_arrays(GRID, {(0,): 1 + x, (1,): np.ones_like(x)})
    assert real.stack.dtype == REAL
    assert (real * real).stack.dtype == REAL
    assert real.rsqrt().stack.dtype == REAL
    wave = random_trig_jet(GRID, np.random.default_rng(12))
    assert wave.stack.dtype == COMPLEX
    assert (real * wave).stack.dtype == COMPLEX


def test_complex_data_makes_complex_forms():
    from ncindex.chern import bott_projector

    P = random_projection_form(GRID, SPEC, 2, np.random.default_rng(13))
    for form in (P, P.dtot(), bott_projector(ChartGrid2D(8))):
        assert form.terms and _dtypes(form) == {COMPLEX}


def _real_part(form):
    out = form._spawn()
    out.add_entries((tup, axes, x.real) for tup, axes, x in form.entries())
    return out


@pytest.mark.parametrize("spec", [SPEC, GroupSpec.lattice(1)],
                         ids=["Z3", "Z"])
def test_real_and_complex_forms_combine_into_complex_forms(spec):
    grid = CircleGrid(8)
    rng = np.random.default_rng(14)
    r = _real_part(random_mixed_form(grid, spec, 2, 0, 1, rng, kalg=6))
    c = random_mixed_form(grid, spec, 2, 0, 1, rng, kalg=6)
    assert _dtypes(r) == {REAL} and _dtypes(r.dtot()) == {REAL}
    # the same entries in complex arrays: no imaginary part may be lost
    rc = r.scale(1 + 0j)
    assert _dtypes(rc) == {COMPLEX}
    for got, want in ((r + c, rc + c), (c + r, c + rc), (r @ c, rc @ c),
                      (c @ r, c @ rc), (r.dtot() @ c, rc.dtot() @ c)):
        assert got.terms and _dtypes(got) == {COMPLEX}
        assert (got - want).max_abs() <= 1e-14


def _check_traced_product(a, b):
    """a.traced_product(b) is (a @ b).graded_trace(): the same keys, the
    same drop flag and entries within 1e-14 of its largest."""
    ref = (a @ b).graded_trace()
    got = a.traced_product(b)
    assert got.size == 1 and ref.terms
    assert list(got.terms) == list(ref.terms)
    assert got.dropped == ref.dropped
    assert (got - ref).max_abs() <= 1e-14 * ref.max_abs()
    return got


@pytest.mark.parametrize("k", [3, 5])
def test_traced_product_is_the_trace_of_the_product(k):
    spec = GroupSpec.cyclic(k)
    rng = np.random.default_rng(40 + k)
    a = random_mixed_form(GRID, spec, 2, 0, 1, rng, kalg=6)
    b = random_mixed_form(GRID, spec, 2, 1, 2, rng, kalg=6)
    for x, y in ((a, b), (b, a), (a, a.dtot()), (a.dtot(), b)):
        _check_traced_product(x, y)
    P = random_projection_form(GRID, spec, 2, rng)
    dP = P.dtot()
    _check_traced_product(P, dP @ dP)


def test_traced_product_over_a_lattice_cover_stays_real():
    from ncindex.covering import CoverData, build_mf_projection

    cover = CoverData.standard(CircleGrid(64))
    P = build_mf_projection(cover).form
    assert not cover.deck_spec.is_finite
    dP = P.dtot()
    got = _check_traced_product(P, dP @ dP)
    assert _dtypes(got) == {REAL}


def test_traced_product_of_the_bott_projector():
    from ncindex.chern import bott_projector

    P = bott_projector(ChartGrid2D(12))
    dP = P.dtot()
    _check_traced_product(P, dP @ dP)
    _check_traced_product(dP, P @ dP)


def test_traced_product_of_a_unitary_reads_every_jet():
    from ncindex.testing import random_unitary_form

    u = random_unitary_form(GRID, SPEC, 3, np.random.default_rng(41),
                            kalg=4)
    us, du = u.star(), u.dtot()
    # not Hermitian, and with nonzero jets of every order
    assert (us - u).max_abs() > 0.1
    assert all(x[..., 1:, :].any() for *_, x in u.entries())
    _check_traced_product(us, du)
    _check_traced_product(us.dtot(), du)
    _check_traced_product(us @ du, us.dtot() @ du)


def test_traced_product_drops_past_the_cutoff():
    rng = np.random.default_rng(42)
    a = (random_mixed_form(GRID, SPEC, 2, 0, 1, rng, kalg=3)
         + random_mixed_form(GRID, SPEC, 2, 0, 2, rng, kalg=3))
    b = random_mixed_form(GRID, SPEC, 2, 1, 2, rng, kalg=3)
    got = _check_traced_product(a, b)
    assert got.dropped and got.components() == [(1, 3)]
