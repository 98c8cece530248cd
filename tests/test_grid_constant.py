"""Grid-constant coefficients stored as their value jet at one grid point.

`ScalarForm.one` and `MixedForm.one` hold their value jet at one grid
point, and every block operation broadcasts that point over the grid and
pads the missing jets with zeros where it meets an entry of more jets.
Each form here is built twice, from the one-point constants and from
full-grid constant jets, and every operation must give the same form on
the jets the one-point build holds, the reference's other jets being
exactly zero; the read boundary (`stacks`, `entries`, `comps`,
`component`, `integrate`) shows grid-shaped arrays either way.
"""

import math

import numpy as np
import pytest

from ncindex import nc_forms
from ncindex.chern import (chern_even, chern_odd, projection_residual,
                           unitary_residual)
from ncindex.cyclic import pair_cochain_form, tau_to_c
from ncindex.group_algebra import GAMatrix, GroupSpec
from ncindex.nc_forms import (ChartGrid2D, CircleGrid, JetFunction,
                              MixedForm, ScalarForm)
from ncindex.testing import (random_alternating_cocycle, random_gamatrix,
                             random_normalized_cochain,
                             random_projection_matrix)

TOL = 1e-14
SPECS = [GroupSpec.cyclic(3), GroupSpec.cyclic(7), GroupSpec.lattice(1)]
GRIDS = [CircleGrid(4), ChartGrid2D(3)]
SPEC_IDS = ["Z3", "Z7", "Z"]
GRID_IDS = ["circle4", "chart3"]


def _projection_matrix(spec, rng):
    if spec.is_finite:
        return random_projection_matrix(spec, 2, rng, rank_choices=(1, 2))
    # v v* for the unit column v = (1, z) / sqrt 2 over C[Z]
    z, zi = (1,), (-1,)
    return GAMatrix(spec, 2, {spec.identity(): 0.5 * np.eye(2),
                              zi: [[0, 0.5], [0, 0]],
                              z: [[0, 0], [0.5, 0]]})


def _cochains(spec, rng):
    """Cochains with nonzero pairings (closed cocycles pair to zero with
    the characters of constant projections): over Z/k in the degrees 2
    and 4 of the bridge, over Z in the degrees 1 and 2, as a lattice
    cochain draws a table of 49^degree values."""
    if spec.is_finite:
        return [random_normalized_cochain(spec, d, rng) for d in (2, 4)]
    return [tau_to_c(random_alternating_cocycle(spec, d, rng))
            for d in (1, 2)]


def _varying_form(grid, spec, rng):
    """A grid-varying form of algebra degree 1 in manifold degrees 0, 1."""
    J = math.comb(2 + grid.ndim, grid.ndim)
    comps = {axes: JetFunction.from_stack(
        grid, rng.standard_normal((J,) + grid.shape)) for axes in [(), (0,)]}
    out = MixedForm.zero(grid, spec, 2, kalg=6)
    out.add_term(ScalarForm(grid, comps),
                 tuple(random_gamatrix(spec, 2, rng) for _ in range(2)))
    return out


def _forms(grid, spec, one, seed=0):
    """P, u = 1 - 2P, the unit and a grid-varying W, with P, u and the
    unit built on the scalar constant `one`."""
    rng = np.random.default_rng(seed)
    p = _projection_matrix(spec, rng)
    ident = GAMatrix.identity(spec, 2)
    P = MixedForm.zero(grid, spec, 2, kalg=6)
    P.add_term(one, (p,))
    u = MixedForm.zero(grid, spec, 2, kalg=6)
    u.add_term(one, (ident,))
    u.add_term(one.scale(-2.0), (p,))
    unit = MixedForm.zero(grid, spec, 2, kalg=6)
    unit.add_term(one, (ident,))
    return P, u, unit, _varying_form(grid, spec, rng)


def _both(grid, spec):
    return (_forms(grid, spec, ScalarForm.one(grid)),
            _forms(grid, spec, ScalarForm.function(
                JetFunction.constant(grid, 1.0))))


def _entries(form):
    return {(tup, axes): x for tup, axes, x in form.entries()}


def _assert_agree(got, want):
    """The same form, entry by entry on the grid, within TOL of the
    largest entry; an entry one side lacks is zero.  Where both hold an
    entry, they agree on the jets of got's (a one-point entry holds its
    value jet alone), and want's other jets are exactly zero."""
    a, b = _entries(got), _entries(want)
    scale = max((np.max(np.abs(x)) for x in b.values()), default=0.0)
    for key in a.keys() | b.keys():
        x = a.get(key, 0.0)
        y = b.get(key, 0.0)
        if key in a and key in b:
            J = x.shape[2]
            assert not y[:, :, J:].any(), key
            y = y[:, :, :J]
        assert np.max(np.abs(x - y)) <= TOL * scale, key


def _pairings(phis, forms):
    return [pair_cochain_form(phi, form) for phi in phis for form in forms
            if any(q == phi.degree for q, _axes in form.terms)]


def _constant_operations(P, u, phis):
    """The operations that read only the constants P and u."""
    dP = P.dtot()
    ch = chern_even(P, 2)
    return [P @ P, dP.traced_product(dP), P.dtot(), P.graded_trace(), ch,
            chern_odd(u, 1), *_pairings(phis, [ch])]


def _operations(P, u, unit, W, phis):
    dP = P.dtot()
    # a sum of a constant and a varying block, which a tuple block holds
    # as entries of both kinds
    S = dP + W
    return _constant_operations(P, u, phis) + [
        P @ W, W @ P, unit @ W, W @ unit, dP @ W, W @ dP,
        P.traced_product(W), W.traced_product(P), (P @ W).dtot(),
        (W @ P).graded_trace(), S, W + dP, S @ W, S @ S, S.dtot(),
        S.traced_product(W), *_pairings(phis, [P @ W, dP @ W, S @ W])]


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_one_point_constants_match_full_grid_constants(spec, grid):
    (Pc, uc, onec, Wc), (Pf, uf, onef, Wf) = _both(grid, spec)
    phis = _cochains(spec, np.random.default_rng(1))
    # the unit: `MixedForm.one` is the one-point build
    _assert_agree(MixedForm.one(grid, spec, 2, kalg=6), onef)
    got = _operations(Pc, uc, onec, Wc, phis)
    want = _operations(Pf, uf, onef, Wf, phis)
    assert all(form.terms for form in want)
    for g, w in zip(got, want):
        _assert_agree(g, w)
    assert abs(projection_residual(Pc) - projection_residual(Pf)) <= TOL
    assert abs(unitary_residual(uc) - unitary_residual(uf)) <= TOL


def _jets_and_points(form):
    """The (jet, grid) lengths of the block arrays: a dense block, or the
    part of each entry of a tuple block."""
    arrays = (a for block in form.terms.values()
              for a in ([x.part for x in block.values()]
                        if isinstance(block, dict) else [block]))
    return {a.shape[-2:] for a in arrays}


def _grid_lengths(form):
    return {G for _J, G in _jets_and_points(form)}


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_constants_hold_their_value_jet_at_one_grid_point(spec, grid):
    (P, u, one, W), _ = _both(grid, spec)
    phis = _cochains(spec, np.random.default_rng(1))
    assert _jets_and_points(MixedForm.one(grid, spec, 2)) == {(1, 1)}
    assert _jets_and_points(ScalarForm.one(grid)) == {(1, 1)}
    for form in _constant_operations(P, u, phis):
        assert form.terms and _jets_and_points(form) == {(1, 1)}
    # in every result, a block or entry with one grid point has one jet
    for form in _operations(P, u, one, W, phis):
        assert all(J == 1 for J, G in _jets_and_points(form) if G == 1)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_constant_operations_read_no_jet_layout_above_order_0(spec, grid,
                                                              monkeypatch):
    """Every product, sum and pairing of constants runs at one jet: no
    Leibniz table of a higher order is looked up."""
    (P, u, *_), (full, *_) = _both(grid, spec)
    phis = _cochains(spec, np.random.default_rng(1))
    orders = []
    layout = nc_forms._jet_layout
    monkeypatch.setattr(nc_forms, "_jet_layout", lambda ndim, order: (
        orders.append(order), layout(ndim, order))[1])
    assert _constant_operations(P, u, phis)
    assert set(orders) <= {0}
    # the full-grid constants carry second-order jets through the product
    full @ full
    assert max(orders) == 2


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_products_with_a_constant_keep_the_jets_of_the_other(spec, grid):
    (P, _u, one, W), _ = _both(grid, spec)
    jets = {(math.comb(2 + grid.ndim, grid.ndim), math.prod(grid.shape))}
    assert _jets_and_points(W) == jets
    for form in (P @ W, W @ P, one @ W, W @ one):
        assert form.terms and _jets_and_points(form) == jets


@pytest.mark.parametrize("n", [1, 0, -3])
def test_grids_need_two_points_per_axis(n):
    for grid in (CircleGrid, ChartGrid2D):
        with pytest.raises(ValueError, match="at least 2 points"):
            grid(n)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_constant_blocks_keep_one_grid_point_and_read_on_the_grid(spec,
                                                                 grid):
    (Pc, *_), (Pf, *_) = _both(grid, spec)
    assert _grid_lengths(MixedForm.one(grid, spec, 2)) == {1}
    assert _grid_lengths(ScalarForm.one(grid)) == {1}
    ch, ref = chern_even(Pc, 2), chern_even(Pf, 2)
    assert ch.terms and _grid_lengths(ch) == {1}
    assert _grid_lengths(ref) == {math.prod(grid.shape)}

    # the one-point build reads as the value jet of the reference, whose
    # other jets are zero
    stacks = {(q, axes): (tuples, x) for q, axes, tuples, x in ch.stacks()}
    for q, axes, tuples, x in ref.stacks():
        got_tuples, got = stacks.pop((q, axes))
        assert got_tuples == tuples
        assert got.shape == x[:, :, :, :1].shape
        assert x.shape[-grid.ndim:] == grid.shape
        assert not x[:, :, :, 1:].any()
        assert np.max(np.abs(got - x[:, :, :, :1])) \
            <= TOL * np.max(np.abs(x))
    assert not stacks
    entries = _entries(ch)
    for key, x in _entries(ref).items():
        assert entries[key].shape == x[:, :, :1].shape

    [phi] = [c for c in _cochains(spec, np.random.default_rng(2))
             if c.degree == 2]
    for got, want in ((ch.scalar_part(), ref.scalar_part()),
                      (pair_cochain_form(phi, ch),
                       pair_cochain_form(phi, ref))):
        assert set(got.comps) == set(want.comps) == {()}
        jet, ref_jet = got.comps[()], want.comps[()]
        assert jet.order == 0 and jet.stack.shape == (1,) + grid.shape
        assert ref_jet.stack.shape[1:] == grid.shape
        assert not ref_jet.stack[1:].any()
        value = got.component(())
        assert value.shape == grid.shape
        assert np.max(np.abs(value - want.component(()))) <= TOL
        assert got.integrate() == want.integrate() == 0
    # the scalar part and the pairing of a one-point character are
    # themselves one-point forms, whose differential is zero
    for form in (ch.scalar_part(), pair_cochain_form(phi, ch)):
        assert _jets_and_points(form) == {(1, 1)}
        assert not form.d().terms


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_integrate_reads_a_constant_top_degree_form(grid):
    top = tuple(range(grid.ndim))
    full = ScalarForm(grid, {top: JetFunction.constant(grid, 2.5 - 1j)})
    # an entry with one grid point is a grid-constant coefficient
    x = np.zeros((1, 1, math.comb(2 + grid.ndim, grid.ndim), 1), complex)
    x[:, :, 0] = 2.5 - 1j
    compact = ScalarForm(grid)
    compact.add_entries([(ScalarForm.E, top, x)])
    assert _jets_and_points(compact) == {(1, 1)}
    assert compact.component(top).shape == grid.shape
    assert compact.integrate() == full.integrate() == 2.5 - 1j


@pytest.mark.parametrize("spec", [GroupSpec.cyclic(3), GroupSpec.lattice(1)],
                         ids=["Z3", "Z"])
def test_entries_of_one_tuple_sum_across_grid_lengths(spec):
    """Two one-point entries and a full-grid one at the same tuple: the
    sum takes the grid, however the layout accumulates it, and a
    one-point entry adds its value jet alone."""
    grid = CircleGrid(4)
    rng = np.random.default_rng(3)
    xs = [rng.standard_normal((2, 2, 3, G)) for G in (1, 1, 4)]
    form = MixedForm.zero(grid, spec, 2)
    form.add_entries(((spec.identity(),), (), x) for x in xs)
    [(_tup, _axes, got)] = list(form.entries())
    want = xs[2].copy()
    want[:, :, :1] += xs[0][:, :, :1] + xs[1][:, :, :1]
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= TOL * np.max(np.abs(want))


@pytest.mark.parametrize("spec", [GroupSpec.cyclic(3), GroupSpec.lattice(1)],
                         ids=["Z3", "Z"])
def test_a_block_of_constant_and_varying_entries(spec):
    """A constant entry beside a varying one in one block (a tuple block
    keeps both kinds) acts as its full-grid jets with zero derivatives."""
    grid = CircleGrid(4)
    rng = np.random.default_rng(4)
    c = rng.standard_normal((2, 2, 1, 1))
    v = rng.standard_normal((2, 2, 3, 4))
    e, g = spec.identity(), spec.elements()[1] if spec.is_finite else (1,)
    full_c = np.zeros((2, 2, 3, 4))
    full_c[:, :, :1] = c
    forms = []
    for x in (c, full_c):
        form = MixedForm.zero(grid, spec, 2, kalg=3)
        form.add_entries([((e,), (), x), ((g,), (), v)])
        forms.append(form)
    one, full = forms
    assert _jets_and_points(one) == ({(1, 1), (3, 4)} if not spec.is_finite
                                     else {(3, 4)})
    for op in (lambda f: f, lambda f: f @ f, lambda f: f.dtot(),
               lambda f: f.dtot() @ f, lambda f: f.traced_product(f),
               lambda f: f + f.scale(2.0), lambda f: f.graded_trace()):
        _assert_agree(op(one), op(full))
