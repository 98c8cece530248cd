"""Matrices of jets as (n, n, J, G) arrays, checked against per-entry
oracles: the JetFunction lists that the random forms and the flat
projection of a cover were once built from, and the second-order
formula for s^{-1/2}."""

import itertools

import numpy as np
import pytest

from ncindex import nc_forms
from ncindex.chern import chern_even
from ncindex.covering import (CoverData, build_mf_projection,
                              verify_prop_chern, winding_cocycle)
from ncindex.group_algebra import GAMatrix, GroupSpec
from ncindex.nc_forms import (ChartGrid2D, CircleGrid, JetFunction,
                              MixedForm, ScalarForm, _blocks, _jet_layout,
                              _jet_mul, _jet_order, _Sub)
from ncindex.testing import (_real_trig, random_projection_form,
                             random_unitary_form)

GRID = CircleGrid(16)


# ---------------------------------------------------------------------
# per-entry oracles
# ---------------------------------------------------------------------


def _rsqrt_oracle(s):
    """Jets of s^{-1/2} to order 2 from the closed-form derivatives."""
    ndim = s.grid.ndim
    lay = _jet_layout(ndim, s.order)
    v = s.stack[0]
    out = np.zeros_like(s.stack)
    out[0] = v ** -0.5

    def unit(ax):
        return lay.position[tuple(int(i == ax) for i in range(ndim))]

    if s.order >= 1:
        for ax in range(ndim):
            out[unit(ax)] = -0.5 * s.stack[unit(ax)] * v ** -1.5
    if s.order >= 2:
        for alpha in lay.indices:
            if sum(alpha) != 2:
                continue
            # d2(s^-1/2) = (3/4) s_a s_b s^-5/2 - (1/2) s_ab s^-3/2
            nz = [i for i, a in enumerate(alpha) if a]
            sa = s.stack[unit(nz[0])]
            sb = s.stack[unit(nz[-1])]
            out[lay.position[alpha]] = (
                0.75 * sa * sb * v ** -2.5
                - 0.5 * s.stack[lay.position[alpha]] * v ** -1.5)
    return out


def _sector_rotation_jets(grid, rng, n, order=2):
    """Entries of exp(i t(x) h) for one random hermitian h, as jets."""
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (h + h.conj().T)
    lam, vec = np.linalg.eigh(h)
    t, t1, t2 = _real_trig(grid, rng)
    entries = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            val = np.zeros(grid.shape, dtype=complex)
            d1 = np.zeros(grid.shape, dtype=complex)
            d2 = np.zeros(grid.shape, dtype=complex)
            for k in range(n):
                c = vec[a, k] * np.conj(vec[b, k])
                ph = np.exp(1j * lam[k] * t)
                val += c * ph
                d1 += c * 1j * lam[k] * t1 * ph
                d2 += c * (1j * lam[k] * t2
                           - lam[k] ** 2 * t1 ** 2) * ph
            arrays = {(0,): val, (1,): d1}
            if order >= 2:
                arrays[(2,)] = d2
            entries[a][b] = JetFunction.from_arrays(grid, arrays)
    return entries


def _jets_matmul(A, B, conj_b=False):
    n = len(A)
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            acc = None
            for k in range(n):
                rhs = B[b][k].conj() if conj_b else B[k][b]
                term = A[a][k] * rhs
                acc = term if acc is None else acc + term
            out[a][b] = acc
    return out


def _const_jets(grid, mat, order=2):
    n = mat.shape[0]
    return [[JetFunction.constant(grid, mat[a][b], order)
             for b in range(n)] for a in range(n)]


def _assemble_from_sector_jets(grid, spec, sector_entries, n, kalg):
    """Recombine per-character jet matrices into a mixed form over
    the cyclic group algebra, one add_term per entry."""
    k = spec.order
    out = MixedForm.zero(grid, spec, n, kalg)
    for m in range(k):
        for a in range(n):
            for b in range(n):
                acc = None
                for j in range(k):
                    w = np.exp(-2j * np.pi * j * m / k) / k
                    term = sector_entries[j][a][b].scale(w)
                    acc = term if acc is None else acc + term
                if acc is None or acc.is_zero():
                    continue
                out.add_term(ScalarForm.function(acc),
                             (GAMatrix.single(spec, n, a, b, m),))
    return out


def _projection_form_oracle(grid, spec, n, rng, kalg=5, order=2):
    sectors = []
    for _ in range(spec.order):
        u = _sector_rotation_jets(grid, rng, n, order)
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        _, v = np.linalg.eigh(h + h.conj().T)
        p0 = v[:, :1] @ v[:, :1].conj().T
        up = _jets_matmul(u, _const_jets(grid, p0, order))
        sectors.append(_jets_matmul(up, u, conj_b=True))
    return _assemble_from_sector_jets(grid, spec, sectors, n, kalg)


def _unitary_form_oracle(grid, spec, n, rng, kalg=5, order=2):
    sectors = [_sector_rotation_jets(grid, rng, n, order)
               for _ in range(spec.order)]
    return _assemble_from_sector_jets(grid, spec, sectors, n, kalg)


def _mf_projection_oracle(cover, kalg=4):
    """P = (chi_i chi_j g_ij), one add_term per matrix entry."""
    spec, n = cover.deck_spec, cover.n_arcs
    form = MixedForm.zero(cover.grid, spec, n, kalg)
    for i in range(n):
        for j in range(n):
            jet = cover.chi[i] * cover.chi[j]
            mat = GAMatrix.single(spec, n, i, j, cover.deck_element(i, j))
            form.add_term(ScalarForm.function(jet), (mat,))
    return form


def _entry_map(form):
    return {(tup, axes): x for tup, axes, x in form.entries()}


def _assert_same_entries(got, want, rel=1e-12):
    eg, ew = _entry_map(got), _entry_map(want)
    assert set(eg) == set(ew)
    scale = max(np.max(np.abs(x)) for x in ew.values())
    worst = max(np.max(np.abs(eg[key] - ew[key])) for key in ew)
    assert worst <= rel * scale


def _random_positive_jet(grid, order, rng):
    lay = _jet_layout(grid.ndim, order)
    stack = rng.standard_normal((len(lay.indices),) + grid.shape)
    stack[0] = 0.5 + rng.random(grid.shape)
    return JetFunction(grid, order, stack.astype(complex))


# ---------------------------------------------------------------------
# rsqrt
# ---------------------------------------------------------------------


@pytest.mark.parametrize("grid", [CircleGrid(16), ChartGrid2D(6)],
                         ids=["circle", "chart"])
@pytest.mark.parametrize("order", [1, 2])
def test_rsqrt_matches_closed_form(grid, order):
    rng = np.random.default_rng(order)
    for _ in range(3):
        s = _random_positive_jet(grid, order, rng)
        got, want = s.rsqrt().stack, _rsqrt_oracle(s)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("grid", [CircleGrid(16), ChartGrid2D(6)],
                         ids=["circle", "chart"])
def test_rsqrt_squares_to_inverse_at_order_3(grid):
    s = _random_positive_jet(grid, 3, np.random.default_rng(7))
    y = s.rsqrt()
    assert y.order == 3
    one = JetFunction.constant(grid, 1.0, order=3).stack
    assert np.max(np.abs((s * y * y).stack - one)) <= 1e-12


def test_rsqrt_at_order_1_is_the_analytic_first_jet():
    # the order of a cover's jets: one Newton step from (s^-1/2, 0)
    grid = CircleGrid(64)
    x = grid.points
    s = JetFunction.from_arrays(grid, {
        (0,): 1.5 + np.cos(2 * np.pi * x),
        (1,): -2 * np.pi * np.sin(2 * np.pi * x)})
    y = s.rsqrt()
    assert y.order == 1 and y.stack.dtype == np.float64
    v, v1 = s.stack
    for got, want in zip(y.stack, (v ** -0.5, -v1 / (2 * v ** 1.5))):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# ---------------------------------------------------------------------
# array builders against their per-entry oracles
# ---------------------------------------------------------------------


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("seed", range(4))
def test_random_forms_match_per_entry_builders(k, seed):
    spec = GroupSpec.cyclic(k)
    for build, oracle in ((random_projection_form, _projection_form_oracle),
                          (random_unitary_form, _unitary_form_oracle)):
        got = build(GRID, spec, 2, np.random.default_rng(seed), kalg=4)
        want = oracle(GRID, spec, 2, np.random.default_rng(seed), kalg=4)
        assert got.kalg == want.kalg == 4
        _assert_same_entries(got, want)


@pytest.mark.parametrize("kw", [dict(n_arcs=4), dict(deck_order=3)],
                         ids=["lattice", "z3"])
def test_mf_projection_matches_per_entry_builder(kw):
    cover = CoverData.standard(CircleGrid(128), **kw)
    _assert_same_entries(build_mf_projection(cover).form,
                         _mf_projection_oracle(cover))


# ---------------------------------------------------------------------
# add_entries and the jet product
# ---------------------------------------------------------------------


def _forms():
    P = random_projection_form(GRID, GroupSpec.cyclic(3), 2,
                               np.random.default_rng(3))
    Q = build_mf_projection(CoverData.standard(CircleGrid(64))).form
    return (P, Q)


@pytest.mark.parametrize("which", [0, 1], ids=["dense-z3", "tuple-lattice"])
def test_add_entries_inverts_entries(which):
    P = _forms()[which]
    R = MixedForm.zero(P.grid, P.spec, P.size, P.kalg)
    R.add_entries(P.entries())
    assert not (R - P).terms
    assert not R.dropped


def test_add_entries_drops_above_kalg_and_zeros():
    spec = GroupSpec.cyclic(3)
    x = np.ones((2, 2, 3) + GRID.shape, dtype=complex)
    form = MixedForm.zero(GRID, spec, 2, kalg=1)
    form.add_entries([((0, 1, 2), (), x)])
    assert form.dropped and not form.terms
    form = MixedForm.zero(GRID, spec, 2, kalg=1)
    form.add_entries([((1,), (0,), np.zeros_like(x))])
    assert not form.dropped and not form.terms
    # a tuple with e in a slot >= 1 is zero in Omega C[Gamma]
    form.add_entries([((1, 0), (), x)])
    assert not form.terms
    form.add_entries([((1, 2), (), x)])
    assert [(t, a) for t, a, _ in form.entries()] == [((1, 2), ())]


@pytest.mark.parametrize("spec", [GroupSpec.cyclic(3), GroupSpec.lattice(1)],
                         ids=["dense-z3", "tuple-lattice"])
def test_add_entries_sums_repeated_tuples(spec):
    g = spec.elements()[1] if spec.is_finite else (1,)
    x = np.ones((1, 1, 3) + GRID.shape, dtype=complex)
    form = MixedForm.zero(GRID, spec, 1, kalg=2)
    form.add_entries([((g,), (), x), ((g,), (), x)])
    [(tup, _axes, y)] = list(form.entries())
    assert tup == (g,) and np.array_equal(y, 2 * x)


@pytest.mark.parametrize("spec", [GroupSpec.cyclic(3), GroupSpec.lattice(1)],
                         ids=["dense-z3", "tuple-lattice"])
def test_add_entries_takes_the_lowest_jet_order(spec):
    g, h = spec.elements()[1:3] if spec.is_finite else ((1,), (2,))
    rng = np.random.default_rng(6)
    x3 = rng.standard_normal((1, 1, 3) + GRID.shape) + 0j
    x2 = rng.standard_normal((1, 1, 2) + GRID.shape) + 0j
    form = MixedForm.zero(GRID, spec, 1, kalg=2)
    form.add_entries([((g,), (), x3), ((h,), (), x2)])
    # separate calls truncate to the lower order through `_add`
    ref = MixedForm.zero(GRID, spec, 1, kalg=2)
    ref.add_entries([((g,), (), x3)])
    ref.add_entries([((h,), (), x2)])
    got = sorted(form.entries(), key=lambda e: e[0])
    want = sorted(ref.entries(), key=lambda e: e[0])
    assert ([e[:2] for e in got] == [e[:2] for e in want]
            == [((g,), ()), ((h,), ())])
    for (_, _, y), (_, _, z) in zip(got, want):
        assert y.shape[2] == 2 and np.array_equal(y, z)
    assert np.array_equal(got[0][2], x3[:, :, :2])


@pytest.mark.parametrize("grid", [CircleGrid(8), ChartGrid2D(4)],
                         ids=["circle", "chart"])
def test_jet_mul_column_times_row(grid):
    rng = np.random.default_rng(5)
    J = len(_jet_layout(grid.ndim, 2).indices)
    G = int(np.prod(grid.shape))
    x = rng.standard_normal((3, 1, J, G)) + 1j * rng.standard_normal(
        (3, 1, J, G))
    y = rng.standard_normal((1, 4, J, G))
    out = _jet_mul(x, y, grid.ndim)
    assert out.shape == (3, 4, J, G)
    for a, b in itertools.product(range(3), range(4)):
        jet = (JetFunction.from_stack(grid, x[a, 0].reshape((J,) + grid.shape))
               * JetFunction.from_stack(grid,
                                        y[0, b].reshape((J,) + grid.shape)))
        assert np.array_equal(out[a, b], jet.stack.reshape(J, G))


# ---------------------------------------------------------------------
# the lattice-cover product: one einsum per Leibniz term, over live rows
# and columns only
# ---------------------------------------------------------------------


def _jet_mul_broadcast(x, y, ndim):
    """The product as a full (n, l, m, G) broadcast per Leibniz term,
    summed over l: the kernel `_jet_mul` replaced."""
    J = min(x.shape[-2], y.shape[-2])
    out = np.zeros((len(x), y.shape[1], J, x.shape[-1]),
                   dtype=np.result_type(x, y))
    for o, i, j, c in _jet_layout(ndim, _jet_order(ndim, J)).mul_table:
        out[:, :, o] += c * np.sum(x[:, :, None, i] * y[None, :, :, j], 1)
    return out


def _dense(block):
    """A tuple block as a dict of full (n, m, J, G) arrays."""
    return {t: x.full() for t, x in block.items()}


def _sum_by_tuple(pairs):
    """Full arrays summed per tuple, left to right."""
    out = {}
    for t, x in pairs:
        out[t] = out[t] + x if t in out else x
    return out


def _outer_all_pairs(lay, a, b, fuse=False):
    """`_TupleBlocks.outer` as it once was: every pair of entries, as
    full arrays, through the broadcast kernel; the result as whole
    entries."""
    out = _sum_by_tuple((s + t, _jet_mul_broadcast(x, y, lay.ndim))
                        for s, x in _dense(a).items()
                        for t, y in _dense(b).items())
    if fuse:
        i = len(next(iter(a))) - 1
        out = _sum_by_tuple(
            (t[:i] + (lay.mul(t[i], t[i + 1]),) + t[i + 2:], x)
            for t, x in out.items())
    return {t: _Sub.whole(x) for t, x in out.items()}


@pytest.mark.parametrize("field", [float, complex])
@pytest.mark.parametrize("ndim", [1, 2])
def test_jet_mul_matches_the_broadcast_kernel(ndim, field):
    """Real products are bitwise the broadcast ones.  A complex product
    may round differently, since numpy's complex multiply can fuse a
    multiply and an add where einsum does not: within 16 eps of the
    product of the magnitudes."""
    rng = np.random.default_rng(60 + ndim)
    eps = np.finfo(float).eps

    def draw(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if field is complex else x

    for (n, l, m), (ox, oy) in itertools.product(
            itertools.product(range(1, 5), repeat=3),
            itertools.product(range(3), repeat=2)):
        jx, jy = (len(_jet_layout(ndim, o).indices) for o in (ox, oy))
        x, y = draw((n, l, jx, 5)), draw((l, m, jy, 5))
        got = _jet_mul(x, y, ndim)
        want = _jet_mul_broadcast(x, y, ndim)
        assert got.shape == want.shape == (n, m, min(jx, jy), 5)
        assert got.dtype == want.dtype == np.dtype(field)
        if field is float:
            assert np.array_equal(got, want)
        else:
            size = _jet_mul_broadcast(np.abs(x), np.abs(y), ndim)
            assert np.all(np.abs(got - want) <= 16 * eps * size)


def _assert_same_block(got, want):
    """Entry by entry, as full arrays: every entry of got is bitwise the
    oracle's, and an oracle entry that got lacks is exactly zero."""
    got, want = _dense(got), _dense(want)
    assert set(got) <= set(want)
    for t, x in want.items():
        if t in got:
            assert got[t].dtype == x.dtype and np.array_equal(got[t], x)
        else:
            assert not x.any()


def _cover_blocks(n_arcs):
    cover = CoverData.standard(CircleGrid(128), n_arcs=n_arcs)
    P = build_mf_projection(cover).form
    dP = P.dtot()
    return P.layout, [b for form in (P, dP, dP @ dP)
                      for b in form.terms.values()]


def _as_row(x):
    return x.reshape(x.shape[:-4] + (1, -1) + x.shape[-2:])


def _as_column(y):
    y = y.swapaxes(-4, -3)
    return y.reshape(y.shape[:-4] + (-1, 1) + y.shape[-2:])


@pytest.mark.parametrize("n_arcs", [3, 4, 5, 6])
def test_outer_matches_all_pairs_on_covers(n_arcs):
    """Fused products of the blocks of P, dP and dP dP of a cover, whole
    and traced as `MixedForm.traced_product` views them: the rows and
    columns of `_TupleBlocks.flat` against full arrays reshaped."""
    lay, blocks = _cover_blocks(n_arcs)
    zero_pairs = 0
    for a, b in itertools.product(blocks, repeat=2):
        _assert_same_block(lay.outer(a, b), _outer_all_pairs(lay, a, b, True))
        zero_pairs += sum(not x.part.any()
                          for x in _outer_all_pairs(lay, a, b).values())
        rows = {t: _Sub.whole(_as_row(x)) for t, x in _dense(a).items()}
        cols = {t: _Sub.whole(_as_column(y)) for t, y in _dense(b).items()}
        flat_a, flat_b = lay.flat(a, False), lay.flat(b, True)
        _assert_same_block(rows, flat_a)
        _assert_same_block(cols, flat_b)
        _assert_same_block(lay.outer(flat_a, flat_b),
                           _outer_all_pairs(lay, rows, cols, True))
    assert zero_pairs > 0


@pytest.mark.parametrize("n_arcs", [3, 4, 5, 6])
def test_trace_and_sums_match_full_arrays_on_covers(n_arcs):
    """The trace of every block entry is np.trace of its full array, and
    a sum of two blocks the sum of their full arrays, bitwise."""
    lay, blocks = _cover_blocks(n_arcs)
    for a in blocks:
        want = {t: np.trace(x, axis1=0, axis2=1)[None, None]
                for t, x in _dense(a).items()}
        got = _dense(lay.trace(a))
        assert set(got) <= set(want)
        for t, x in want.items():
            assert np.array_equal(got[t], x) if t in got else not x.any()
    for a, b in itertools.product(blocks, repeat=2):
        entries = [*_dense(a).items(), *_dense(b).items()]
        J = min(x.shape[2] for _, x in entries)
        want = _sum_by_tuple((t, x[:, :, :J]) for t, x in entries)
        _assert_same_block(lay.add(a, b),
                           {t: _Sub.whole(x) for t, x in want.items()})


@pytest.mark.parametrize("n_arcs", [3, 4, 5, 6])
def test_cover_character_matches_all_pair_products(monkeypatch, n_arcs):
    cover = CoverData.standard(CircleGrid(128), n_arcs=n_arcs)
    mf = build_mf_projection(cover)
    got = chern_even(mf, 1)
    monkeypatch.setattr(nc_forms._TupleBlocks, "outer",
                        lambda lay, a, b: _outer_all_pairs(lay, a, b, True))
    want = chern_even(mf, 1)
    assert list(got.terms) == list(want.terms)
    for key, block in want.terms.items():
        _assert_same_block(got.terms[key], block)
        assert set(got.terms[key]) == set(block)


def test_pair_with_an_exactly_zero_product_gives_no_entry():
    lay = _blocks(GroupSpec.lattice(1), 1)
    rng = np.random.default_rng(61)
    x = np.zeros((3, 3, 2, 8))
    y = np.zeros((3, 3, 2, 8))
    x[0, 1] = rng.standard_normal((2, 8))   # column 1 of x is live
    y[2] = rng.standard_normal((3, 2, 8))   # only row 2 of y is live
    a = lay.prune(lay.block([(((0,),), x)], 0))
    b = lay.prune(lay.block([(((1,),), y)], 0))
    assert (a[((0,),)].rows, a[((0,),)].cols) == ((0,), (1,))
    assert (b[((1,),)].rows, b[((1,),)].cols) == ((2,), (0, 1, 2))
    assert lay.outer(a, b) == {}
    assert list(_outer_all_pairs(lay, a, b)) == [((0,), (1,))]
    # an empty block passes through the block operations
    c = lay.block([(((2,),), y)], 0)
    for got in (lay.add(lay.outer(a, b), c), lay.add(c, {})):
        assert list(got) == list(c) and np.array_equal(_dense(got)[((2,),)],
                                                       y)
    assert lay.add({}, {}) == {} and lay.merge({}, 0) == {}
    assert lay.kill({}) == {} and lay.apply({}, np.negative) == {}
    assert lay.trace({}) == {} and lay.flat({}, False) == {}
    assert lay.prune({}) is None


def test_fused_product_with_an_empty_block_is_empty():
    lay = _blocks(GroupSpec.lattice(1), 1)
    x = np.random.default_rng(63).standard_normal((2, 2, 2, 8))
    for q in (0, 1, 2):
        b = lay.block([(((1,),) * (q + 1), x)], q)
        assert lay.outer({}, b) == {} and lay.outer(b, {}) == {}
    assert lay.outer({}, {}) == {}
    # a's last slot 2 and b's first slot 3 fuse to the slot 5
    a = lay.block([(((1,), (2,)), x)], 1)
    assert list(lay.outer(a, lay.block([(((3,),), x)], 0))) == [((1,), (5,))]


def test_standard_cover_makes_one_untrimmed_pair_product(monkeypatch):
    """Of the pair products of one 3-arc `verify_prop_chern`, only P_e P_e
    in the idempotence check has every row, inner index and column
    live; every other one is trimmed or skipped."""
    full = []
    sub_mul = nc_forms._sub_mul

    def counted(x, y, ndim):
        full.append(x.is_whole() and y.is_whole())
        return sub_mul(x, y, ndim)

    monkeypatch.setattr(nc_forms, "_sub_mul", counted)
    cover = CoverData.standard(CircleGrid(256))
    assert verify_prop_chern(cover, winding_cocycle(cover.deck_spec))[
        "passed"]
    assert sum(full) == 1 and len(full) > 1


def test_collect_writes_into_no_input():
    lay = _blocks(GroupSpec.lattice(1), 1)
    rng = np.random.default_rng(62)
    xs = [rng.standard_normal((2, 2, 2, 4)) for _ in range(3)]
    xs.append(1j * rng.standard_normal((2, 2, 2, 4)))
    copies = [x.copy() for x in xs]
    t = ((0,),)
    got = lay._collect((t, _Sub.whole(x)) for x in xs)
    assert np.array_equal(got[t].full(), ((xs[0] + xs[1]) + xs[2]) + xs[3])
    assert all(np.array_equal(x, c) for x, c in zip(xs, copies))
    assert all(got[t].part is not x for x in xs)
    # submatrices on different rows and columns sum into their union
    subs = [_Sub((3, 3), (0, 2), (1,), xs[0][:, :1]),
            _Sub((3, 3), (1,), (0, 1), xs[1][:1]),
            _Sub((3, 3), (0, 1), (0, 1), xs[2])]
    got = lay._collect((t, x) for x in subs)[t]
    assert (got.rows, got.cols) == ((0, 1, 2), (0, 1))
    assert np.array_equal(got.full(), (subs[0].full() + subs[1].full())
                          + subs[2].full())
    assert all(np.array_equal(x, c) for x, c in zip(xs, copies))
