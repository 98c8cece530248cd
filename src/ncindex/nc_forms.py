"""Noncommutative differential forms with values in M_n(Omega C[Gamma]).

A mixed form on a grid is stored by component: for each algebra degree q
and increasing tuple of grid axes, a block of entries keyed by exact group
tuples (g_0, ..., g_q).  The entry at a tuple is the (n, n) matrix of jets
of the coefficient of g_0 dg_1 ... dg_q dx_axes.  As d e = 0, the tuples
with g_i != e for i >= 1 are a basis of Omega^q C[Gamma], so equal forms
have equal entries.  An entry is an (n, n, J, G) array over the G grid
points; a coefficient that is constant on the grid has G = 1 and J = 1,
its value jet, as its derivatives are zero (a grid has at least two
points, so one point always means constant).  `ScalarForm.one` and
`MixedForm.one` store the constant 1 so.  Every block operation
broadcasts a length-1 grid axis and pads a constant's jets with zeros
where it meets an entry of J jets, so the character of a projection that
is constant on the manifold is formed at one grid point and one jet.
What a caller reads (`stacks`, `entries` and the scalar views built on
them) is broadcast to the grid, a constant as an order-0 jet.

Words over B = M_n(C Gamma) enter through the map

    phi(m_0 dm_1 ... dm_q)[i, j]
        = sum over i_1..i_q of m_0[i, i_1] dm_1[i_1, i_2] ... dm_q[i_q, j]

of differential graded algebras Omega(M_n B) -> M_n(Omega B), which
contracts the interior matrix indices.  So the characters are Karoubi's
tr P (dP)^{2k} in M_n(Omega B).  The total differential of a term of
manifold degree p is d_tot(s x w) = (d_M s) x w + (-1)^p s x dw, where d
prepends e to the tuple.  The graded product multiplies entry matrices,
merges adjacent group entries by the group law and crosses factors with
the Koszul sign (-1)^{q p'}.  A scalar grid form (`ScalarForm`) is the
1 x 1 mixed form over the trivial group in algebra degree 0, so both
kinds of form share one storage layout, sum and differential.

Over a finite group a block is one dense array with a leading axis of
length k per slot: merges are index maps, and a product is one BLAS
product per grid point that also sums the slot the group law fuses,
after one GEMM that expands the left factor's jets against the Leibniz
table.  A block pairs with cochain values as a (tuples, entry) matrix:
its live rows, picked by a flat mask, times the values in one matvec.
Over an infinite group (the lattice deck groups of covers) it is a dict
keyed by tuple whose entries are held as their live submatrices (`_Sub`),
and a product takes one pair of entries at a time along the grid, over
their rows and columns only: a dense window of the lattice would be
mostly zeros (270 MB for a four-arc cover), while tuple dicts over Z/7
take ten times as long.  Full (n, n, J, G) arrays are built only where a
caller reads them.
The characters read only the trace of their last product, so
`MixedForm.traced_product` forms just that, with n^2 times fewer entries.

Every array takes the field of its inputs.  Real jets and real entries
stay float64 through sums, products, differentials and traces, so the
flat projection of a circle cover runs real arithmetic; complex numbers
enter with complex data: trig jets, words over GAMatrix (whose parts are
complex), complex scale factors and cochain values.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import types

import numpy as np

from .group_algebra import GAMatrix, GroupSpec

_TRIVIAL = GroupSpec.trivial()

# ---------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------


def _check_points(n):
    """A grid needs two points per axis: an entry with one grid point is
    a grid-constant coefficient."""
    if n < 2:
        raise ValueError(f"a grid needs at least 2 points per axis, not {n}")


class CircleGrid:
    """Uniform grid on the circle R/Z with quadrature weight 1/n."""

    ndim = 1

    def __init__(self, n):
        _check_points(n)
        self.n = n
        self.points = np.arange(n) / n
        self.shape = (n,)

    def __eq__(self, other):
        return isinstance(other, CircleGrid) and other.n == self.n

    def __hash__(self):
        return hash(("circle", self.n))

    def __repr__(self):
        return f"CircleGrid({self.n})"


class ChartGrid2D:
    """Midpoint lattice on the open unit square (0,1)^2."""

    ndim = 2

    def __init__(self, n):
        _check_points(n)
        self.n = n
        pts = (np.arange(n) + 0.5) / n
        self.xs, self.ys = np.meshgrid(pts, pts, indexing="ij")
        self.shape = (n, n)

    def __eq__(self, other):
        return isinstance(other, ChartGrid2D) and other.n == self.n

    def __hash__(self):
        return hash(("chart2d", self.n))

    def __repr__(self):
        return f"ChartGrid2D({self.n})"


# ---------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------


def _multi_indices(ndim, order):
    out = []
    for total in range(order + 1):
        for alpha in itertools.product(range(total + 1), repeat=ndim):
            if sum(alpha) == total:
                out.append(alpha)
    return out


@functools.cache
def _jet_order(ndim, size):
    """The jet order whose layout has `size` multi-indices."""
    return next(o for o in itertools.count()
                if math.comb(o + ndim, ndim) >= size)


@functools.lru_cache(maxsize=None)
def _jet_layout(ndim, order):
    """Index bookkeeping for stacked jets of one (ndim, order) shape."""
    indices = _multi_indices(ndim, order)
    position = {a: i for i, a in enumerate(indices)}
    # Leibniz table: (out, left, right, multinomial coefficient)
    table = []
    for alpha in indices:
        for beta in itertools.product(*(range(a + 1) for a in alpha)):
            gamma = tuple(a - b for a, b in zip(alpha, beta))
            coeff = math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
            table.append((position[alpha], position[beta], position[gamma],
                          float(coeff)))
    # the same table as the (left, out x right) matrix of a GEMM that
    # expands the left factor's jets (`_jet_outer`)
    J = len(indices)
    leibniz = np.zeros((J, J * J))
    for o, i, j, coeff in table:
        leibniz[i, o * J + j] += coeff
    # partial-derivative source positions per axis
    partials = [[position[tuple(a + (i == ax) for i, a in enumerate(alpha))]
                 for alpha in _multi_indices(ndim, order - 1)]
                for ax in range(ndim)] if order >= 1 else []
    return types.SimpleNamespace(indices=indices, position=position,
                                 mul_table=table, leibniz=leibniz,
                                 partials=partials)


class JetFunction:
    """Grid samples of a function together with its derivative samples.

    The samples of all derivative multi-indices up to the jet order are
    stacked into one array; arithmetic propagates them by the Leibniz
    rule, so derivatives stay analytic under sums and products.
    """

    __slots__ = ("grid", "order", "stack")

    def __init__(self, grid, order, stack):
        self.grid = grid
        self.order = order
        self.stack = stack

    @classmethod
    def constant(cls, grid, value, order=2):
        lay = _jet_layout(grid.ndim, order)
        stack = np.zeros((len(lay.indices),) + grid.shape,
                         dtype=np.result_type(float, value))
        stack[0] = value
        return cls(grid, order, stack)

    @classmethod
    def from_arrays(cls, grid, arrays):
        """Build from {multi-index: sample array}; missing jets are zero
        up to the largest supplied order."""
        order = max(sum(a) for a in arrays)
        lay = _jet_layout(grid.ndim, order)
        stack = np.zeros((len(lay.indices),) + grid.shape,
                         dtype=np.result_type(float, *arrays.values()))
        for alpha, arr in arrays.items():
            stack[lay.position[alpha]] = np.reshape(arr, grid.shape)
        return cls(grid, order, stack)

    @classmethod
    def from_stack(cls, grid, stack):
        """Jet of stacked samples (J, *grid); J fixes the order."""
        return cls(grid, _jet_order(grid.ndim, len(stack)), stack)

    @classmethod
    def trig(cls, grid, coeffs, order=2):
        """Trigonometric polynomial sum c_m e^{2 pi i m x} on a circle."""
        if grid.ndim != 1:
            raise ValueError("trig jets are one dimensional")
        x = grid.points
        lay = _jet_layout(1, order)
        stack = np.zeros((len(lay.indices),) + grid.shape, dtype=complex)
        for m, c in coeffs.items():
            wave = np.exp(2j * np.pi * m * x)
            for k in range(order + 1):
                stack[k] += c * (2j * np.pi * m) ** k * wave
        return cls(grid, order, stack)

    def value(self):
        return self.stack[0]

    def _common(self, other):
        if self.grid != other.grid:
            raise ValueError("jets live on different grids")
        order = min(self.order, other.order)
        n = len(_jet_layout(self.grid.ndim, order).indices)
        return order, self.stack[:n], other.stack[:n]

    def __add__(self, other):
        order, a, b = self._common(other)
        return JetFunction(self.grid, order, a + b)

    def scale(self, c):
        return JetFunction(self.grid, self.order, c * self.stack)

    def __mul__(self, other):
        """Pointwise product, by Leibniz in the jets (`_jet_product`)."""
        if not isinstance(other, JetFunction):
            return self.scale(other)
        order, a, b = self._common(other)
        return JetFunction(self.grid, order,
                           _jet_product(a, b, self.grid.ndim))

    def conj(self):
        return JetFunction(self.grid, self.order, np.conj(self.stack))

    def partial(self, axis):
        return JetFunction(self.grid, self.order - 1,
                           _partial(self.stack, axis, self.grid.ndim, 0))

    def rsqrt(self):
        """Jets of s^{-1/2}; needs strictly positive values.

        Newton's step y -> (3y - s y^3)/2 from the values s^{-1/2} with
        zero derivatives: the error of y starts at derivative order 1 and
        its lowest order doubles with each step, so order.bit_length()
        steps make every jet exact.
        """
        v = self.stack[0]
        if np.any(np.real(v) <= 0):
            raise ValueError("rsqrt needs positive values")
        y = JetFunction(self.grid, self.order, np.zeros_like(self.stack))
        y.stack[0] = v ** -0.5
        for _ in range(self.order.bit_length()):
            y = (y.scale(3.0) + (self * y * y * y).scale(-1.0)).scale(0.5)
        return y

    def is_zero(self):
        return not self.stack.any()


# ---------------------------------------------------------------------
# blocks: the entries of one (algebra degree, manifold axes) component
# ---------------------------------------------------------------------


def _jet_product(x, y, ndim):
    """Pointwise product of stacked jets, (..., J, *grid) arrays with ndim
    grid axes whose other axes broadcast: by Leibniz in the jets, one
    elementwise product per Leibniz term."""
    grid = (slice(None),) * ndim
    J = min(x.shape[-ndim - 1], y.shape[-ndim - 1])
    shape = np.broadcast_shapes(x[(..., 0) + grid].shape,
                                y[(..., 0) + grid].shape)
    out = np.zeros(shape[:-ndim] + (J,) + shape[-ndim:],
                   dtype=np.result_type(x, y))
    for o, i, j, c in _jet_layout(ndim, _jet_order(ndim, J)).mul_table:
        term = x[(..., i) + grid] * y[(..., j) + grid]
        if c != 1:
            term *= c
        out[(..., o) + grid] += term
    return out


def _jet_count(*xs):
    """The jets of a sum or product of jet arrays (..., J, G): the least
    count among the arrays that vary on the grid, or 1 when every one is
    grid-constant (one grid point, value jet only)."""
    return min((x.shape[-2] for x in xs if x.shape[-1] > 1), default=1)


def _jets(x, J):
    """The jet array x at J jets: truncated, or, for a grid-constant x,
    padded with zero derivative jets."""
    if x.shape[-2] >= J:
        return x if x.shape[-2] == J else x[..., :J, :]
    out = np.zeros(x.shape[:-2] + (J, 1), x.dtype)
    out[..., :1, :] = x
    return out


def _jet_mul(x, y, ndim):
    """Product of two matrices of jets, (n, l, J, G) and (l, m, J, G)
    arrays: a matrix product, by Leibniz in the jets and pointwise on the
    G grid points, one `einsum` per Leibniz term.  A grid axis of length
    1 broadcasts, and a grid-constant side is padded to the jets of the
    other (`_jet_count`)."""
    J = _jet_count(x, y)
    x, y = _jets(x, J), _jets(y, J)
    out = np.empty((len(x), y.shape[1], J, max(x.shape[-1], y.shape[-1])),
                   dtype=np.result_type(x, y))
    written = set()
    for o, i, j, c in _jet_layout(ndim, _jet_order(ndim, J)).mul_table:
        # the first term of each jet (c = 1) is written in place
        if o not in written:
            written.add(o)
            np.einsum("nlg,lmg->nmg", x[:, :, i], y[:, :, j],
                      out=out[:, :, o])
            continue
        term = np.einsum("nlg,lmg->nmg", x[:, :, i], y[:, :, j])
        if c != 1:
            term *= c
        out[:, :, o] += term
    return out


def _positions(a, b):
    """Positions in a and in b of the indices both index tuples hold."""
    common = sorted(set(a) & set(b))
    return [a.index(k) for k in common], [b.index(k) for k in common]


def _union(a, b):
    """The sorted union of two index tuples and the positions of a's and
    of b's indices in it."""
    u = tuple(sorted(set(a) | set(b)))
    return u, [u.index(k) for k in a], [u.index(k) for k in b]


class _Sub:
    """A matrix of jets held on its live submatrix: the (r, c, J, G)
    array part at the rows x cols of an (n, m, J, G) array that is zero
    elsewhere; rows and cols are increasing index tuples."""

    __slots__ = ("shape", "rows", "cols", "part")

    def __init__(self, shape, rows, cols, part):
        self.shape, self.rows, self.cols, self.part = shape, rows, cols, part

    @classmethod
    def whole(cls, x):
        n, m = x.shape[:2]
        return cls((n, m), tuple(range(n)), tuple(range(m)), x)

    def is_whole(self):
        return (len(self.rows), len(self.cols)) == self.shape

    def map(self, fn):
        """fn applied to the part: exact for maps that keep zeros and act
        on the jet and grid axes only."""
        return _Sub(self.shape, self.rows, self.cols, fn(self.part))

    def full(self):
        if self.is_whole():
            return self.part
        out = np.zeros(self.shape + self.part.shape[2:], self.part.dtype)
        out[np.ix_(self.rows, self.cols)] = self.part
        return out

    def tight(self):
        """The entry on its live rows and columns only; None when it is
        zero."""
        live = self.part.any(axis=(2, 3))
        rows, cols = live.any(1), live.any(0)
        if rows.all() and cols.all():
            return self
        if not rows.any():
            return None
        return _Sub(self.shape,
                    tuple(itertools.compress(self.rows, rows.tolist())),
                    tuple(itertools.compress(self.cols, cols.tolist())),
                    self.part[np.ix_(rows, cols)])

    def adjoint(self):
        """The conjugate transpose, on the transposed rows and columns."""
        return _Sub(self.shape[::-1], self.cols, self.rows,
                    np.conj(self.part).swapaxes(0, 1))

    def trace(self):
        """The 1 x 1 entry of the trace, summed over the diagonal
        positions the entry holds; None when it holds none."""
        i, j = _positions(self.rows, self.cols)
        if not i:
            return None
        total = self.part[i[0], j[0]].copy()
        for a, b in zip(i[1:], j[1:]):
            total += self.part[a, b]
        return _Sub((1, 1), (0,), (0,), total[None, None])

    def flat(self, column):
        """The entry as a row of its n*m positions (row-major), or its
        transpose as a column, so that a row times a column is tr(x y)."""
        n, m = self.shape
        if column:
            part = self.part.swapaxes(0, 1)
            return _Sub((n * m, 1), tuple(c * n + r for c in self.cols
                                          for r in self.rows), (0,),
                        part.reshape((-1, 1) + part.shape[2:]))
        return _Sub((1, n * m), (0,), tuple(r * m + c for r in self.rows
                                            for c in self.cols),
                    self.part.reshape((1, -1) + self.part.shape[2:]))


def _sub_mul(x, y, ndim):
    """The product x y of two entries over x's rows, the indices in both
    x's columns and y's rows, and y's columns; None when no index is in
    both, as the product is then exactly zero."""
    xp, yp = x.part, y.part
    if x.cols != y.rows:
        i, j = _positions(x.cols, y.rows)
        if not i:
            return None
        if len(i) < len(x.cols):
            xp = xp[:, i]
        if len(j) < len(y.rows):
            yp = yp[j]
    return _Sub((x.shape[0], y.shape[1]), x.rows, y.cols,
                _jet_mul(xp, yp, ndim))


def _sub_add(a, b, own):
    """a + b, over the union of their rows and columns, at the jets of
    `_jet_count`; on equal ones in place into a's part if own (allocated
    for this sum), of b's field, of the broadcast grid length and of the
    jets of the sum."""
    J = _jet_count(a.part, b.part)
    x, y = _jets(a.part, J), _jets(b.part, J)
    dtype = np.result_type(x, y)
    G = max(x.shape[-1], y.shape[-1])
    if (a.rows, a.cols) == (b.rows, b.cols):
        if own and x is a.part and x.dtype == dtype and x.shape[-1] == G:
            x += y
            return a
        return _Sub(a.shape, a.rows, a.cols, x + y)
    rows, ra, rb = _union(a.rows, b.rows)
    cols, ca, cb = _union(a.cols, b.cols)
    part = np.zeros((len(rows), len(cols), J, G), dtype)
    part[np.ix_(ra, ca)] = x
    part[np.ix_(rb, cb)] += y
    return _Sub(a.shape, rows, cols, part)


def _sub_diff(a, b):
    """The value jets of a - b, on the union of their rows and columns."""
    x, y = a.part[..., 0, :], b.part[..., 0, :]
    if (a.rows, a.cols) == (b.rows, b.cols):
        return x - y
    rows, ra, rb = _union(a.rows, b.rows)
    cols, ca, cb = _union(a.cols, b.cols)
    out = np.zeros((len(rows), len(cols), max(x.shape[-1], y.shape[-1])),
                   np.result_type(x, y))
    out[np.ix_(ra, ca)] = x
    out[np.ix_(rb, cb)] -= y
    return out


def _jet_outer(x, y, ndim, solve):
    """The fused products of the (n, l) entries of x with the (l, m)
    entries of y, as in `_jet_mul`: x's last slot g meets y's first slot
    solve[g][f] at the slot f, summed over g (see `_DenseBlocks`).  One
    BLAS product per grid point, with the jets of x and the summed slot
    contracted into its inner index.  Before it, one GEMM expands x's
    jets against the Leibniz table, (x entries, i) times (i, o j): the
    sum over i of the multinomial coefficient of (o, i, j) times x_i is
    the left factor of the jet o of the product where y brings its jet
    j.  The result has the leading (tuple) axes of x but its last, then
    the slot f and the other axes of y, then the entry axes.  A grid
    axis of length 1 broadcasts in the product, and a grid-constant side
    is padded to the jets of the other (`_jet_count`); two grid-constant
    sides multiply their value jets alone, with no Leibniz expansion."""
    J = _jet_count(x, y)
    x, y = _jets(x, J), _jets(y, J)
    (n, l), m = x.shape[-4:-2], y.shape[-3]
    gx, gy = x.shape[-1], y.shape[-1]
    G, c = max(gx, gy), len(solve)
    # x as (g, L, c, a, b, i): grid, leading tuples, summed slot, entry
    # row and column, jet
    xs = x.reshape(-1, c, n, l, J, gx).transpose(5, 0, 1, 2, 3, 4)
    if J == 1:
        # (g, L, a, o, b, c), o and the missing j of length 1
        xo = xs.transpose(0, 1, 3, 5, 4, 2)
    else:
        lay = _jet_layout(ndim, _jet_order(ndim, J))
        # (g, L, c, a, b, o, j) -> (g, L, a, o, b, j, c)
        xo = (xs.reshape(-1, J) @ lay.leibniz).reshape(
            xs.shape[:-1] + (J, J)).transpose(0, 1, 3, 5, 4, 6, 2)
    # y as a (G, l, J, slots..., m) view, so the gather is its one copy
    d = y.ndim
    yt = np.take(y.transpose((d - 1, d - 4, d - 2, *range(d - 4), d - 3)),
                 solve, axis=3)
    out = xo.reshape(gx, -1, l * J * c) @ yt.reshape(gy, l * J * c, -1)
    out = out.reshape(G, xs.shape[1], n, J, -1, m).transpose(1, 4, 2, 5, 3, 0)
    return out.reshape(x.shape[:-5] + y.shape[:-4] + (n, m, J, G))


def _partial(x, axis, ndim, jet_axis=-2):
    """Jets of the derivative along a grid axis, for jets stacked on
    jet_axis of x: a view of x where they lie in one run of positions,
    as for first-order jets, else a copy."""
    partials = _jet_layout(ndim, _jet_order(ndim, x.shape[jet_axis])).partials
    if not partials:
        raise ValueError("jet order exhausted; build with higher order")
    index = partials[axis]
    if index == list(range(index[0], index[0] + len(index))):
        run = [slice(None)] * x.ndim
        run[jet_axis] = slice(index[0], index[0] + len(index))
        return x[tuple(run)]
    return np.take(x, index, axis=jet_axis)


class _DenseBlocks:
    """Blocks over a finite group: one array with a leading axis per slot
    over the elements 0..k-1.  The group law enters as index maps:
    solve[g][m] is the h with g h = m.  A product is one BLAS product per
    grid point (`_jet_outer`), and a fused slot is summed inside it."""

    def __init__(self, spec, ndim):
        els = spec.elements()
        self.ndim, self.e, self.k = ndim, spec.identity(), len(els)
        self.solve = np.array([np.argsort([spec.mul(g, h) for h in els])
                               for g in els])
        self.inv = np.array([spec.inv(g) for g in els])

    def block(self, entries, q):
        entries = list(entries)
        shape = np.broadcast_shapes(*(x.shape for _, x in entries))
        out = np.zeros((self.k,) * (q + 1) + shape,
                       dtype=np.result_type(*{x.dtype for _, x in entries}))
        # a grid-constant entry fills the value jet alone
        for tup, x in entries:
            out[tup][..., :x.shape[-2], :] += x
        return out

    def _rows(self, block):
        """The block as a (tuples, entry) matrix, C order on both axes,
        and the mask of its live rows."""
        rows = block.reshape(-1, math.prod(block.shape[-4:]))
        return rows, rows.any(axis=1)

    def stacked(self, block):
        rows, live = self._rows(block)
        tuples = zip(*(idx.tolist() for idx in np.nonzero(
            live.reshape(block.shape[:-4]))))
        return list(tuples), rows[live].reshape((-1,) + block.shape[-4:])

    def pair(self, block, values):
        """The sum of values(t) block[t] over live t, given as a mask:
        one matvec of the values with the live rows of the block as a
        (tuples, entry) matrix, bit for bit the `tensordot` of the values
        with the stacked live entries."""
        rows, live = self._rows(block)
        vals = values(live.reshape(block.shape[:-4]))
        return np.dot(vals, rows[live]).reshape(block.shape[-4:])

    def apply(self, block, fn):
        return fn(block)

    def adjoint(self, block):
        # the entry at g is the conjugate transpose of the entry at g^-1,
        # C-contiguous like every block that `block` builds
        out = np.empty(block.shape, block.dtype)
        return np.conjugate(block[self.inv].swapaxes(-4, -3), out=out)

    def differences(self, a, b):
        if a is None or b is None:
            yield (b if a is None else a)[..., 0, :]
        else:
            yield a[..., 0, :] - b[..., 0, :]

    def trace(self, block):
        return np.trace(block, axis1=-4, axis2=-3)[..., None, None, :, :]

    def flat(self, block, column):
        n, m = block.shape[-4:-2]
        if column:
            block = block.swapaxes(-4, -3)
        return block.reshape(block.shape[:-4] + ((n * m, 1) if column
                                                 else (1, n * m))
                             + block.shape[-2:])

    def add(self, a, b, own=False):
        J = _jet_count(a, b)
        x, b = _jets(a, J), _jets(b, J)
        if own and x is a and a.dtype == np.result_type(a, b) \
                and a.shape == np.broadcast_shapes(a.shape, b.shape):
            a += b
            return a
        return x + b

    def partial(self, block, axis):
        """The partials along a grid axis, a view where `_partial` gives
        one; None for a grid-constant block, whose partials are zero."""
        return None if block.shape[-1] == 1 else _partial(block, axis,
                                                          self.ndim)

    def prune(self, block):
        return block if block.any() else None

    def merge(self, block, i):
        head = (slice(None),) * i
        # every summand is a fresh array, so the sum accumulates in place
        return functools.reduce(operator.iadd, (
            np.take(block[head + (g,)], solve, axis=i)
            for g, solve in enumerate(self.solve)))

    def outer(self, a, b):
        """The fused product: a's last slot g meets b's first slot g^-1 f
        at the slot f."""
        return _jet_outer(a, b, self.ndim, self.solve)

    def prepend_e(self, block):
        out = np.zeros((self.k,) + block.shape, dtype=block.dtype)
        out[self.e] = block
        return out

    def fold_in(self, block, folded):
        # a copy: block's last slot e, which kill zeroed, takes folded
        out = block.copy()
        out[(slice(None),) * (block.ndim - 5) + (self.e,)] += folded
        return out

    def kill(self, block):
        for i in range(1, block.ndim - 4):
            block[(slice(None),) * i + (self.e,)] = 0
        return block


class _TupleBlocks:
    """Blocks over an infinite group: a dict from group tuples to entries
    (`_Sub`), each held as its live submatrix; the entries that vary on
    the grid share one jet order, and a grid-constant entry holds its
    value jet only, padded where it meets another (`_jets`).  Products
    pair single entries on long grids (`_sub_mul`) and sums combine
    submatrices (`_sub_add`): the entries of a flat projection are sparse
    matrices of jets.  Full arrays are built only where a caller reads
    them (`stacked`, `pair`).  A block may be empty."""

    def __init__(self, spec, ndim):
        self.ndim, self.e, self.mul = ndim, spec.identity(), spec.mul
        self.inv = spec.inv

    def block(self, entries, q):
        return self._collect((t, _Sub.whole(x)) for t, x in entries)

    def stacked(self, block):
        parts = [x.full() for x in block.values()]
        J = _jet_count(*parts)
        return list(block), np.stack(np.broadcast_arrays(
            *(_jets(x, J) for x in parts)))

    def pair(self, block, values):
        return np.tensordot(values(list(block)), self.stacked(block)[1], 1)

    def apply(self, block, fn):
        return {t: x.map(fn) for t, x in block.items()}

    def adjoint(self, block):
        return {(self.inv(g),): x.adjoint() for (g,), x in block.items()}

    def differences(self, a, b):
        a, b = a or {}, b or {}
        for t in {**a, **b}:
            x, y = a.get(t), b.get(t)
            if x is None or y is None:
                yield (y if x is None else x).part[..., 0, :]
            else:
                yield _sub_diff(x, y)

    def trace(self, block):
        return {t: tr for t, x in block.items()
                if (tr := x.trace()) is not None}

    def flat(self, block, column):
        return {t: x.flat(column) for t, x in block.items()}

    def add(self, a, b, own=False):
        J = _jet_count(*(x.part for c in (a, b) for x in c.values()))
        return self._collect(
            ((t, x if x.part.shape[-2] <= J
              else x.map(lambda p: p[..., :J, :]))
             for c in (a, b) for t, x in c.items()), a if own else ())

    def partial(self, block, axis):
        """The partials of the entries that vary on the grid; None when
        every entry is grid-constant."""
        return {t: x.map(lambda p: _partial(p, axis, self.ndim))
                for t, x in block.items() if x.part.shape[-1] > 1} or None

    def prune(self, block):
        return {t: y for t, x in block.items()
                if (y := x.tight()) is not None} or None

    def merge(self, block, i):
        return self._collect(
            (t[:i] + (self.mul(t[i], t[i + 1]),) + t[i + 2:], x)
            for t, x in block.items())

    def outer(self, a, b):
        # fused: a's last slot meets b's first by the group law
        return self._collect(
            (s[:-1] + (self.mul(s[-1], t[0]),) + t[1:], xy)
            for s, x in a.items() for t, y in b.items()
            if (xy := _sub_mul(x, y, self.ndim)) is not None)

    def prepend_e(self, block):
        return {(self.e,) + t: x for t, x in block.items()}

    def fold_in(self, block, folded):
        return self._collect([*block.items(), *(
            (t + (self.e,), x) for t, x in folded.items())])

    def kill(self, block):
        return {t: x for t, x in block.items() if self.e not in t[1:]}

    @staticmethod
    def _collect(pairs, own=()):
        """Sum the entries of equal tuples.  A sum accumulates in place
        only in an array allocated here or in an entry of a tuple in own,
        never in another input."""
        out, own = {}, set(own)
        for t, x in pairs:
            if t not in out:
                out[t] = x
            else:
                out[t] = _sub_add(out[t], x, t in own)
                own.add(t)
        return out


@functools.lru_cache(maxsize=None)
def _blocks(spec, ndim):
    """Dense blocks over a finite group, tuple-keyed ones otherwise."""
    return (_DenseBlocks if spec.is_finite else _TupleBlocks)(spec, ndim)


# ---------------------------------------------------------------------
# mixed forms
# ---------------------------------------------------------------------


def _merge_axes(a, b):
    """Concatenate strictly increasing axis tuples: the sorted axes and
    the sign of the sort, the parity of the pairs x in a, y in b with
    x > y; (None, 0) if the tuples share an axis."""
    if set(a) & set(b):
        return None, 0
    return tuple(sorted(a + b)), (-1) ** sum(x > y for x in a for y in b)


def _signed(lay, block, sign, fresh):
    """The block times a sign of +-1; at +1 the block itself.  A fresh
    block, whose arrays no one else holds, is signed in place."""
    if sign == 1:
        return block
    if fresh:
        return lay.apply(block, lambda x: np.multiply(x, sign, out=x))
    return lay.apply(block, lambda x: sign * x)


class MixedForm:
    """Mixed form with values in M_n(Omega C[Gamma]).

    terms maps (algebra degree q, manifold axes) to a block whose entry
    at the group tuple (g_0, ..., g_q) is the (n, n, J, G) jet array of
    the coefficient of g_0 dg_1 ... dg_q dx_axes; G is the number of grid
    points, or 1 for a grid-constant coefficient.  A grid-constant entry
    has J = 1, its value jet: its derivatives are zero, so where it meets
    an entry of J jets in a sum or product it is padded with zero jets,
    and the read boundary shows it as an order-0 jet broadcast to the
    grid.
    """

    __slots__ = ("grid", "spec", "size", "kalg", "terms", "dropped",
                 "layout")

    def __init__(self, grid, spec, size, kalg=4):
        self.grid = grid
        self.spec = spec
        self.size = size
        self.kalg = kalg
        self.terms = {}
        self.dropped = False
        self.layout = _blocks(spec, grid.ndim)

    # -- construction ---------------------------------------------------
    @classmethod
    def zero(cls, grid, spec, size, kalg=4):
        return cls(grid, spec, size, kalg)

    @classmethod
    def one(cls, grid, spec, size, kalg=4):
        out = cls(grid, spec, size, kalg)
        out.add_term(ScalarForm.one(grid),
                     (GAMatrix.identity(spec, size),))
        return out

    def add_term(self, sform, word):
        """Add sform x phi(m_0 dm_1 ... dm_q) for a word of GAMatrix: the
        entry at (g_0, ..., g_q) is the product of the coefficient
        matrices of g_s in m_s."""
        mats = [(tuple(g for g, _ in combo),
                 functools.reduce(np.matmul, [m for _, m in combo]))
                for combo in itertools.product(
                    *(mat.parts.items() for mat in word))]
        # the blocks, not `entries`, keep a grid-constant coefficient at
        # one grid point
        self.add_entries((t, axes, np.multiply.outer(m, x[0, 0]))
                         for (_q, axes), block in sform.terms.items()
                         for x in sform.layout.stacked(block)[1]
                         for t, m in mats)

    def add_entries(self, entries):
        """Add (group tuple, axes, (n, n, J, *grid) array) entries, the
        inverse of `entries`; an (n, n, J, 1) array is a grid-constant
        entry, kept at one grid point as its value jet.  The algebra
        degree is the tuple length less one; entries above kalg are
        dropped (and `dropped` set), and a tuple with e in a slot >= 1
        dies.  A block takes the lowest jet order among its entries that
        vary on the grid, and pads its grid-constant ones to it, as `_add`
        does."""
        blocks = {}
        for tup, axes, x in entries:
            if len(tup) - 1 > self.kalg:
                self.dropped = True
                continue
            x = x.reshape(x.shape[:3] + (-1,))
            blocks.setdefault((len(tup) - 1, tuple(axes)), []).append(
                (tuple(tup), x[..., :1, :] if x.shape[-1] == 1 else x))
        for (q, axes), block in blocks.items():
            J = _jet_count(*(x for _, x in block))
            block = self.layout.block([(t, x[..., :J, :]) for t, x in block],
                                      q)
            self._add((q, axes), self.layout.kill(block))

    def _add(self, key, block, own=False):
        """Add a block at key, dropping the key if its block is zero; own
        says that the form alone holds its block at key, which the sum
        may then overwrite."""
        if key in self.terms:
            block = self.layout.add(self.terms.pop(key), block, own)
        block = self.layout.prune(block)
        if block is not None:
            self.terms[key] = block

    def _spawn(self, kalg=None, size=None):
        """An empty form of the class of self, on its layout."""
        out = object.__new__(type(self))
        out.grid, out.spec, out.layout = self.grid, self.spec, self.layout
        out.size = size or self.size
        out.kalg = self.kalg if kalg is None else kalg
        out.terms, out.dropped = {}, self.dropped
        return out

    def _check(self, other):
        if (self.size != other.size
                or not (self.grid is other.grid or self.grid == other.grid)
                or not (self.spec is other.spec or self.spec == other.spec)):
            raise ValueError("incompatible mixed forms")

    def _mapped(self, fn, size=None):
        """The form with fn applied to every block."""
        out = self._spawn(size=size)
        for key, block in self.terms.items():
            out._add(key, fn(block))
        return out

    def _values(self):
        """The form of the value jets alone, as views: the value jet of a
        sum, product or adjoint reads only the value jets of its inputs,
        so a residual read by `max_abs` needs no other jet."""
        out = self._spawn()
        out.terms = {key: self.layout.apply(b, lambda x: x[..., :1, :])
                     for key, b in self.terms.items()}
        return out

    # -- linear structure -------------------------------------------------
    def __add__(self, other):
        self._check(other)
        out = self._spawn(min(self.kalg, other.kalg))
        out.dropped = self.dropped or other.dropped
        for key, block in [*self.terms.items(), *other.terms.items()]:
            if key[0] > out.kalg:
                out.dropped = True
            else:
                out._add(key, block)
        return out

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, c):
        return self._mapped(lambda b: self.layout.apply(b, lambda x: c * x))

    # -- graded product ---------------------------------------------------
    def __matmul__(self, other):
        """Graded product.  The left word folds into the leading slot of
        the right one,

            (g_0 dg_1 ... dg_a)(h_0 dh_1 ... dh_b)
              = sum_i (-1)^(a-i) (g_0, ..., g_i g_{i+1}, ..., g_a, h_0, ...)

        with g_{a+1} = h_0, and a grid form of degree p' crosses a word
        of degree a with the Koszul sign (-1)^(a p').
        """
        return self._product(other, traced=False)

    def traced_product(self, other):
        """(self @ other).graded_trace(), forming only the trace."""
        return self._product(other, traced=True)

    def _product(self, other, traced):
        """The graded product or its trace: tr(x y) is the 1 x 1 product
        of x as a row of n*n entries with the transposed y as a column."""
        self._check(other)
        out = self._spawn(min(self.kalg, other.kalg), 1 if traced else None)
        out.dropped = self.dropped or other.dropped
        lay = self.layout
        left, right = self.terms, other.terms
        if traced:
            left = {key: lay.flat(a, False) for key, a in left.items()}
            right = {key: lay.flat(b, True) for key, b in right.items()}
        for (qa, ax_a), a in left.items():
            # the terms i < a merge slots of the left word only; their sum
            # sits at a's last slot e, where the fused product's e h = h
            # appends it to the right word: one product for all terms
            folded = None
            for i in range(qa):
                part = _signed(lay, lay.merge(a, i), (-1) ** (qa - i), False)
                folded = part if folded is None else lay.add(folded, part)
            if folded is not None:
                a = lay.fold_in(a, folded)
            for (qb, ax_b), b in right.items():
                axes, sign = _merge_axes(ax_a, ax_b)
                if qa + qb > out.kalg:
                    out.dropped = True
                elif axes is not None:
                    block = lay.outer(a, b)
                    # the product allocated every array of block, and of
                    # every block of out
                    sign *= (-1) ** (qa * len(ax_b))
                    out._add((qa + qb, axes),
                             _signed(lay, lay.kill(block), sign, True), True)
        return out

    # -- differential -------------------------------------------------
    def dtot(self):
        """Total differential d_M + (-1)^p (prepend e)."""
        return self.dtot_manifold() + self.dtot_algebra()

    def dtot_manifold(self):
        out = self._spawn()
        ndim, lay = self.grid.ndim, self.layout
        for (q, axes), block in self.terms.items():
            for ax in range(ndim):
                if ax not in axes:
                    merged, sign = _merge_axes((ax,), axes)
                    # a partial may be a view of the block
                    part = lay.partial(block, ax)
                    if part is not None:
                        out._add((q, merged), _signed(lay, part, sign, False))
        return out

    def dtot_algebra(self):
        out = self._spawn()
        lay = self.layout
        for (q, axes), block in self.terms.items():
            if q + 1 > self.kalg:
                out.dropped = True
                continue
            out._add((q + 1, axes), _signed(
                lay, lay.kill(lay.prepend_e(block)), (-1) ** len(axes), False))
        return out

    # -- trace ---------------------------------------------------------
    def graded_trace(self):
        """Matrix trace into forms over the scalar algebra (size 1)."""
        return self._mapped(self.layout.trace, size=1)

    # -- inspection ------------------------------------------------------
    def stacks(self):
        """Yield (q, axes, group tuples, (N, n, n, J, *grid) array) for
        every block: the nonzero entries of the block, stacked, and
        broadcast to the grid from a grid-constant block."""
        size = math.prod(self.grid.shape)
        for (q, axes), block in self.terms.items():
            tuples, arrays = self.layout.stacked(block)
            lead = arrays.shape[:-1]
            yield q, axes, tuples, np.broadcast_to(
                arrays, lead + (size,)).reshape(lead + self.grid.shape)

    def entries(self):
        """Yield (group tuple, axes, (n, n, J, *grid) array) for every
        nonzero entry."""
        for _q, axes, tuples, arrays in self.stacks():
            yield from ((tup, axes, x) for tup, x in zip(tuples, arrays))

    def star(self):
        """Adjoint, defined for forms of algebra degree zero: each entry
        conjugated and transposed in place of its group inverse."""
        if any(q for q, _ in self.terms):
            raise ValueError("star only on algebra-degree-0 forms")
        out = self._spawn()
        out.terms = {key: self.layout.adjoint(block)
                     for key, block in self.terms.items()}
        return out

    def components(self):
        """Occupied (manifold degree, algebra degree) pairs."""
        return sorted({(len(axes), q) for q, axes in self.terms})

    def algebra_component(self, q):
        out = self._spawn()
        out.terms = {key: b for key, b in self.terms.items() if key[0] == q}
        return out

    def scalar_part(self):
        """ScalarForm of the algebra-degree-0, identity-coefficient part.

        Only meaningful once the matrix size is 1 (after graded_trace).
        """
        if self.size != 1:
            raise ValueError("scalar_part needs a traced (size-1) form")
        out = ScalarForm(self.grid)
        # the blocks, not `entries`, keep a grid-constant coefficient at
        # one grid point
        out.add_entries((ScalarForm.E, axes, x)
                        for (q, axes), block in self.terms.items() if q == 0
                        for tup, x in zip(*self.layout.stacked(block))
                        if tup == (self.spec.identity(),))
        return out

    def max_abs(self):
        """Largest value of an entry: faithful, since the group tuples
        and matrix positions form a basis."""
        return self.max_abs_diff(self._spawn())

    def max_abs_diff(self, other):
        """(self - other).max_abs() without forming the difference: block
        by block on the value jets, a block of one form alone against 0."""
        self._check(other)
        kalg = min(self.kalg, other.kalg)
        diffs = (d for key in {**self.terms, **other.terms} if key[0] <= kalg
                 for d in self.layout.differences(self.terms.get(key),
                                                  other.terms.get(key)))
        return max((float(np.max(np.abs(d))) for d in diffs), default=0.0)


class ScalarForm(MixedForm):
    """Differential form on the grid with JetFunction coefficients: the
    1 x 1 mixed form over the trivial group in algebra degree 0.

    comps maps a strictly increasing tuple of axis indices to the
    coefficient jet of dx_{i_1} ^ ... ^ dx_{i_p}; several degrees may be
    present at once, and zero jets are dropped.
    """

    __slots__ = ()

    E = (_TRIVIAL.identity(),)  # the group tuple of every entry

    def __init__(self, grid, comps=None):
        super().__init__(grid, _TRIVIAL, 1, 0)
        self.add_entries((self.E, axes, jet.stack[None, None])
                         for axes, jet in (comps or {}).items())

    @classmethod
    def zero(cls, grid):
        return cls(grid)

    @classmethod
    def function(cls, jet):
        return cls(jet.grid, {(): jet})

    @classmethod
    def one(cls, grid):
        """The constant 1, stored as its value jet at one grid point."""
        out = cls(grid)
        out.add_entries([(cls.E, (), np.ones((1, 1, 1, 1)))])
        return out

    d = MixedForm.dtot_manifold

    @property
    def comps(self):
        """Read-only {axes: JetFunction} view of the components."""
        return types.MappingProxyType({
            axes: JetFunction.from_stack(self.grid, arrays[0, 0, 0])
            for _q, axes, _tuples, arrays in self.stacks()})

    def component(self, axes):
        jet = self.comps.get(tuple(axes))
        if jet is None:
            return np.zeros(self.grid.shape, dtype=complex)
        return jet.value()

    def integrate(self):
        """Integral of the top-degree component over the whole grid."""
        return complex(np.mean(self.component(range(self.grid.ndim))))

