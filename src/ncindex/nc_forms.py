"""Noncommutative differential forms over matrix group algebras.

A mixed form on a grid M with values in forms over B = M_n(C Gamma) is
stored as a finite sum of terms

    (scalar grid form) x (m_0 (x) m_1 (x) ... (x) m_q),

with m_i in M_n(C Gamma) and every slot i >= 1 reduced modulo scalar
multiples of the identity.  The grid dependence lives entirely in the
scalar part, which carries its derivatives as analytic jets; the algebra
word is grid independent.  The total differential acts by

    d_tot(s x w) = (d_M s) x w + (-1)^p s x (1 (x) w)

on a term of manifold degree p, and the graded product crosses factors
with the Koszul sign (-1)^{q * p'}.

Algebra words multiply by folding the left word into the first slot of
the right one:

    (m_0...m_k)(n_0...n_l)
      = sum_i (-1)^{k-i} m_0 ... m_i m_{i+1} ... m_k n_0 (x) n_1...n_l,

which is the unique product for which a word equals m_0 dm_1 ... dm_k and
the graded Leibniz rule holds.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .group_algebra import GAMatrix

# ---------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------


class CircleGrid:
    """Uniform grid on the circle R/Z with quadrature weight 1/n."""

    ndim = 1

    def __init__(self, n):
        self.n = n
        self.points = np.arange(n) / n
        self.shape = (n,)

    def axes(self):
        return (self.points,)

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


class _JetLayout:
    """Index bookkeeping for stacked jets of one (ndim, order) shape."""

    _cache = {}

    def __new__(cls, ndim, order):
        key = (ndim, order)
        hit = cls._cache.get(key)
        if hit is not None:
            return hit
        self = super().__new__(cls)
        self.ndim = ndim
        self.order = order
        self.indices = _multi_indices(ndim, order)
        self.position = {a: i for i, a in enumerate(self.indices)}
        # Leibniz table: (out, left, right, multinomial coefficient)
        table = []
        for alpha in self.indices:
            o = self.position[alpha]
            for beta in itertools.product(*(range(a + 1) for a in alpha)):
                coeff = 1.0
                for a, b in zip(alpha, beta):
                    coeff *= math.comb(a, b)
                gamma = tuple(a - b for a, b in zip(alpha, beta))
                table.append((o, self.position[beta],
                              self.position[gamma], coeff))
        self.mul_table = table
        # partial-derivative source positions per axis
        self.partials = []
        if order >= 1:
            sub = _multi_indices(ndim, order - 1)
            for ax in range(ndim):
                src = []
                for alpha in sub:
                    shifted = tuple(a + (1 if i == ax else 0)
                                    for i, a in enumerate(alpha))
                    src.append(self.position[shifted])
                self.partials.append(src)
        cls._cache[key] = self
        return self


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

    @property
    def layout(self):
        return _JetLayout(self.grid.ndim, self.order)

    @property
    def data(self):
        lay = self.layout
        return {a: self.stack[i] for i, a in enumerate(lay.indices)}

    @classmethod
    def constant(cls, grid, value, order=2):
        lay = _JetLayout(grid.ndim, order)
        stack = np.zeros((len(lay.indices),) + grid.shape, dtype=complex)
        stack[0] = complex(value)
        return cls(grid, order, stack)

    @classmethod
    def from_arrays(cls, grid, arrays):
        """Build from {multi-index: sample array}; missing jets are zero
        up to the largest supplied order."""
        order = max(sum(a) for a in arrays)
        lay = _JetLayout(grid.ndim, order)
        stack = np.zeros((len(lay.indices),) + grid.shape, dtype=complex)
        for alpha, arr in arrays.items():
            stack[lay.position[alpha]] = np.asarray(
                arr, dtype=complex).reshape(grid.shape)
        return cls(grid, order, stack)

    @classmethod
    def trig(cls, grid, coeffs, order=2):
        """Trigonometric polynomial sum c_m e^{2 pi i m x} on a circle."""
        if grid.ndim != 1:
            raise ValueError("trig jets are one dimensional")
        x = grid.points
        lay = _JetLayout(1, order)
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
        n = len(_JetLayout(self.grid.ndim, order).indices)
        return order, self.stack[:n], other.stack[:n]

    def __add__(self, other):
        order, a, b = self._common(other)
        return JetFunction(self.grid, order, a + b)

    def __sub__(self, other):
        order, a, b = self._common(other)
        return JetFunction(self.grid, order, a - b)

    def __neg__(self):
        return JetFunction(self.grid, self.order, -self.stack)

    def scale(self, c):
        return JetFunction(self.grid, self.order, c * self.stack)

    def __mul__(self, other):
        if not isinstance(other, JetFunction):
            return self.scale(other)
        order, a, b = self._common(other)
        lay = _JetLayout(self.grid.ndim, order)
        out = np.zeros_like(a)
        for o, i, j, coeff in lay.mul_table:
            if coeff == 1.0:
                out[o] += a[i] * b[j]
            else:
                out[o] += coeff * (a[i] * b[j])
        return JetFunction(self.grid, order, out)

    __rmul__ = scale

    def conj(self):
        return JetFunction(self.grid, self.order, np.conj(self.stack))

    def partial(self, axis):
        if self.order < 1:
            raise ValueError("jet order exhausted; build with higher order")
        src = self.layout.partials[axis]
        return JetFunction(self.grid, self.order - 1, self.stack[src])

    def rsqrt(self):
        """Jets of s^{-1/2}; needs strictly positive values."""
        lay = self.layout
        v = self.stack[0]
        if np.any(np.real(v) <= 0):
            raise ValueError("rsqrt needs positive values")
        ndim = self.grid.ndim
        out = np.zeros_like(self.stack)
        out[0] = v ** -0.5
        if self.order >= 1:
            for ax in range(ndim):
                a = tuple(1 if i == ax else 0 for i in range(ndim))
                p = lay.position[a]
                out[p] = -0.5 * self.stack[p] * v ** -1.5
        if self.order >= 2:
            for alpha in lay.indices:
                if sum(alpha) != 2:
                    continue
                # d2(s^-1/2) = (3/4) s_a s_b s^-5/2 - (1/2) s_ab s^-3/2
                nz = [i for i, a in enumerate(alpha) if a]
                if len(nz) == 1:
                    ea = tuple(1 if i == nz[0] else 0 for i in range(ndim))
                    sa = sb = self.stack[lay.position[ea]]
                else:
                    e0 = tuple(1 if i == nz[0] else 0 for i in range(ndim))
                    e1 = tuple(1 if i == nz[1] else 0 for i in range(ndim))
                    sa = self.stack[lay.position[e0]]
                    sb = self.stack[lay.position[e1]]
                out[lay.position[alpha]] = (
                    0.75 * sa * sb * v ** -2.5
                    - 0.5 * self.stack[lay.position[alpha]] * v ** -1.5)
        return JetFunction(self.grid, self.order, out)

    def max_abs(self):
        return float(np.max(np.abs(self.stack[0]), initial=0.0))

    def is_zero(self):
        return not self.stack.any()


# ---------------------------------------------------------------------
# scalar grid forms
# ---------------------------------------------------------------------


def _merge_axes(a, b):
    """Concatenate strictly increasing axis tuples; parity of the sort."""
    if set(a) & set(b):
        return None, 0
    merged = list(a) + list(b)
    sign = 1
    # insertion sort, counting transpositions
    for i in range(1, len(merged)):
        j = i
        while j > 0 and merged[j - 1] > merged[j]:
            merged[j - 1], merged[j] = merged[j], merged[j - 1]
            sign = -sign
            j -= 1
    return tuple(merged), sign


class ScalarForm:
    """Differential form on the grid with JetFunction coefficients.

    comps maps a strictly increasing tuple of axis indices to the
    coefficient jet of dx_{i_1} ^ ... ^ dx_{i_p}; several degrees may be
    present at once.
    """

    __slots__ = ("grid", "comps")

    def __init__(self, grid, comps=None):
        self.grid = grid
        self.comps = {}
        for axes, jet in (comps or {}).items():
            if jet.is_zero():
                continue
            self.comps[axes] = jet

    @classmethod
    def _raw(cls, grid, comps):
        # internal fast path: caller guarantees no pruning is needed
        out = cls.__new__(cls)
        out.grid = grid
        out.comps = comps
        return out

    @classmethod
    def zero(cls, grid):
        return cls(grid, {})

    @classmethod
    def function(cls, jet):
        return cls(jet.grid, {(): jet})

    @classmethod
    def one(cls, grid, order=2):
        return cls(grid, {(): JetFunction.constant(grid, 1.0, order)})

    def __add__(self, other):
        comps = dict(self.comps)
        for axes, jet in other.comps.items():
            if axes in comps:
                comps[axes] = comps[axes] + jet
            else:
                comps[axes] = jet
        return ScalarForm._raw(self.grid, comps)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, c):
        return ScalarForm._raw(
            self.grid, {a: j.scale(c) for a, j in self.comps.items()})

    def conj(self):
        return ScalarForm._raw(
            self.grid, {a: j.conj() for a, j in self.comps.items()})

    def wedge(self, other):
        comps = {}
        for a1, j1 in self.comps.items():
            for a2, j2 in other.comps.items():
                axes, sign = _merge_axes(a1, a2)
                if axes is None:
                    continue
                jet = j1 * j2 if sign == 1 else (j1 * j2).scale(sign)
                if axes in comps:
                    comps[axes] = comps[axes] + jet
                else:
                    comps[axes] = jet
        return ScalarForm._raw(self.grid, comps)

    def d(self):
        comps = {}
        for axes, jet in self.comps.items():
            for ax in range(self.grid.ndim):
                if ax in axes:
                    continue
                merged, sign = _merge_axes((ax,), axes)
                dj = jet.partial(ax) if sign == 1 \
                    else jet.partial(ax).scale(sign)
                if merged in comps:
                    comps[merged] = comps[merged] + dj
                else:
                    comps[merged] = dj
        return ScalarForm._raw(self.grid, comps)

    def degrees(self):
        return sorted({len(a) for a in self.comps})

    def split(self):
        """Yield (degree, pure ScalarForm) pieces."""
        for p in self.degrees():
            comps = {a: j for a, j in self.comps.items() if len(a) == p}
            yield p, ScalarForm._raw(self.grid, comps)

    def component(self, axes):
        jet = self.comps.get(tuple(axes))
        if jet is None:
            return np.zeros(self.grid.shape, dtype=complex)
        return jet.value()

    def integrate(self):
        """Integral of the top-degree component over the whole grid."""
        top = (tuple(range(self.grid.ndim))
               if self.grid.ndim else ())
        jet = self.comps.get(top)
        if jet is None:
            return 0j
        return complex(np.mean(jet.value()))

    def max_abs(self):
        return max((j.max_abs() for j in self.comps.values()), default=0.0)

    def is_zero(self):
        return not self.comps


# ---------------------------------------------------------------------
# algebra words
# ---------------------------------------------------------------------


def _canonical_word(word):
    """Reduce slots >= 1 modulo the scalar identity; None if a slot dies."""
    out = [word[0]]
    for m in word[1:]:
        c = m.canonical()
        if c.is_zero():
            return None
        out.append(c)
    return tuple(out)


def _word_key(word):
    return tuple(m.key() for m in word)


def _word_mul(w, v):
    """Products of tensor words: fold w into the leading slot of v."""
    k = len(w) - 1
    combined = w + (v[0],)
    out = []
    for i in range(k + 1):
        sign = -1 if (k - i) % 2 else 1
        merged = combined[i] @ combined[i + 1]
        slots = combined[:i] + (merged,) + combined[i + 2:] + v[1:]
        out.append((sign, slots))
    return out


# ---------------------------------------------------------------------
# mixed forms
# ---------------------------------------------------------------------


class MixedForm:
    """Finite sum of (scalar grid form) x (algebra tensor word) terms."""

    __slots__ = ("grid", "spec", "size", "kalg", "terms", "dropped")

    def __init__(self, grid, spec, size, kalg=4):
        self.grid = grid
        self.spec = spec
        self.size = size
        self.kalg = kalg
        self.terms = {}
        self.dropped = False

    # -- construction ---------------------------------------------------
    @classmethod
    def zero(cls, grid, spec, size, kalg=4):
        return cls(grid, spec, size, kalg)

    @classmethod
    def one(cls, grid, spec, size, kalg=4, order=2):
        out = cls(grid, spec, size, kalg)
        out.add_term(ScalarForm.one(grid, order),
                     (GAMatrix.identity(spec, size),))
        return out

    def add_term(self, sform, word):
        if len(word) - 1 > self.kalg:
            self.dropped = True
            return
        word = _canonical_word(word)
        if word is None or sform.is_zero():
            return
        self._merge((len(word), _word_key(word)), word, sform)

    def _merge(self, key, word, sform):
        """Add a term whose word is canonical and keyed; drop it if it
        cancels."""
        slot = self.terms.get(key)
        if slot is None:
            self.terms[key] = [word, sform]
        else:
            merged = slot[1] + sform
            if merged.is_zero():
                del self.terms[key]
            else:
                slot[1] = merged

    def _spawn(self, kalg=None):
        out = MixedForm(self.grid, self.spec, self.size,
                        self.kalg if kalg is None else kalg)
        out.dropped = self.dropped
        return out

    def _check(self, other):
        if (self.grid != other.grid or self.spec != other.spec
                or self.size != other.size):
            raise ValueError("incompatible mixed forms")

    # -- linear structure -------------------------------------------------
    def __add__(self, other):
        self._check(other)
        out = self._spawn(min(self.kalg, other.kalg))
        out.dropped = self.dropped or other.dropped
        # both operands' words are canonical already: merge them by key
        for terms in (self.terms, other.terms):
            for key, (word, sform) in terms.items():
                if len(word) - 1 > out.kalg:
                    out.dropped = True
                else:
                    out._merge(key, word, sform)
        return out

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, c):
        out = self._spawn()
        for word, sform in self.terms.values():
            out.add_term(sform.scale(c), word)
        return out

    def __neg__(self):
        return self.scale(-1.0)

    # -- graded product ---------------------------------------------------
    def __matmul__(self, other):
        self._check(other)
        out = self._spawn(min(self.kalg, other.kalg))
        out.dropped = self.dropped or other.dropped
        for w, sw in self.terms.values():
            qw = len(w) - 1
            for v, sv in other.terms.values():
                if qw + len(v) - 1 > out.kalg:
                    out.dropped = True
                    continue
                for p2, s2 in sv.split():
                    sign = -1 if (qw * p2) % 2 else 1
                    scalar = sw.wedge(s2).scale(sign)
                    if scalar.is_zero():
                        continue
                    for wsign, word in _word_mul(w, v):
                        out.add_term(scalar.scale(wsign), word)
        return out

    # -- differential -------------------------------------------------
    def dtot(self):
        """Total differential d_M + (-1)^p (prepend unit slot)."""
        return self.dtot_manifold() + self.dtot_algebra()

    def dtot_manifold(self):
        out = self._spawn()
        for word, sform in self.terms.values():
            dm = sform.d()
            if not dm.is_zero():
                out.add_term(dm, word)
        return out

    def dtot_algebra(self):
        out = self._spawn()
        ident = GAMatrix.identity(self.spec, self.size)
        for word, sform in self.terms.values():
            if len(word) > self.kalg:
                out.dropped = True
                continue
            for p, s in sform.split():
                out.add_term(s.scale(-1.0 if p % 2 else 1.0),
                             (ident,) + word)
        return out

    # -- trace ---------------------------------------------------------
    def graded_trace(self):
        """Matrix trace into forms over the scalar algebra (size 1).

        Tensor slots are kept; only the matrix indices are traced out:
        m_0 (x) ... (x) m_q goes to the sum over index cycles of
        m_0[i_0,i_1] (x) m_1[i_1,i_2] (x) ... (x) m_q[i_q,i_0].
        """
        out = MixedForm(self.grid, self.spec, 1, self.kalg)
        out.dropped = self.dropped
        n = self.size
        for word, sform in self.terms.values():
            entries = [[[m.entry(i, j) for j in range(n)] for i in range(n)]
                       for m in word]
            q = len(word) - 1
            for cycle in itertools.product(range(n), repeat=q + 1):
                gas = []
                dead = False
                for s in range(q + 1):
                    ga = entries[s][cycle[s]][cycle[(s + 1) % (q + 1)]]
                    if not ga.terms:
                        dead = True
                        break
                    gas.append(ga)
                if dead:
                    continue
                out.add_term(sform,
                             tuple(GAMatrix.from_ga(ga, 1) for ga in gas))
        return out

    # -- inspection ------------------------------------------------------
    def star(self):
        """Adjoint, defined for forms of algebra degree zero."""
        out = self._spawn()
        for word, sform in self.terms.values():
            if len(word) != 1:
                raise ValueError("star only on algebra-degree-0 forms")
            out.add_term(sform.conj(), (word[0].star(),))
        return out

    def components(self):
        """Occupied (manifold degree, algebra degree) pairs."""
        out = set()
        for word, sform in self.terms.values():
            for p, _ in sform.split():
                out.add((p, len(word) - 1))
        return sorted(out)

    def algebra_component(self, q):
        out = self._spawn()
        for word, sform in self.terms.values():
            if len(word) - 1 == q:
                out.add_term(sform, word)
        return out

    def scalar_part(self):
        """ScalarForm of the algebra-degree-0, identity-coefficient part.

        Only meaningful once the matrix size is 1 (after graded_trace).
        """
        if self.size != 1:
            raise ValueError("scalar_part needs a traced (size-1) form")
        total = ScalarForm.zero(self.grid)
        for word, sform in self.terms.values():
            if len(word) != 1:
                continue
            c = word[0].entry(0, 0).trace_e()
            if c:
                total = total + sform.scale(c)
        return total

    def max_abs(self):
        """Faithful sup seminorm: expand words over the elementary basis
        (group element, row, column) per slot and take the largest
        accumulated coefficient magnitude."""
        groups = {}
        for word, sform in self.terms.values():
            elem = [m.elementary() for m in word]
            for axes, jet in sform.comps.items():
                groups.setdefault((len(word), axes), []).append(
                    (elem, jet.value()))
        best = 0.0
        for (q, _axes), entries in groups.items():
            spaces = [{} for _ in range(q)]
            for elem, _ in entries:
                for s in range(q):
                    sp = spaces[s]
                    for key, _c in elem[s]:
                        if key not in sp:
                            sp[key] = len(sp)
            shape = tuple(len(sp) for sp in spaces)
            acc = np.zeros(shape + self.grid.shape, dtype=complex)
            for elem, vals in entries:
                coeff = None
                for s in range(q):
                    sp = spaces[s]
                    vec = np.zeros(len(sp), dtype=complex)
                    for key, c in elem[s]:
                        vec[sp[key]] = c
                    coeff = vec if coeff is None \
                        else np.multiply.outer(coeff, vec)
                acc += np.multiply.outer(coeff, vals)
            m = float(np.max(np.abs(acc)))
            if m > best:
                best = m
        return best


def form_dtot(omega):
    """Total differential of a mixed form."""
    return omega.dtot()


def form_mul(alpha, beta):
    """Graded product of mixed forms."""
    return alpha @ beta


def graded_trace(omega):
    """Matrix trace of a mixed form into the scalar algebra."""
    return omega.graded_trace()
