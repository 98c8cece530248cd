"""Cyclic cochains on group algebras and the group-cohomology dictionary.

Cochains are memoised evaluator callbacks or, over Z/k, one value per
rotation orbit (`orbit_index`), read on whole arrays of tuples: a chain
pairs in one contraction, a dense form block through its mask of live
tuples.  The dictionary between alternating invariant group cochains tau
and cyclic cochains c supported at the identity conjugacy class follows

    c_tau(g_0,...,g_n) = tau(e, g_1, g_1 g_2, ..., g_1...g_n)
                         when g_0 g_1 ... g_n = e, else 0,
    tau_c(e, g_1,...,g_n) = c(g_n^{-1}, g_1, g_1^{-1} g_2, ...,
                              g_{n-1}^{-1} g_n),

with degree 0 excluded (the canonical trace plays that role directly).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import IllConditioned, NotAProjection, UnsupportedDegree
from .group_algebra import GAMatrix
from .nc_forms import ScalarForm

#: `chern_lambda`'s projection residual, `closed_cocycle_basis`'s gap
TOL = 1e-10

# ---------------------------------------------------------------------
# group cochains
# ---------------------------------------------------------------------


class GroupCocycle:
    """Degree-n multilinear evaluator on (n+1)-tuples of group elements."""

    def __init__(self, spec, degree, fn):
        self.spec = spec
        self.degree = degree
        self._fn = fn
        self._memo = {}

    def __call__(self, *args):
        if len(args) != self.degree + 1:
            raise ValueError(f"expected {self.degree + 1} arguments")
        val = self._memo.get(args)
        if val is None:
            val = complex(self._fn(*args))
            self._memo[args] = val
        return val


def d_gamma(tau):
    """Simplicial differential: alternating sum over dropped arguments."""
    n = tau.degree

    def fn(*args):
        total = 0j
        for j in range(n + 2):
            sub = args[:j] + args[j + 1:]
            term = tau(*sub)
            total += term if j % 2 == 0 else -term
        return total

    return GroupCocycle(tau.spec, n + 1, fn)


# ---------------------------------------------------------------------
# cyclic cochains
# ---------------------------------------------------------------------


class CyclicCochain(GroupCocycle):
    """Degree-n evaluator on group tuples, extended multilinearly.

    A function cochain memoises the values of `fn`.  An orbit cochain
    over Z/k (`on_orbits`) stores only `orbits`, its values on the
    orbits of `orbit_index`; `orbits` is None for function cochains.
    """

    orbits = None

    @classmethod
    def on_orbits(cls, spec, degree, vec):
        phi = cls(spec, degree, None)
        phi.orbits = vec
        return phi

    def _lookup(self, index):
        _, column, sign = orbit_index(self.spec.order, self.degree)
        return self.orbits.take(column[index]) * sign[index]

    def __call__(self, *args):
        if self.orbits is None or len(args) != self.degree + 1:
            # the memoised evaluator, which also rejects a wrong arity
            return GroupCocycle.__call__(self, *args)
        return complex(self._lookup(args))

    @property
    def table(self):
        """The values on the lattice (k,)*(n+1), built on each read (None
        for a function cochain)."""
        return None if self.orbits is None else self._lookup(...)

    def values(self, tuples):
        """The values, as an array, on an iterable of group tuples or on
        the tuples of a boolean lattice mask (in C order): one indexing
        step for an orbit cochain, one call per tuple otherwise."""
        if self.orbits is None:
            if isinstance(tuples, np.ndarray):
                tuples = zip(*(idx.tolist() for idx in np.nonzero(tuples)))
            return np.array([self(*t) for t in tuples])
        if not isinstance(tuples, np.ndarray):
            index = np.fromiter(itertools.chain.from_iterable(tuples), int)
            tuples = tuple(index.reshape(-1, self.degree + 1).T)
        return self._lookup(tuples)

    def cyclic_defect(self, rng, samples=20):
        """Deviation from phi(lambda x) = phi(x) with the (-1)^n sign."""
        pool = self.spec.ball(2)
        n = self.degree
        sign = -1.0 if n % 2 else 1.0
        worst = 0.0
        for _ in range(samples):
            tup = tuple(pool[int(i)] for i in
                        rng.integers(0, len(pool), n + 1))
            rot = (tup[-1],) + tup[:-1]
            worst = max(worst, abs(self(*tup) - sign * self(*rot)))
        return worst


def b_transpose(phi):
    """Transpose Hochschild-cyclic boundary, raising the degree by one."""
    n = phi.degree
    spec = phi.spec

    def fn(*args):
        total = 0j
        for i in range(n + 1):
            merged = args[:i] + (spec.mul(args[i], args[i + 1]),) \
                + args[i + 2:]
            term = phi(*merged)
            total += term if i % 2 == 0 else -term
        wrap = (spec.mul(args[n + 1], args[0]),) + args[1:n + 1]
        term = phi(*wrap)
        total += term if (n + 1) % 2 == 0 else -term
        return total

    return CyclicCochain(spec, n + 1, fn)


def tau_to_c(tau):
    """Alternating invariant group cochain -> cyclic cochain at <e>."""
    n = tau.degree
    if n == 0:
        raise UnsupportedDegree("degree 0 is handled by the trace directly")
    spec = tau.spec
    e = spec.identity()

    def fn(*args):
        prod = args[0]
        for g in args[1:]:
            prod = spec.mul(prod, g)
        if prod != e:
            return 0j
        acc = e
        pts = [e]
        for g in args[1:]:
            acc = spec.mul(acc, g)
            pts.append(acc)
        return tau(*pts)

    return CyclicCochain(spec, n, fn)


def c_to_tau(c):
    """Cyclic cochain at <e> -> alternating invariant group cochain."""
    n = c.degree
    if n == 0:
        raise UnsupportedDegree("degree 0 is handled by the trace directly")
    spec = c.spec

    def fn(*args):
        base = spec.inv(args[0])
        h = [spec.mul(base, g) for g in args[1:]]
        slots = [spec.inv(h[-1])]
        prev = None
        for x in h:
            slots.append(x if prev is None else spec.mul(spec.inv(prev), x))
            prev = x
        return c(*slots)

    return GroupCocycle(spec, n, fn)


# ---------------------------------------------------------------------
# cyclic chains and the cyclic Chern character
# ---------------------------------------------------------------------


class CyclicChain:
    """The group tensor words over a support, with coefficient
    coeffs[i_0, ..., i_n] on (support[i_0], ..., support[i_n])."""

    def __init__(self, spec, support, coeffs):
        self.spec = spec
        self.support = support
        self.coeffs = coeffs
        self.degree = coeffs.ndim - 1

    def words(self):
        return itertools.product(self.support, repeat=self.degree + 1)

    @functools.cached_property
    def terms(self):
        """{word: coefficient} over the nonzero coefficients."""
        return {t: c for t, c in zip(self.words(),
                                     self.coeffs.ravel().tolist()) if c}

    def pair(self, phi):
        if phi.degree != self.degree:
            raise ValueError("degree mismatch in chain pairing")
        if phi.orbits is None:
            values = phi.values(self.words())
        else:
            # coeffs[i] is the coefficient of the word support[i]: the
            # lattice table taken at the support along every axis
            values = phi.table
            for axis in range(self.degree + 1):
                values = values.take(self.support, axis=axis)
        return complex(np.dot(self.coeffs.ravel(), np.ravel(values)))


def chern_lambda(p, m_max):
    """Cyclic Chern character chains of a projection matrix over C Gamma.

    Returns one chain per even degree 2m, m = 0..m_max: the matrix trace
    of the (2m+1)-fold tensor power of p with sign (-1)^m, expanded into
    group tensor words over the support of p.  With E[i, j, s] the
    coefficient of the s-th support element in p[i, j], chain 2m is the
    cyclic contraction of 2m+1 copies of E over the matrix indices.
    Over Z/k, p is checked on its (k, n, n) coefficient stack
    (`_cyclic_defects`); over other groups in `GAMatrix` arithmetic.
    """
    if not isinstance(p, GAMatrix):
        raise TypeError("chern_lambda expects a GAMatrix projection")
    if p.spec.is_finite:
        square, adjoint = _cyclic_defects(p)
    else:
        square, adjoint = (p @ p - p).max_abs(), (p.star() - p).max_abs()
    if square > TOL or adjoint > TOL:
        raise NotAProjection("p fails p^2 = p or p* = p")
    n = p.n
    support = list(p.parts)
    E = np.moveaxis(np.reshape(list(p.parts.values()), (-1, n, n)), 0, -1)
    chains = []
    for m in range(m_max + 1):
        slots = 2 * m + 1
        coeffs = np.einsum(*_cyclic_operands(E, slots),
                           optimize=_cyclic_path(slots, E.shape))
        chains.append(CyclicChain(p.spec, support,
                                  -coeffs if m % 2 else coeffs))
    return chains


def _cyclic_defects(p):
    """max |p p - p| and max |p* - p| of a matrix over C[Z/k], on its
    coefficient stack P[g]: (p p)[h] is the sum over g of P[g] P[h - g],
    one `einsum` over the index table (h - g) mod k, and p*[g] is the
    conjugate transpose of P[-g]."""
    k = p.spec.order
    P = np.zeros((k, p.n, p.n), dtype=complex)
    for g, m in p.parts.items():
        P[g] = m
    els = np.arange(k)
    square = np.einsum("gij,ghjl->hil", P, P[(els - els[:, None]) % k])
    adjoint = np.conj(P[-els]).swapaxes(1, 2)
    return float(np.max(np.abs(square - P))), float(np.max(np.abs(
        adjoint - P)))


def _cyclic_operands(E, slots):
    """Interleaved einsum operands of the chain of `slots` copies of E."""
    operands = []
    for s in range(slots):
        operands += [E, [s, (s + 1) % slots, slots + s]]
    return operands + [list(range(slots, 2 * slots))]


@functools.lru_cache(maxsize=None)
def _cyclic_path(slots, shape):
    """The path `optimize=True` finds for `_cyclic_operands` on an E of
    `shape`, searched once per chain and shape."""
    E = np.broadcast_to(0.0, shape)
    return np.einsum_path(*_cyclic_operands(E, slots), optimize=True)[0]


# ---------------------------------------------------------------------
# pairing cochains against mixed forms
# ---------------------------------------------------------------------


def pair_cochain_form(phi, omega):
    """Pair a cyclic cochain with the matching algebra-degree component.

    The matrix indices are traced out first; then each entry of algebra
    degree phi.degree contributes phi(g_0, ..., g_n) times its jets, one
    contraction per block (over Z/k, of the values at its live mask).
    The result is a scalar grid form of the manifold degrees present.
    """
    traced = omega if omega.size == 1 else omega.graded_trace()
    out = ScalarForm(omega.grid)
    lay = traced.layout
    out.add_entries((ScalarForm.E, axes, lay.pair(block, phi.values))
                    for (q, axes), block in traced.terms.items()
                    if q == phi.degree)
    return out


# ---------------------------------------------------------------------
# closed cocycles on finite cyclic groups as the image of b^t
# ---------------------------------------------------------------------


def _rotations(tuples, k):
    """Flat lattice indices of the rotations of an (m, N) tuple array
    over Z/k: row s of the result rolls the tuples by s slots."""
    m = len(tuples)
    return np.stack([np.ravel_multi_index(np.roll(tuples, s, axis=0),
                                          (k,) * m) for s in range(m)])


@functools.cache
def orbit_index(k, degree):
    """(count, column, sign): the coordinates of normalized cyclic
    cochains over Z/k.  The tuples with no identity entry fall into
    count rotation orbits, numbered in lexicographic order of their first
    members.  On the lattice (k,)*(degree+1), column is a tuple's orbit
    and sign the factor (-1)^(degree s) to its value from the first
    member, s slots of rotation away; sign is 0 on the other tuples and
    on orbits that meet themselves with the opposite sign.  The cochain
    with orbit values vec takes sign[t] * vec[column[t]] at t.
    """
    m = degree + 1
    tuples = np.indices((k - 1,) * m).reshape(m, -1) + 1
    rots = _rotations(tuples, k)
    odd = degree * np.arange(m) % 2 == 1
    rel = np.where(odd[rots.argmin(axis=0)], -1.0, 1.0)
    rel[(odd[:, None] & (rots == rots[0])).any(axis=0)] = 0.0
    labels, number = np.unique(rots.min(axis=0), return_inverse=True)
    column = np.zeros((k,) * m, dtype=int)
    column[tuple(tuples)] = number
    sign = np.zeros((k,) * m)
    sign[tuple(tuples)] = rel
    column.flags.writeable = sign.flags.writeable = False
    return len(labels), column, sign


@functools.cache
def _live_orbits(k, degree):
    """The orbits of `orbit_index(k, degree)` on the support (product e)
    that are not forced to zero, and the lattice index of each one's
    first member, as read-only arrays."""
    _, column, sign = orbit_index(k, degree)
    on_support = sum(np.indices(column.shape, sparse=True)) % k == 0
    flat = np.flatnonzero(on_support & (sign != 0))
    live, first = np.unique(column.ravel()[flat], return_index=True)
    index = np.unravel_index(flat[first], column.shape)
    for arr in (live, *index):
        arr.flags.writeable = False
    return live, index


def closed_cocycle_basis(spec, degree):
    """Basis of b^t-closed normalized invariant cyclic cochains at <e>.

    Over Z/k these cochains are exact in positive degrees: every closed
    one is b^t psi for a cochain psi one degree down (the reduced cyclic
    cohomology of C[Z/k] vanishes at the identity class).  So the basis
    spans the range of the matrix M of b^t from the live orbits of
    `orbit_index` in degree n-1 to those in degree n; row r of M holds
    the n + 1 signed merges of orbit r's first member.  The left singular
    vectors of M with squared singular values above TOL times max(1,
    largest) span that range; a squared value above that but below
    sqrt(TOL) times it leaves no clear gap and raises IllConditioned.
    Returns orbit cochains with real orthonormal orbit values.
    """
    if not spec.is_finite:
        raise ValueError("closed cocycles need a finite cyclic group")
    if degree < 0:
        raise ValueError(f"degree {degree} is negative")
    k = spec.order
    n = degree
    rows, x = _live_orbits(k, n)
    cols = _live_orbits(k, n - 1)[0] if n else []
    if not len(rows) or not len(cols):
        return []
    count, column, sign = orbit_index(k, n - 1)
    var = np.zeros(count, dtype=int)
    var[cols] = np.arange(len(cols))
    # one entry per row in each turn; sign is 0 where a merge gives e
    mat = np.zeros((len(rows), len(cols)))
    r = np.arange(len(rows))
    for i in range(n + 1):
        if i < n:
            at = x[:i] + ((x[i] + x[i + 1]) % k,) + x[i + 2:]
        else:
            at = ((x[n] + x[0]) % k,) + x[1:n]
        mat[r, var[column[at]]] += (-1) ** i * sign[at]
    u, svals, _ = np.linalg.svd(mat, full_matrices=False)
    sq = svals ** 2
    scale = max(1.0, sq[0])
    if np.any((sq > TOL * scale) & (sq < np.sqrt(TOL) * scale)):
        raise IllConditioned("a squared singular value of the b^t matrix "
                             "lies between tol and sqrt(tol) of its scale")
    vecs = np.zeros((int(np.sum(sq > TOL * scale)), orbit_index(k, n)[0]))
    vecs[:, rows] = u[:, :len(vecs)].T
    return [CyclicCochain.on_orbits(spec, n, v) for v in vecs]


def random_closed_cocycle(spec, degree, rng, basis=None):
    """Seeded random combination of the closed-cocycle basis.

    The orbit values of the basis (as from `closed_cocycle_basis`, real)
    are combined once into a single orbit cochain with complex values,
    by the real and the imaginary weights in turn, so that a real basis
    matrix is never cast to complex.
    """
    if basis is None:
        basis = closed_cocycle_basis(spec, degree)
    if not basis:
        raise ValueError(f"no closed cocycles in degree {degree} over "
                         f"{spec}")
    w = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(
        len(basis))
    mat = np.array([b.orbits for b in basis])
    return CyclicCochain.on_orbits(
        spec, degree, np.dot(w.real, mat) + 1j * np.dot(w.imag, mat))
