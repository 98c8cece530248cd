"""Cyclic cochains on group algebras and the group-cohomology dictionary.

Cochains are memoised evaluator callbacks or, over Z/k, dense tables
on the tuple lattice (k,)*(n+1), which are read many tuples at a time.
The dictionary between alternating invariant group cochains tau and
cyclic cochains c supported at the identity conjugacy class follows

    c_tau(g_0,...,g_n) = tau(e, g_1, g_1 g_2, ..., g_1...g_n)
                         when g_0 g_1 ... g_n = e, else 0,
    tau_c(e, g_1,...,g_n) = c(g_n^{-1}, g_1, g_1^{-1} g_2, ...,
                              g_{n-1}^{-1} g_n),

with degree 0 excluded (the canonical trace plays that role directly).
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import NotAProjection, UnsupportedDegree
from .group_algebra import GAMatrix
from .nc_forms import JetFunction, ScalarForm

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


class CyclicCochain:
    """Degree-n evaluator on group tuples, extended multilinearly.

    A function cochain memoises the values of `fn`.  A table cochain
    over Z/k (`from_table`) reads its values from `table`, a complex
    array of shape (k,)*(n+1) indexed by the group tuple, and stores
    nothing; `table` is None for function cochains.
    """

    def __init__(self, spec, degree, fn):
        self.spec = spec
        self.degree = degree
        self._fn = fn
        self._memo = {}
        self.table = None

    @classmethod
    def from_table(cls, spec, degree, table):
        phi = cls(spec, degree, None)
        phi._memo = None
        phi.table = table
        return phi

    def __call__(self, *args):
        if len(args) != self.degree + 1:
            raise ValueError(f"expected {self.degree + 1} arguments")
        if self.table is not None:
            return complex(self.table[args])
        val = self._memo.get(args)
        if val is None:
            val = complex(self._fn(*args))
            self._memo[args] = val
        return val

    def values(self, tuples):
        """The values on an iterable of group tuples, as a list of complex:
        one indexing step for a table cochain, one call per tuple
        otherwise."""
        if self.table is None:
            return [self(*t) for t in tuples]
        index = np.fromiter(itertools.chain.from_iterable(tuples), int)
        index = index.reshape(-1, self.degree + 1).T
        return self.table[tuple(index)].tolist()

    def cyclic_defect(self, rng, samples=20, radius=2):
        """Deviation from phi(lambda x) = phi(x) with the (-1)^n sign."""
        pool = self.spec.ball(radius)
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
    """Finite combination of group tensor words of a fixed degree."""

    __slots__ = ("spec", "degree", "terms")

    def __init__(self, spec, degree, terms=None):
        self.spec = spec
        self.degree = degree
        self.terms = {t: complex(c) for t, c in (terms or {}).items()
                      if c != 0}

    def pair(self, phi):
        if phi.degree != self.degree:
            raise ValueError("degree mismatch in chain pairing")
        return sum(c * v for c, v in zip(self.terms.values(),
                                          phi.values(self.terms)))


def chern_lambda(p, m_max, tol=1e-10):
    """Cyclic Chern character chains of a projection matrix over C Gamma.

    Returns one chain per even degree 2m, m = 0..m_max: the matrix trace
    of the (2m+1)-fold tensor power of p with sign (-1)^m, expanded into
    group tensor words over the support of p.  With E[i, j, s] the
    coefficient of the s-th support element in p[i, j], chain 2m is the
    cyclic contraction of 2m+1 copies of E over the matrix indices.
    """
    if not isinstance(p, GAMatrix):
        raise TypeError("chern_lambda expects a GAMatrix projection")
    if (p @ p - p).max_abs() > tol or (p.star() - p).max_abs() > tol:
        raise NotAProjection("p fails p^2 = p or p* = p")
    n = p.n
    support = list(p.parts)
    E = np.moveaxis(np.reshape(list(p.parts.values()), (-1, n, n)), 0, -1)
    chains = []
    for m in range(m_max + 1):
        slots = 2 * m + 1
        operands = []
        for s in range(slots):
            operands += [E, [s, (s + 1) % slots, slots + s]]
        coeffs = np.einsum(*operands, list(range(slots, 2 * slots)),
                           optimize=True).ravel()
        if m % 2:
            coeffs = -coeffs
        words = itertools.product(support, repeat=slots)
        chains.append(CyclicChain(p.spec, 2 * m,
                                  dict(zip(words, coeffs.tolist()))))
    return chains


# ---------------------------------------------------------------------
# pairing cochains against mixed forms
# ---------------------------------------------------------------------


def pair_cochain_form(phi, omega):
    """Pair a cyclic cochain with the matching algebra-degree component.

    The matrix indices are traced out first; then each entry of algebra
    degree phi.degree contributes phi(g_0, ..., g_n) times its jets.  The
    result is a scalar grid form of whatever manifold degrees are present.
    """
    traced = omega if omega.size == 1 else omega.graded_trace()
    return ScalarForm(omega.grid, {
        axes: JetFunction.from_stack(omega.grid, np.tensordot(
            phi.values(tuples), arrays[:, 0, 0], 1))
        for q, axes, tuples, arrays in traced.stacks() if q == phi.degree})


# ---------------------------------------------------------------------
# closed cocycles on finite cyclic groups by enumeration
# ---------------------------------------------------------------------


def rotation_orbits(tuples, k):
    """The signed rotation orbits of an (m, N) array of tuples over Z/k.

    Returns two (N,) arrays.  orbit labels a tuple's orbit by its
    smallest flat index in the lattice (k,)*m, so sorting the labels
    gives the order of first appearance in lexicographic order.  A
    degree m-1 cyclic cochain takes the value (-1)^((m-1) s) phi(x) on x
    rotated by s slots, and sign is that factor relative to the smallest
    member; it is 0 on an orbit that meets itself with the opposite
    sign, which forces every cyclic cochain to vanish there.
    """
    m = len(tuples)
    rots = np.stack([np.ravel_multi_index(np.roll(tuples, s, axis=0),
                                          (k,) * m) for s in range(m)])
    odd = (m - 1) * np.arange(m) % 2 == 1
    dead = (odd[:, None] & (rots == rots[0])).any(axis=0)
    sign = np.where(odd[rots.argmin(axis=0)], -1.0, 1.0)
    sign[dead] = 0.0
    return rots.min(axis=0), sign


def closed_cocycle_basis(spec, degree, tol=1e-10):
    """Basis of b^t-closed normalized invariant cyclic cochains at <e>.

    The variables are the signed rotation orbits of the Z/k tuples with
    all entries != e and product e that are not forced to zero.  Since
    b^t maps cyclic cochains to cyclic ones, the rows of b^t phi = 0 at
    y and at a rotation of y agree up to sign, so one reduced chain per
    rotation orbit gives all the equations; their dense null space is
    the basis.  Returns table cochains spanning the kernel.
    """
    if not spec.is_finite:
        raise ValueError("enumeration needs a finite cyclic group")
    k = spec.order
    n = degree
    shape = (k,) * (n + 1)

    # one variable per orbit of support tuples that is not forced to zero
    nonzero = np.indices((k - 1,) * (n + 1)).reshape(n + 1, -1) + 1
    tuples = nonzero[:, nonzero.sum(axis=0) % k == 0]
    orbit, sign = rotation_orbits(tuples, k)
    live = sign != 0
    if not live.any():
        return []
    tuples, sign = tuples[:, live], sign[live]
    labels, var = np.unique(orbit[live], return_inverse=True)
    column = np.zeros(shape, dtype=int)
    column[tuple(tuples)] = var
    signs = np.zeros(shape)
    signs[tuple(tuples)] = sign

    # the reduced chains: nonzero tail, product e; one per rotation orbit.
    # A merge off the support has sign 0, so it adds nothing to column 0.
    y = np.vstack([-nonzero.sum(axis=0) % k, nonzero])
    y = y[:, np.unique(rotation_orbits(y, k)[0], return_index=True)[1]]
    mat = np.zeros((y.shape[1], len(labels)))
    rows = np.arange(y.shape[1])
    for i in range(n + 2):
        if i <= n:
            merged = np.vstack([y[:i], (y[i] + y[i + 1]) % k, y[i + 2:]])
        else:
            merged = np.vstack([(y[n + 1] + y[0]) % k, y[1:n + 1]])
        at = tuple(merged)
        np.add.at(mat, (rows, column[at]), (-1) ** i * signs[at])
    # the null space needs all of V but none of U beyond rank(mat)
    _, svals, vh = np.linalg.svd(mat,
                                 full_matrices=mat.shape[0] < mat.shape[1])
    null_dim = int(np.sum(svals <= tol * max(1.0, svals[0] if len(svals)
                                             else 1.0)))
    null_dim += vh.shape[0] - len(svals)
    tables = np.zeros((null_dim,) + shape, dtype=complex)
    tables[(slice(None),) + tuple(tuples)] = \
        sign * vh[vh.shape[0] - null_dim:, var]
    return [CyclicCochain.from_table(spec, n, t) for t in tables]


def random_closed_cocycle(spec, degree, rng, basis=None):
    """Seeded random combination of the closed-cocycle basis.

    The basis tables (as from `closed_cocycle_basis`) are combined once
    into a single table cochain with complex values.
    """
    if basis is None:
        basis = closed_cocycle_basis(spec, degree)
    if not basis:
        raise ValueError(f"no closed cocycles in degree {degree} over "
                         f"{spec}")
    w = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(
        len(basis))
    return CyclicCochain.from_table(spec, degree, np.tensordot(
        w, np.stack([b.table for b in basis]), 1))
