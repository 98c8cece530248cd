"""Cyclic cochains on group algebras and the group-cohomology dictionary.

Cochains are evaluator callbacks with memo tables rather than dense
tensors, since only finitely many tuples are queried per run.  The
dictionary between alternating invariant group cochains tau and cyclic
cochains c supported at the identity conjugacy class follows

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

from .errors import NotAProjection, UnsupportedDegree
from .group_algebra import GAMatrix
from .nc_forms import ScalarForm

# ---------------------------------------------------------------------
# group cochains
# ---------------------------------------------------------------------


class GroupCocycle:
    """Degree-n multilinear evaluator on (n+1)-tuples of group elements."""

    def __init__(self, spec, degree, fn, alternating=False, invariant=False):
        self.spec = spec
        self.degree = degree
        self._fn = fn
        self.alternating = alternating
        self.invariant = invariant
        self._memo = {}

    def __call__(self, *args):
        if len(args) != self.degree + 1:
            raise ValueError(f"expected {self.degree + 1} arguments")
        key = tuple(args)
        val = self._memo.get(key)
        if val is None:
            val = complex(self._fn(*args))
            self._memo[key] = val
        return val

    def invariance_defect(self, rng, samples=20, radius=2):
        pool = self.spec.ball(radius)
        worst = 0.0
        for _ in range(samples):
            tup = [pool[int(i)] for i in
                   rng.integers(0, len(pool), self.degree + 1)]
            g = pool[int(rng.integers(0, len(pool)))]
            shifted = [self.spec.mul(g, t) for t in tup]
            worst = max(worst, abs(self(*tup) - self(*shifted)))
        return worst

    def alternating_defect(self, rng, samples=20, radius=2):
        pool = self.spec.ball(radius)
        worst = 0.0
        for _ in range(samples):
            tup = [pool[int(i)] for i in
                   rng.integers(0, len(pool), self.degree + 1)]
            i, j = rng.choice(self.degree + 1, size=2, replace=False)
            swapped = list(tup)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            worst = max(worst, abs(self(*tup) + self(*swapped)))
        return worst


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

    return GroupCocycle(tau.spec, n + 1, fn,
                        alternating=tau.alternating,
                        invariant=tau.invariant)


# ---------------------------------------------------------------------
# cyclic cochains
# ---------------------------------------------------------------------


class CyclicCochain:
    """Degree-n evaluator on group tuples, extended multilinearly.

    normalized: vanishes whenever a slot i >= 1 carries the identity.
    e_supported: vanishes unless the product of all slots is the identity.
    """

    def __init__(self, spec, degree, fn, normalized=False,
                 e_supported=False):
        self.spec = spec
        self.degree = degree
        self._fn = fn
        self.normalized = normalized
        self.e_supported = e_supported
        self._memo = {}

    def __call__(self, *args):
        if len(args) != self.degree + 1:
            raise ValueError(f"expected {self.degree + 1} arguments")
        key = tuple(args)
        val = self._memo.get(key)
        if val is None:
            val = complex(self._fn(*args))
            self._memo[key] = val
        return val

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

    return CyclicCochain(spec, n + 1, fn, normalized=phi.normalized,
                         e_supported=phi.e_supported)


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

    return CyclicCochain(spec, n, fn, normalized=True, e_supported=True)


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

    return GroupCocycle(spec, n, fn, alternating=True, invariant=True)


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
        return sum(c * phi(*t) for t, c in self.terms.items())


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

    The matrix indices of the word are traced out first, then phi is
    applied multilinearly to the group tensor slots, giving one scalar
    per word.  The result is a scalar grid form of whatever manifold
    degrees are present.
    """
    n = phi.degree
    total = ScalarForm.zero(omega.grid)
    traced = omega if omega.size == 1 else omega.graded_trace()
    for word, sform in traced.terms.values():
        if len(word) - 1 != n:
            continue
        slots = [m.entry(0, 0).terms for m in word]
        weights = np.ravel(functools.reduce(
            np.multiply.outer, [list(t.values()) for t in slots]))
        coeff = np.dot([phi(*tup) for tup in itertools.product(*slots)],
                       weights)
        if coeff:
            total = total + sform.scale(coeff)
    return total


# ---------------------------------------------------------------------
# closed cocycles on finite cyclic groups by enumeration
# ---------------------------------------------------------------------


def closed_cocycle_basis(spec, degree, tol=1e-10):
    """Basis of b^t-closed normalized invariant cyclic cochains at <e>.

    Enumerates Z/k tensor tuples with all entries != e and product e,
    groups them into signed cyclic orbits, and solves b^t phi = 0 on all
    reduced chains by a dense null space.  Returns a list of CyclicCochain
    objects spanning the kernel.
    """
    if not spec.is_finite:
        raise ValueError("enumeration needs a finite cyclic group")
    k = spec.order
    n = degree
    sign_rot = -1.0 if n % 2 else 1.0

    # orbits of support tuples under the signed cyclic action
    orbit_of = {}
    orbit_reps = []
    orbit_dead = set()
    for tail in itertools.product(range(1, k), repeat=n):
        g0 = (-sum(tail)) % k
        if g0 == 0:
            continue
        tup = (g0,) + tail
        if tup in orbit_of:
            continue
        idx = len(orbit_reps)
        members = {}
        cur = tup
        s = 1.0
        dead = False
        for _ in range(n + 1):
            if cur in members and members[cur] != s:
                dead = True
            members[cur] = s
            cur = (cur[-1],) + cur[:-1]
            s *= sign_rot
        for t2, s2 in members.items():
            orbit_of[t2] = (idx, s2)
        orbit_reps.append(tup)
        if dead:
            orbit_dead.add(idx)

    nvar = len(orbit_reps)
    if nvar == 0:
        return []

    rows = []
    for tail in itertools.product(range(1, k), repeat=n + 1):
        y0 = (-sum(tail)) % k
        y = (y0,) + tail
        row = np.zeros(nvar, dtype=float)
        hit = False
        for i in range(n + 2):
            if i <= n:
                merged = y[:i] + ((y[i] + y[i + 1]) % k,) + y[i + 2:]
            else:
                merged = ((y[n + 1] + y[0]) % k,) + y[1:n + 1]
            if any(g == 0 for g in merged):
                continue
            ref = orbit_of.get(merged)
            if ref is None:
                continue
            idx, s = ref
            if idx in orbit_dead:
                continue
            row[idx] += s * (1.0 if i % 2 == 0 else -1.0)
            hit = True
        if hit:
            rows.append(row)
    # forced-zero orbits drop out of the variable set
    keep = [i for i in range(nvar) if i not in orbit_dead]
    if not keep:
        return []
    mat = (np.array(rows)[:, keep] if rows
           else np.zeros((1, len(keep))))
    # the null space needs all of V but none of U beyond rank(mat)
    _, svals, vh = np.linalg.svd(mat,
                                 full_matrices=mat.shape[0] < mat.shape[1])
    null_dim = int(np.sum(svals <= tol * max(1.0, svals[0] if len(svals)
                                             else 1.0)))
    null_dim += vh.shape[0] - len(svals)
    pos = {idx: i for i, idx in enumerate(keep)}
    tups = [tup for tup, (idx, _) in orbit_of.items() if idx in pos]
    cols = [pos[orbit_of[tup][0]] for tup in tups]
    signs = np.array([orbit_of[tup][1] for tup in tups])
    basis = []
    for coeffs in vh[vh.shape[0] - null_dim:]:
        vals = (signs * coeffs[cols]).tolist()
        basis.append(_table_cochain(spec, n, {
            tup: v for tup, v in zip(tups, vals) if v != 0}))
    return basis


def _table_cochain(spec, degree, table):
    """Cochain read from {tuple: value}; the table stays at phi.table."""
    def fn(*args):
        return table.get(args, 0j)

    phi = CyclicCochain(spec, degree, fn, normalized=True, e_supported=True)
    phi.table = table
    return phi


def random_closed_cocycle(spec, degree, rng, basis=None):
    """Seeded random combination of the closed-cocycle basis.

    The basis tables (as from `closed_cocycle_basis`) are combined once
    into a single table cochain.
    """
    if basis is None:
        basis = closed_cocycle_basis(spec, degree)
    if not basis:
        raise ValueError(f"no closed cocycles in degree {degree} over "
                         f"{spec}")
    w = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(
        len(basis))
    table = {}
    for c, b in zip(w, basis):
        for tup, val in b.table.items():
            table[tup] = table.get(tup, 0) + c * val
    return _table_cochain(spec, degree, table)
