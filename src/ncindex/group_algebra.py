"""Arithmetic in complex group algebras of finitely described groups.

Three families are supported: integer lattices Z^d (word length = l1 norm
of the exponent vector), cyclic groups Z/k (word length = distance to 0 on
the cycle) and free groups of finite rank (word length = reduced word
length, computations confined to a ball of configurable radius).

One ring class, `GAMatrix`, holds matrices over C[Gamma]; an element of
C[Gamma] (`GroupAlgebraElement`) is the 1 x 1 matrix.  The lattice and
cyclic families are exact; free groups enforce the truncation radius on
every stored coefficient, so products that would leave the ball raise
``TruncationOverflow``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import NotInvertibleInBudget, TruncationOverflow

_LAT = "lattice"
_CYC = "cyclic"
_FREE = "free"


class GroupSpec:
    """A finitely described group together with its word-length function."""

    def __init__(self, family, *, dim=0, order=0, rank=0, radius=None):
        if family not in (_LAT, _CYC, _FREE):
            raise ValueError(f"unknown family {family!r}")
        self.family = family
        self.dim = dim
        self.order = order
        self.rank = rank
        self.radius = radius
        if family == _CYC and order < 1:
            raise ValueError("cyclic group needs order >= 1")
        if family == _FREE and radius is None:
            self.radius = 6

    # -- constructors ------------------------------------------------
    @classmethod
    def lattice(cls, dim):
        return cls(_LAT, dim=dim)

    @classmethod
    def cyclic(cls, order):
        return cls(_CYC, order=order)

    @classmethod
    def free(cls, rank, radius=6):
        return cls(_FREE, rank=rank, radius=radius)

    @classmethod
    def trivial(cls):
        return cls(_LAT, dim=0)

    # -- group operations --------------------------------------------
    def identity(self):
        if self.family == _LAT:
            return (0,) * self.dim
        if self.family == _CYC:
            return 0
        return ()

    def mul(self, g, h):
        if self.family == _LAT:
            return tuple(a + b for a, b in zip(g, h))
        if self.family == _CYC:
            return (g + h) % self.order
        word = list(g)
        for s in h:
            if word and word[-1] == -s:
                word.pop()
            else:
                word.append(s)
        return tuple(word)

    def inv(self, g):
        if self.family == _LAT:
            return tuple(-a for a in g)
        if self.family == _CYC:
            return (-g) % self.order
        return tuple(-s for s in reversed(g))

    def length(self, g):
        if self.family == _LAT:
            return sum(abs(a) for a in g)
        if self.family == _CYC:
            return min(g % self.order, (-g) % self.order)
        return len(g)

    def generators(self):
        if self.family == _LAT:
            e = self.identity()
            out = []
            for i in range(self.dim):
                out.append(e[:i] + (1,) + e[i + 1:])
            return out
        if self.family == _CYC:
            return [1 % self.order]
        return [(i,) for i in range(1, self.rank + 1)]

    @property
    def is_finite(self):
        return self.family == _CYC

    def elements(self):
        if self.family != _CYC:
            raise ValueError("elements() only enumerates finite groups")
        return list(range(self.order))

    def ball(self, radius):
        """Elements of word length <= radius, sorted by (length, key)."""
        if self.family == _CYC:
            els = [g for g in range(self.order) if self.length(g) <= radius]
        elif self.family == _LAT:
            els = []
            for vec in itertools.product(range(-radius, radius + 1),
                                         repeat=self.dim):
                if sum(abs(a) for a in vec) <= radius:
                    els.append(vec)
        else:
            els = [()]
            frontier = [()]
            for _ in range(radius):
                nxt = []
                for w in frontier:
                    for s in range(1, self.rank + 1):
                        for gen in (s, -s):
                            if w and w[-1] == -gen:
                                continue
                            nxt.append(w + (gen,))
                els.extend(nxt)
                frontier = nxt
        return sorted(els, key=lambda g: (self.length(g), g))

    def __eq__(self, other):
        return (isinstance(other, GroupSpec)
                and (self.family, self.dim, self.order, self.rank,
                     self.radius)
                == (other.family, other.dim, other.order, other.rank,
                    other.radius))

    def __hash__(self):
        return hash((self.family, self.dim, self.order, self.rank,
                     self.radius))

    def __repr__(self):
        if self.family == _LAT:
            return f"GroupSpec.lattice({self.dim})"
        if self.family == _CYC:
            return f"GroupSpec.cyclic({self.order})"
        return f"GroupSpec.free({self.rank}, radius={self.radius})"


class GAMatrix:
    """Square matrix over a group algebra, stored by group element.

    parts maps a group element g to the complex (n, n) matrix of
    coefficients of g, so multiplication is convolution over the group
    combined with matrix products.  Results keep the class of `self`.
    """

    __slots__ = ("spec", "n", "parts")

    def __init__(self, spec, n, parts=None):
        self.spec = spec
        self.n = n
        clean = {}
        for g, m in (parts or {}).items():
            m = np.asarray(m, dtype=complex)
            if not np.any(m):
                continue
            if spec.radius is not None and spec.length(g) > spec.radius:
                raise TruncationOverflow(
                    f"matrix coefficient at word length {spec.length(g)} "
                    f"exceeds radius {spec.radius}")
            clean[g] = m
        self.parts = clean

    def _new(self, parts):
        out = object.__new__(type(self))
        GAMatrix.__init__(out, self.spec, self.n, parts)
        return out

    # -- constructors ------------------------------------------------
    @classmethod
    def identity(cls, spec, n):
        return cls(spec, n, {spec.identity(): np.eye(n, dtype=complex)})

    @classmethod
    def single(cls, spec, n, i, j, g=None):
        if g is None:
            g = spec.identity()
        m = np.zeros((n, n), dtype=complex)
        m[i, j] = 1.0
        return cls(spec, n, {g: m})

    # -- algebra -------------------------------------------------------
    def _check(self, other):
        if self.spec != other.spec or self.n != other.n:
            raise ValueError("incompatible matrix group algebras")

    def __add__(self, other):
        self._check(other)
        parts = dict(self.parts)
        for g, m in other.parts.items():
            parts[g] = parts[g] + m if g in parts else m
        return self._new(parts)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({g: -m for g, m in self.parts.items()})

    def __matmul__(self, other):
        self._check(other)
        spec = self.spec
        parts = {}
        for g, a in self.parts.items():
            for h, b in other.parts.items():
                k = spec.mul(g, h)
                parts[k] = parts[k] + a @ b if k in parts else a @ b
        return self._new(parts)

    def scale(self, c):
        return self._new({g: c * m for g, m in self.parts.items()})

    def star(self):
        """Anti-linear involution: g -> g^{-1}, coefficients m -> m*."""
        spec = self.spec
        return self._new({spec.inv(g): m.conj().T
                          for g, m in self.parts.items()})

    # -- structure -------------------------------------------------------
    def entry(self, i, j):
        return GroupAlgebraElement(
            self.spec, {g: m[i, j] for g, m in self.parts.items()})

    def max_abs(self):
        return max((float(np.max(np.abs(m))) for m in self.parts.values()),
                   default=0.0)

    def __repr__(self):
        return f"GAMatrix(n={self.n}, support={sorted(self.parts)})"


class GroupAlgebraElement(GAMatrix):
    """Finite complex combination of group elements: the 1 x 1 GAMatrix.

    Zero coefficients are never stored.  For radius-bounded specs every
    stored element must satisfy length(g) <= radius.
    """

    __slots__ = ()

    def __init__(self, spec, terms=None):
        super().__init__(spec, 1, {g: [[c]] for g, c in
                                   (terms or {}).items()})

    @property
    def terms(self):
        return {g: complex(m[0, 0]) for g, m in self.parts.items()}

    # -- constructors ------------------------------------------------
    @classmethod
    def one(cls, spec):
        return cls(spec, {spec.identity(): 1.0})

    @classmethod
    def delta(cls, spec, g):
        return cls(spec, {g: 1.0})

    @classmethod
    def random(cls, spec, rng, support=3, radius=2):
        pool = spec.ball(radius)
        idx = rng.choice(len(pool), size=min(support, len(pool)),
                         replace=False)
        return cls(spec, {pool[int(i)]: complex(rng.standard_normal(),
                                                rng.standard_normal())
                          for i in idx})

    # -- ring structure ----------------------------------------------
    def __mul__(self, other):
        if isinstance(other, GAMatrix):
            return self @ other
        return self.scale(other)

    __rmul__ = __mul__

    # -- functionals ---------------------------------------------------
    def trace_e(self):
        """Coefficient at the identity (the canonical trace)."""
        return self.terms.get(self.spec.identity(), 0j)

    def support_radius(self):
        return max((self.spec.length(g) for g in self.parts), default=0)

    # -- representations -----------------------------------------------
    def regular_rep(self, radius):
        """Left-multiplication matrix compressed to the ball B_radius.

        Off-ball images are dropped, so the matrix is a compression of the
        l2(Gamma) operator; its norm is a lower bound for the true one
        (exact for cyclic groups once the radius covers the group).
        """
        basis = self.spec.ball(radius)
        index = {g: i for i, g in enumerate(basis)}
        mat = np.zeros((len(basis), len(basis)), dtype=complex)
        terms = self.terms
        for h, j in index.items():
            for g, a in terms.items():
                gh = self.spec.mul(g, h)
                i = index.get(gh)
                if i is not None:
                    mat[i, j] += a
        return basis, mat

    def ball_opnorm(self, radius):
        _, mat = self.regular_rep(radius)
        if mat.size == 0:
            return 0.0
        return float(np.linalg.norm(mat, 2))

    def __repr__(self):
        if not self.parts:
            return "GA<0>"
        bits = [f"({c:.4g})*{g}" for g, c in sorted(
            self.terms.items(), key=lambda t: (self.spec.length(t[0]),
                                               t[0]))]
        return "GA<" + " + ".join(bits) + ">"


GA = GroupAlgebraElement


def ga_mul(a, b):
    """Convolution product in the group algebra."""
    return a * b


def trace_e(a):
    return a.trace_e()


class TruncatedDerivationRep:
    """Matrix of [D_l, a] on the span of the word-length ball B_R.

    D_l multiplies the basis vector g by its word length, so the entry at
    (gh, h) of the commutator with a = sum a_g g is a_g * (l(gh) - l(h)).
    """

    def __init__(self, spec, radius, basis, matrix, rep_matrix):
        self.spec = spec
        self.radius = radius
        self.basis = basis
        self.index = {g: i for i, g in enumerate(basis)}
        self.matrix = matrix
        self.rep_matrix = rep_matrix

    def entry(self, out_elem, in_elem):
        return self.matrix[self.index[out_elem], self.index[in_elem]]

    def opnorm_lower(self):
        """Operator norm of the compression; a lower bound on l2(Gamma)."""
        return float(np.linalg.norm(self.matrix, 2))


def delta_word_length(a, radius):
    """Commutator with the word-length multiplier on the ball B_radius.

    Column h of the regular representation holds each a_g once, in row
    gh, so [D_l, a] is that matrix times l(row) - l(column) entrywise.
    """
    if a.support_radius() > radius:
        raise TruncationOverflow("support of the element leaves the ball")
    basis, rep = a.regular_rep(radius)
    lengths = np.array([a.spec.length(g) for g in basis])
    mat = np.subtract.outer(lengths, lengths) * rep
    return TruncatedDerivationRep(a.spec, radius, basis, mat, rep)


def derivation_leibniz_residual(a, b, radius):
    """Max deviation of delta(ab) from delta(a)b + a delta(b) on B_radius.

    Both sides are built on an enlarged ball so that no intermediate
    product is clipped, then compared on the inner ball.
    """
    big = radius + a.support_radius() + b.support_radius()
    da = delta_word_length(a, big)
    db = delta_word_length(b, big)
    dab = delta_word_length(a * b, big)
    lhs = dab.matrix
    rhs = da.matrix @ db.rep_matrix + da.rep_matrix @ db.matrix
    inner = [i for i, g in enumerate(dab.basis)
             if dab.spec.length(g) <= radius]
    sel = np.ix_(inner, inner)
    return float(np.max(np.abs(lhs[sel] - rhs[sel])))


def neumann_inverse(x, tol=1e-12, seminorm_report=None):
    """Inverse via the geometric series sum_n (1-x)^n.

    Requires the ball-norm estimate of (1-x) to be < 1; raises
    ``NotInvertibleInBudget`` otherwise or when the residual does not
    reach `tol` within 400 terms.  Norms are taken on the ball that
    covers a finite group, else on one of radius 2 supp(x) + 2 (at least
    4).  When `seminorm_report` is a list, per-term derivation seminorms
    and the bound n * |1-x|^{n-1} * |delta(1-x)| are appended to it.
    """
    spec = x.spec
    one = GroupAlgebraElement.one(spec)
    if spec.is_finite:
        norm_radius = (spec.order + 1) // 2
    else:
        norm_radius = max(2 * x.support_radius() + 2, 4)
    t = one - x
    nt = t.ball_opnorm(norm_radius)
    if nt >= 1.0:
        raise NotInvertibleInBudget(
            f"ball norm of (1 - x) is {nt:.6g} >= 1")
    if seminorm_report is not None:
        dt_norm = delta_word_length(
            t, norm_radius + t.support_radius()).opnorm_lower()
    total = one
    term = one
    for n in range(1, 401):
        term = term * t
        total = total + term
        if seminorm_report is not None:
            dn = delta_word_length(
                term, norm_radius + term.support_radius()).opnorm_lower()
            seminorm_report.append(
                {"n": n, "delta_norm": dn,
                 "bound": n * nt ** (n - 1) * dt_norm})
        res = (x * total - one).ball_opnorm(norm_radius)
        if res <= tol:
            return total
    raise NotInvertibleInBudget(
        f"residual still above {tol} after 400 terms")


# -- helpers specific to cyclic groups --------------------------------

def cyclic_sectors(m):
    """DFT of a GAMatrix over Z/k: stack of per-character matrices.

    sectors[j] = sum_g m[g] * exp(2 pi i j g / k).  Multiplication of
    matrices over C[Z/k] becomes per-sector matrix multiplication.
    """
    k = m.spec.order
    coeffs = np.zeros((k, m.n, m.n), dtype=complex)
    for g, blk in m.parts.items():
        coeffs[g] = blk
    return np.fft.ifft(coeffs, axis=0) * k


def gamatrix_from_sectors(spec, sectors):
    """Inverse DFT of `cyclic_sectors`: the coefficient of g is
    sum_j e^{-2 pi i jg/k} sectors[j] / k."""
    parts = np.fft.fft(sectors, axis=0) / spec.order
    return GAMatrix(spec, sectors.shape[1], dict(enumerate(parts)))
