"""Covering data on the circle and the flat projection built from it.

A cover is a family of arcs with a subordinate partition of unity
(sum chi_i^2 = 1) and integer deck elements g_ij relating the chosen arc
lifts.  The flat projection P = (chi_i chi_j g_ij) represents the module
of the covering inside a trivial one; its character form, paired with the
cyclic cochain of a degree-one group cocycle, reproduces the closed
1-form built from translated derivatives of the lifted partition.

Deck convention: the deck group acts on the lifted line by
R_g(x) = x - g, and g_ij is the deck element with R_{g_ij}(U_i' lift)
= U_j' lift over the overlap.  This orientation makes the integral of
the winding-cocycle form equal +1 on the standard cover.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import bumps
from .errors import BadCover, DegreeMismatch, UnsupportedManifold
from .chern import chern_even, projection_defects
from .cyclic import GroupCocycle, d_gamma, pair_cochain_form, tau_to_c
from .group_algebra import GroupSpec
from .nc_forms import (JetFunction, MixedForm, ScalarForm, _jet_mul,
                       _jet_product)

TWO_PI_I = 2j * np.pi

#: the largest partition-of-unity or flat-projection residual of a cover
BUILD_TOL = 1e-12
#: the integer lifts x + m of a base point x in [0, 1) that an arc can hold
LIFTS = (-1, 0, 1)


class CoverData:
    """Arcs, bumps and deck elements of a circle cover."""

    def __init__(self, grid, arcs, family, deck_spec, deck):
        self.grid = grid
        self.arcs = [tuple(map(float, a)) for a in arcs]
        self.family = family
        self.deck_spec = deck_spec
        self.deck = np.asarray(deck, dtype=int)
        self.n_arcs = len(self.arcs)
        if self.deck.shape != (self.n_arcs, self.n_arcs):
            raise BadCover("deck matrix shape does not match the arcs")
        if deck_spec.family != "cyclic" and deck_spec != GroupSpec.lattice(1):
            raise BadCover("the deck group of a circle cover is Z or Z/k")
        # the lift table: _inside[i, s, p] says that the lift x_p + LIFTS[s]
        # of the grid point x_p lies in the open arc i
        lifts = grid.points + np.array(LIFTS, dtype=float)[:, None]
        ends = np.array(self.arcs).reshape(-1, 2, 1, 1)
        self._inside = (lifts > ends[:, 0]) & (lifts < ends[:, 1])
        chi = self._build_chi(lifts)
        self.chi = [JetFunction(grid, 1, c) for c in chi]
        self.chi_sq = [JetFunction(grid, 1, c)
                       for c in _jet_product(chi, chi, grid.ndim)]
        self.validate()

    # -- construction ---------------------------------------------------
    @classmethod
    def standard(cls, grid, n_arcs=3, family="mollifier", deck_order=0):
        """Equal arcs with connected overlaps; deck elements vanish except
        on the wrap-around overlap, where the lift jumps by one."""
        if n_arcs < 1:
            raise BadCover("need at least one arc")
        if n_arcs == 1:
            arcs = [(-0.25, 1.25)]
        else:
            half = 1.0 / (4 * n_arcs)
            arcs = [(i / n_arcs - half, (i + 1) / n_arcs + half)
                    for i in range(n_arcs)]
        deck = np.zeros((n_arcs, n_arcs), dtype=int)
        if n_arcs > 1:
            deck[n_arcs - 1, 0] = 1
            deck[0, n_arcs - 1] = -1
        if deck_order:
            spec = GroupSpec.cyclic(deck_order)
            deck = deck % deck_order
        else:
            spec = GroupSpec.lattice(1)
        return cls(grid, arcs, family, spec, deck)

    def _build_chi(self, lifts):
        """First-order jets of the normalised bumps chi_i at the lifts, as
        one (n_arcs, 2, G) stack: the character identity and omega_tau
        read no higher derivative."""
        if self.n_arcs == 1:
            return JetFunction.constant(self.grid, 1.0, 1).stack[None]
        left, right = np.array(self.arcs).T[:, :, None]
        if np.any(right <= left) or np.any(right - left >= 1.0):
            raise BadCover("arcs must be nonempty and shorter than "
                           "the full circle")
        # an arc shorter than the circle holds at most one lift
        x = np.select(list(self._inside.swapaxes(0, 1)), lifts[:, None],
                      left - 1.0)
        raw = np.stack(bumps.plateau(x, left, right, 0.3 * (right - left),
                                     self.family), axis=1)
        squares = _jet_product(raw, raw, self.grid.ndim)
        total = sum(squares[1:], squares[0])
        if np.any(total[0] <= 0):
            raise BadCover("arcs do not cover the circle: the squared "
                           "bumps vanish somewhere")
        norm = JetFunction(self.grid, 1, total).rsqrt()
        return _jet_product(raw, norm.stack, self.grid.ndim)

    # -- validation ------------------------------------------------------
    def partition_residual(self):
        total = sum(self.chi_sq[1:], self.chi_sq[0])
        return float(np.max(np.abs(total.value() - 1.0)))

    def validate(self):
        """Raise BadCover on the first failure, in the order of the loop
        over i (the deck diagonal, then the antisymmetry of row i) and
        then over (i, j) (the overlap connected, then the cocycle
        condition on each triple overlap (i, j, k))."""
        res = self.partition_residual()
        if res > BUILD_TOL:
            raise BadCover(
                f"partition of unity residual {res:.3g} > {BUILD_TOL}")
        # deck elements as integers, 0 the identity
        deck = self._reduce(self.deck)
        diagonal = np.diagonal(deck) != 0
        bad = diagonal | (self._reduce(deck + deck.T) != 0).any(1)
        if bad.any():
            raise BadCover("deck diagonal is not the identity"
                           if diagonal[np.argmax(bad)]
                           else "deck matrix is not antisymmetric")
        support = np.stack([np.abs(c.value().real) > 1e-9
                            for c in self.chi])
        overlap = support[:, None] & support
        # a circular mask with at most one rise has at most one component
        rises = np.count_nonzero(~overlap & np.roll(overlap, -1, axis=-1),
                                 axis=-1)
        disconnected = (rises > 1) & ~np.eye(self.n_arcs, dtype=bool)
        cocycle = self._reduce(deck[:, :, None] + deck - deck[:, None]) != 0
        if cocycle.any():
            cocycle &= (overlap[:, :, None] & support).any(-1)
        bad = disconnected | cocycle.any(-1)
        if bad.any():
            i, j = np.unravel_index(np.argmax(bad), bad.shape)
            if disconnected[i, j]:
                raise BadCover(
                    f"overlap of arcs {i} and {j} is not connected; "
                    f"a single deck element cannot describe it")
            raise BadCover(f"cocycle condition fails on "
                           f"({i},{j},{np.argmax(cocycle[i, j])})")

    def _reduce(self, m):
        """Integer lifts m as the integers of their deck elements: mod the
        order over Z/k, m itself over Z."""
        if self.deck_spec.family == "cyclic":
            return m % self.deck_spec.order
        return m

    def deck_element(self, i, j):
        return self._lift_element(int(self.deck[i, j]))

    def _lift_element(self, m):
        """The deck element m times the generator, which labels the lift
        x + m and the integer entries of the deck matrix."""
        if self.deck_spec.family == "cyclic":
            return m % self.deck_spec.order
        return (m,)

    # -- the lifted cutoff -----------------------------------------------
    def shifted_cutoff(self, g):
        """Jets of x -> h(R_g(x)) = h(x - g): the lifted partition bump
        translated by the deck element, pushed to the base grid."""
        spec = self.deck_spec
        hits = [s for s, m in enumerate(LIFTS)
                if spec.mul(g, self._lift_element(m)) == spec.identity()]
        masks = self._inside[:, hits].any(axis=1).astype(float)
        stack = sum(sq.stack * mask for sq, mask in zip(self.chi_sq, masks))
        return JetFunction(self.grid, self.chi_sq[0].order, stack)

    def deck_support(self):
        """Deck elements g with R_g(base lift) meeting the arc lifts: the
        inverses of the lifts that lie in some arc, in increasing order."""
        met = self._inside.any(axis=(0, 2))
        return sorted({self.deck_spec.inv(self._lift_element(m))
                       for m, hit in zip(LIFTS, met) if hit})


class MFProjection:
    """The flat projection of a cover as a degree-(0, 0) mixed form."""

    def __init__(self, cover, form):
        self.cover = cover
        self.form = form
        self.idempotence, self.selfadjoint = projection_defects(form)
        if max(self.idempotence, self.selfadjoint) > BUILD_TOL:
            raise BadCover(f"projection residual {self.idempotence:.3g} "
                           f"above {BUILD_TOL}")


def build_mf_projection(cover, kalg=4):
    """Assemble P = (chi_i chi_j g_ij) over the deck group algebra: the
    entry at a deck element g holds the chi_i chi_j with g_ij = g."""
    chi = np.stack([c.stack for c in cover.chi])[:, None]
    prods = _jet_mul(chi, chi.swapaxes(0, 1), cover.grid.ndim)
    n = cover.n_arcs
    masks = {}
    for i, j in itertools.product(range(n), repeat=2):
        masks.setdefault((cover.deck_element(i, j),),
                         np.zeros((n, n, 1, 1)))[i, j] = 1.0
    form = MixedForm.zero(cover.grid, cover.deck_spec, n, kalg)
    form.add_entries((g, (), prods * mask) for g, mask in masks.items())
    return MFProjection(cover, form)


def winding_cocycle(spec):
    """The degree-one difference cocycle on the integer lattice.

    Over a finite cyclic group the difference fails to be closed (torsion
    kills degree-one classes), so only the lattice variant exists.
    """
    if spec.family != "lattice" or spec.dim != 1:
        raise ValueError("the winding cocycle lives on the rank-1 lattice")

    def fn(a, b):
        return complex(b[0] - a[0])

    return GroupCocycle(spec, 1, fn)


def zero_cocycle(spec):
    return GroupCocycle(spec, 1, lambda *a: 0j)


def vandermonde_cocycle(spec, degree):
    """Alternating invariant cochain from pairwise coordinate
    differences; not closed for degree > 1 but that is irrelevant for the
    cancellation checks it feeds."""

    def level(g):
        return g if spec.family == "cyclic" else g[0]

    def fn(*args):
        xs = [level(g) for g in args]
        out = 1.0
        for b in range(len(xs)):
            for a in range(b):
                out *= xs[b] - xs[a]
        return complex(out)

    return GroupCocycle(spec, degree, fn)


def cocycle_closedness_defect(cover, tau):
    """Spot-check of d_Gamma tau = 0 on 40 random deck tuples."""
    rng = np.random.default_rng(0)
    spec = cover.deck_spec
    pool = spec.elements() if spec.is_finite else spec.ball(3)
    dt = d_gamma(tau)
    # one draw of all 40 tuples: the stream of 40 draws of one tuple each
    draws = rng.integers(0, len(pool), (40, tau.degree + 2)).tolist()
    return max(abs(dt(*(pool[i] for i in row))) for row in draws)


def omega_tau(cover, tau):
    """Closed form on the base built from translated cutoff derivatives.

    Degree one on the circle: sum over deck elements g of
    tau(e, g) * d/dx h(x - g).
    """
    n = tau.degree
    if n != 1:
        if n > cover.grid.ndim:
            raise DegreeMismatch(
                f"degree-{n} cocycle on a {cover.grid.ndim}-manifold")
        raise UnsupportedManifold(
            "only degree-one forms are supported on the circle")
    defect = cocycle_closedness_defect(cover, tau)
    if defect > 1e-10:
        raise ValueError(f"tau is not closed: d_Gamma residual {defect:.3g}")
    e = cover.deck_spec.identity()
    coeff = None
    for g in cover.deck_support():
        t = tau(e, g)
        if t == 0:
            continue
        jet = cover.shifted_cutoff(g).partial(0).scale(t)
        coeff = jet if coeff is None else coeff + jet
    if coeff is None:
        return ScalarForm.zero(cover.grid)
    return ScalarForm(cover.grid, {(0,): coeff})


def omega_integral(cover, tau):
    return omega_tau(cover, tau).integrate()


def verify_prop_chern(cover, tau, tol=1e-8, flat_tol=1e-9):
    """Residual report for the character-form identity of the flat
    projection:

        c_tau(ch(P)) = (-1)^{n(n-1)/2} ((2 pi i)^n n!)^{-1} omega_tau

    at form level (n = 1 here), together with the flat-connection
    cancellation: the purely algebraic curvature terms pair to zero
    against alternating cochains.  The report also holds the integral of
    omega_tau (`omega_integral`).
    """
    n = tau.degree
    if n != 1:
        raise UnsupportedManifold("form-level identity implemented on the "
                                  "circle in degree one")
    mf = build_mf_projection(cover, kalg=4)
    ch = chern_even(mf, 1)
    c_tau = tau_to_c(tau)
    lhs = pair_cochain_form(c_tau, ch).component((0,))

    paper_sign = (-1.0) ** ((n - 1) * n // 2)
    coeff = paper_sign / (TWO_PI_I ** n * math.factorial(n))
    omega = omega_tau(cover, tau)
    rhs = coeff * omega.component((0,))

    res_paper = float(np.max(np.abs(lhs - rhs)))
    res_flip = float(np.max(np.abs(lhs + rhs)))
    realized = 1 if res_paper <= res_flip else -1

    # purely algebraic curvature factors: P dP dP with both differentials
    # in the algebra direction, paired against an alternating cochain;
    # in ch they are the algebra-degree-2 part, scaled by -1/(2 pi i)
    flat_form = ch.algebra_component(2).scale(-TWO_PI_I)
    tau2 = vandermonde_cocycle(cover.deck_spec, 2)
    flat2 = pair_cochain_form(tau_to_c(tau2), flat_form).max_abs()

    scale = max(float(np.max(np.abs(rhs))), 1e-30)
    return {
        "residual": res_paper,
        "residual_flipped_sign": res_flip,
        "relative_residual": res_paper / scale,
        "paper_sign": int(paper_sign),
        "realized_sign": realized * int(paper_sign),
        "sign_match": realized == 1,
        "flat_connection_residual": float(flat2),
        "idempotence": mf.idempotence,
        "selfadjoint": mf.selfadjoint,
        "lhs_integral": complex(np.mean(lhs)),
        "rhs_integral": complex(np.mean(rhs)),
        "omega_integral": omega.integrate(),
        "passed": res_paper <= tol and flat2 <= flat_tol,
        "grid": cover.grid.n,
    }


def higher_index_rhs(cover, tau, symbol_integer):
    """Topological side of the covering index formula on the circle.

    The symbol data enters as the configured integer multiple of the
    fundamental class, the Todd factor is 1, and the overall sign
    exponent is dim(dim+1)/2 + n(n-1)/2.
    """
    n = tau.degree
    dim = cover.grid.ndim
    if dim != 1:
        raise UnsupportedManifold("only the circle")
    if n != 1:
        raise UnsupportedManifold("degree-one cocycles only on the circle")
    k_exp = dim * (dim + 1) // 2 + n * (n - 1) // 2
    coeff = (-1.0) ** k_exp / (TWO_PI_I ** n * math.factorial(n))
    return coeff * symbol_integer * omega_integral(cover, tau)
