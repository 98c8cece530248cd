"""Chern character forms of projections and unitaries.

The even character of a projection-valued mixed form P is

    sum_k (-1)^k / ((2 pi i)^k k!) tr P (d_tot P)^{2k},

the odd character of a unitary u is

    sum_k (-1/(2 pi i))^k (k-1)!/(2k-1)! tr u* (d_tot u)
                                             ((d_tot u*)(d_tot u))^{k-1}.

Both are closed up to the algebra-degree cutoff; exactness along paths of
projections is observed through vanishing pairings with closed cocycles
rather than by constructing a transgression form.
"""

from __future__ import annotations

import math

import numpy as np

from . import bumps, cyclic
from .errors import NotAProjection, NotUnitary
from .group_algebra import GAMatrix, GroupSpec
from .nc_forms import ChartGrid2D, JetFunction, MixedForm, ScalarForm

TWO_PI_I = 2j * np.pi


def projection_residual(P):
    return max((P @ P - P).max_abs(), (P.star() - P).max_abs())


def unitary_residual(u):
    one = MixedForm.one(u.grid, u.spec, u.size, u.kalg)
    return max((u.star() @ u - one).max_abs(),
               (u @ u.star() - one).max_abs())


def chern_even(P, k_max, tol=1e-8):
    """Even Chern character form of a projection.

    P is a projection-valued `MixedForm`, whose residual must be within
    `tol`, or a `covering.MFProjection`, whose constructor has already
    checked its form; that form is used unchecked.
    """
    if isinstance(P, MixedForm):
        residual = projection_residual(P)
        if residual > tol:
            raise NotAProjection(
                f"projection residual {residual:.3g} > {tol}")
    else:
        P = P.form
    dP = P.dtot()
    dP2 = dP @ dP
    out = P.graded_trace()
    power = P
    for k in range(1, k_max + 1):
        power = power @ dP2
        coeff = (-1.0) ** k / (TWO_PI_I ** k * math.factorial(k))
        out = out + power.graded_trace().scale(coeff)
    return out


def chern_odd(u, k_max, tol=1e-8):
    """Odd Chern character form of a unitary-valued mixed form."""
    residual = unitary_residual(u)
    if residual > tol:
        raise NotUnitary(f"unitarity residual {residual:.3g} > {tol}")
    us = u.star()
    du = u.dtot()
    dus = us.dtot()
    base = us @ du
    loop = dus @ du
    out = None
    power = base
    for k in range(1, k_max + 1):
        if k > 1:
            power = power @ loop
        coeff = ((-1.0 / TWO_PI_I) ** k * math.factorial(k - 1)
                 / math.factorial(2 * k - 1))
        term = power.graded_trace().scale(coeff)
        out = term if out is None else out + term
    if out is None:
        out = MixedForm.zero(u.grid, u.spec, 1, u.kalg)
    return out


def closedness_defect(form, cocycles=()):
    """Observable defect of d_tot(form) = 0 in the commutator quotient.

    The algebra-degree-0 part of the differential must vanish literally
    (matrix entries over an abelian group algebra commute); components of
    higher algebra degree vanish modulo graded commutators, which is
    detected by pairing against the supplied closed normalized cochains.
    """
    d = form.dtot()
    worst = d.algebra_component(0).max_abs()
    for phi in cocycles:
        worst = max(worst, cyclic.pair_cochain_form(phi, d).max_abs())
    return worst


class ProjectionPath:
    """Sampled differentiable family of projection-valued mixed forms."""

    def __init__(self, samples, tol=1e-8):
        if not samples:
            raise ValueError("empty path")
        self.samples = list(samples)
        self.residuals = [projection_residual(P) for P in self.samples]
        worst = max(self.residuals)
        if worst > tol:
            raise NotAProjection(
                f"path leaves the projection manifold: residual "
                f"{worst:.3g} > {tol}")


def chern_homotopy_defect(path, phi, k_max=None):
    """Pairing of phi (integrated over M) against ch(P_1) - ch(P_0).

    For a normalized closed cocycle this must vanish up to tolerance:
    the difference of endpoint characters is exact.
    """
    if k_max is None:
        # the degree-n pairing reads bidegree (2k - n, n); p <= dim M
        # bounds the character order needed
        k_max = max((phi.degree + path.samples[0].grid.ndim) // 2, 1)
    ch1 = chern_even(path.samples[-1], k_max)
    ch0 = chern_even(path.samples[0], k_max)
    paired = cyclic.pair_cochain_form(phi, ch1 - ch0)
    return abs(paired.integrate())


# ---------------------------------------------------------------------
# the curvature-normalization projector on a square chart
# ---------------------------------------------------------------------

def _sphere_field(grid, r_max=0.42, family="mollifier"):
    """Unit-vector field sweeping the sphere once, constant near the
    chart boundary, with analytic first derivatives."""
    u = grid.xs - 0.5
    v = grid.ys - 0.5
    r = np.sqrt(u * u + v * v)
    t = r / r_max
    s, s1, _ = bumps.step(t, family)
    sig = np.pi * s
    sig_r = np.pi * s1 / r_max
    cos_s = np.cos(sig)
    sin_s = np.sin(sig)
    # every step is flat at t = 0, so a grid point at the centre takes
    # the limits n = (0, 0, 1) and zero derivatives
    r = np.where(r > 0, r, 1.0)
    w = sin_s / r
    w_r = cos_s * sig_r / r - sin_s / r ** 2
    ux, uy = u / r, v / r

    n1 = u * w
    n2 = v * w
    n3 = cos_s
    comps = {
        "n1": (n1, w + u * w_r * ux, u * w_r * uy),
        "n2": (n2, v * w_r * ux, w + v * w_r * uy),
        "n3": (n3, -sin_s * sig_r * ux, -sin_s * sig_r * uy),
    }
    jets = {}
    for name, (val, dx, dy) in comps.items():
        jets[name] = JetFunction.from_arrays(
            grid, {(0, 0): val, (1, 0): dx, (0, 1): dy})
    return jets


def bott_projector(grid, r_max=0.42, family="mollifier"):
    """Rank-one projector field (1 + n.sigma)/2 on the chart grid.

    The orientation (n_2 reversed) is chosen so that the integrated
    character equals +1.
    """
    if not isinstance(grid, ChartGrid2D):
        raise TypeError("the curvature projector lives on a ChartGrid2D")
    jets = _sphere_field(grid, r_max, family)
    n1, n2, n3 = jets["n1"], jets["n2"].scale(-1.0), jets["n3"]
    spec = GroupSpec.trivial()
    half = 0.5
    sigma = {
        "id": np.eye(2, dtype=complex),
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    e = spec.identity()
    P = MixedForm.zero(grid, spec, 2, kalg=2)
    P.add_term(ScalarForm.function(
        JetFunction.constant(grid, half, order=1)),
        (GAMatrix(spec, 2, {e: sigma["id"]}),))
    for jet, key in ((n1, "x"), (n2, "y"), (n3, "z")):
        P.add_term(ScalarForm.function(jet.scale(half)),
                   (GAMatrix(spec, 2, {e: sigma[key]}),))
    return P


def bott_integral(grid_or_size=64, r_max=0.42, family="mollifier"):
    """Integral over the chart of the degree-(2,0) character component."""
    grid = (grid_or_size if isinstance(grid_or_size, ChartGrid2D)
            else ChartGrid2D(int(grid_or_size)))
    P = bott_projector(grid, r_max=r_max, family=family)
    ch = chern_even(P, 1)
    return ch.scalar_part().integrate()
