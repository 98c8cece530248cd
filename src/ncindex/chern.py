"""Chern character forms of projections and unitaries.

The even character of a projection-valued mixed form P is

    sum_k (-1)^k / ((2 pi i)^k k!) tr P (d_tot P)^{2k},

the odd character of a unitary u is

    sum_k (-1/(2 pi i))^k (k-1)!/(2k-1)! tr u* (d_tot u)
                                             ((d_tot u*)(d_tot u))^{k-1}.

Both are closed up to the algebra-degree cutoff; exactness along paths of
projections is observed through vanishing pairings with closed cocycles
rather than by constructing a transgression form.  The last product of
a character is formed only as its trace (`MixedForm.traced_product`).
"""

from __future__ import annotations

import math

import numpy as np

from . import bumps, cyclic
from .errors import NotAProjection, NotUnitary
from .group_algebra import GroupSpec
from .nc_forms import ChartGrid2D, JetFunction, MixedForm, _jet_layout

TWO_PI_I = 2j * np.pi
#: the largest residual of a character's input or of a path's samples
RESIDUAL_TOL = 1e-8


def projection_defects(P):
    """max |P P - P| and max |P* - P| over the entries, from the value
    jets of P alone (`MixedForm._values`), with no difference formed
    (`MixedForm.max_abs_diff` reads only values)."""
    V = P._values()
    return (V @ V).max_abs_diff(V), V.star().max_abs_diff(V)


def projection_residual(P):
    """The larger projection defect of P; reads the values of P only."""
    return max(projection_defects(P))


def unitary_residual(u):
    """max |u* u - 1| and max |u u* - 1|; reads the values of u only."""
    v = u._values()
    vs = v.star()
    one = MixedForm.one(u.grid, u.spec, u.size, u.kalg)
    return max((vs @ v).max_abs_diff(one), (v @ vs).max_abs_diff(one))


def chern_even(P, k_max):
    """Even Chern character form of a projection.

    P is a projection-valued `MixedForm`, whose residual must be within
    `RESIDUAL_TOL`, or a `covering.MFProjection`, whose constructor has
    already checked its form; that form is used unchecked.
    """
    if isinstance(P, MixedForm):
        residual = projection_residual(P)
        if residual > RESIDUAL_TOL:
            raise NotAProjection(
                f"projection residual {residual:.3g} > {RESIDUAL_TOL}")
    else:
        P = P.form
    dP = P.dtot()
    factors = [P] + [dP @ dP] * k_max
    del dP  # the curvature dP dP is all the character reads of it
    out = P.graded_trace()
    for k, traced in enumerate(_prefix_traces(factors), 1):
        coeff = (-1.0) ** k / (TWO_PI_I ** k * math.factorial(k))
        out = out + traced.scale(coeff)
    return out


def chern_odd(u, k_max):
    """Odd Chern character form of a unitary-valued mixed form."""
    residual = unitary_residual(u)
    if residual > RESIDUAL_TOL:
        raise NotUnitary(
            f"unitarity residual {residual:.3g} > {RESIDUAL_TOL}")
    us = u.star()
    du = u.dtot()
    factors = [us, du]
    if k_max > 1:
        factors += [us.dtot() @ du] * (k_max - 1)
    out = MixedForm.zero(u.grid, u.spec, 1, u.kalg)
    for k, traced in zip(range(1, k_max + 1), _prefix_traces(factors)):
        coeff = ((-1.0 / TWO_PI_I) ** k * math.factorial(k - 1)
                 / math.factorial(2 * k - 1))
        out = out + traced.scale(coeff)
    return out


def _prefix_traces(factors):
    """Yield tr f_0 f_1 ... f_k for k = 1, ..., len(factors) - 1, the
    last product formed only as its trace."""
    power = factors[0]
    for f in factors[1:-1]:
        power = power @ f
        yield power.graded_trace()
    if len(factors) > 1:
        yield power.traced_product(factors[-1])


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

    def __init__(self, samples):
        if not samples:
            raise ValueError("empty path")
        self.samples = list(samples)
        self.residuals = [projection_residual(P) for P in self.samples]
        worst = max(self.residuals)
        if worst > RESIDUAL_TOL:
            raise NotAProjection(
                f"path leaves the projection manifold: residual "
                f"{worst:.3g} > {RESIDUAL_TOL}")


def chern_homotopy_defect(path, phi):
    """Pairing of phi (integrated over M) against ch(P_1) - ch(P_0).

    For a normalized closed cocycle this must vanish up to tolerance:
    the difference of endpoint characters is exact.
    """
    # the degree-n pairing reads bidegree (2k - n, n); p <= dim M bounds
    # the character order needed
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
    chart boundary, with analytic first derivatives.  Each grid array is
    computed into a buffer that is free by then, in the operation order
    of the formulas in the comments, so the values do not depend on it."""
    u = grid.xs - 0.5
    v = grid.ys - 0.5
    r = u * u
    r += v * v
    r = np.sqrt(r, out=r)  # r = sqrt(u^2 + v^2)
    t = r / r_max
    s, s1 = bumps.step(t, family)
    sig = np.multiply(np.pi, s, out=s)  # sig = pi s
    sig_r = np.multiply(np.pi, s1, out=s1)
    sig_r /= r_max  # sig_r = pi s' / r_max
    cos_s = np.cos(sig)
    sin_s = np.sin(sig, out=sig)
    # every step is flat at t = 0, so a grid point at the centre takes
    # the limits n = (0, 0, 1) and zero derivatives
    r[r <= 0] = 1.0
    w = sin_s / r
    w_r = np.multiply(cos_s, sig_r)
    w_r /= r
    w_r -= np.divide(sin_s, np.square(r, out=t), out=t)
    # w_r = cos_s sig_r / r - sin_s / r^2
    ux = u / r
    uy = np.divide(v, r, out=r)

    pos = _jet_layout(grid.ndim, 1).position
    val, dx, dy = pos[(0, 0)], pos[(1, 0)], pos[(0, 1)]
    stacks = np.empty((3, len(pos)) + grid.shape)
    n1, n2, n3 = stacks
    # n1 = u w: (u w, w + u w_r ux, u w_r uy)
    np.multiply(u, w, out=n1[val])
    uw_r = np.multiply(u, w_r, out=u)
    np.multiply(uw_r, ux, out=n1[dx])
    n1[dx] += w
    np.multiply(uw_r, uy, out=n1[dy])
    # n2 = v w: (v w, v w_r ux, w + v w_r uy)
    np.multiply(v, w, out=n2[val])
    vw_r = np.multiply(v, w_r, out=v)
    np.multiply(vw_r, ux, out=n2[dx])
    np.multiply(vw_r, uy, out=n2[dy])
    n2[dy] += w
    # n3 = cos_s: (cos_s, -sin_s sig_r ux, -sin_s sig_r uy)
    n3[val] = cos_s
    ss_r = np.negative(sin_s, out=sin_s)
    ss_r *= sig_r
    np.multiply(ss_r, ux, out=n3[dx])
    np.multiply(ss_r, uy, out=n3[dy])
    return {name: JetFunction(grid, 1, stack)
            for name, stack in zip(("n1", "n2", "n3"), stacks)}


#: the identity and the Pauli matrices sigma_x, sigma_y, sigma_z
PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                  [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def bott_projector(grid, r_max=0.42, family="mollifier"):
    """Rank-one projector field (1 + n.sigma)/2 on the chart grid.

    The orientation (n_2 reversed) is chosen so that the integrated
    character equals +1.
    """
    if not isinstance(grid, ChartGrid2D):
        raise TypeError("the curvature projector lives on a ChartGrid2D")
    field = _sphere_field(grid, r_max, family)
    # the coefficient jets of sigma_x, sigma_y and sigma_z, n_2 reversed
    # through the sign of its coefficient; sigma_0 = id takes the
    # constant 1, whose jet is 1 at its value and 0 elsewhere
    jets = [(1.0, field["n1"].stack), (-1.0, field["n2"].stack),
            (1.0, field["n3"].stack)]
    shape = jets[0][1].shape
    out = np.zeros((2, 2) + shape, dtype=complex)
    term = np.empty(shape)
    # sum_k (sigma_k / 2) jet_k into the real and the imaginary part, in
    # the order of k, each nonzero coefficient times its jet in turn
    for part, half in ((out.real, PAULI.real / 2),
                       (out.imag, PAULI.imag / 2)):
        part[:, :, 0] += half[0, :, :, None, None]
        for (sign, jet), coeff in zip(jets, half[1:]):
            for i, j in zip(*np.nonzero(coeff)):
                part[i, j] += np.multiply(sign * coeff[i, j], jet, out=term)
    spec = GroupSpec.trivial()
    P = MixedForm.zero(grid, spec, 2, kalg=2)
    P.add_entries([((spec.identity(),), (), out)])
    return P


def bott_integral(grid_or_size=64, r_max=0.42, family="mollifier"):
    """Integral over the chart of the degree-(2,0) character component."""
    grid = (grid_or_size if isinstance(grid_or_size, ChartGrid2D)
            else ChartGrid2D(int(grid_or_size)))
    ch = chern_even(bott_projector(grid, r_max=r_max, family=family), 1)
    return ch.scalar_part().integrate()
