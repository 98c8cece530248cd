"""Truncated-Fourier Toeplitz index engine for circle actions.

Every system is a circle action on d x d matrices of Fourier polynomials,
written as weight decompositions {m: d x d block}; the translation action
on functions on the circle is the case d = 1.  The compression T of an
acting unitary onto the nonnegative modes [0, F_c] of the circle Dirac
generator is block Toeplitz, and its tau-weighted kernel/cokernel defect
is read from the singular values of its corners at the two ends of the
window: the genuine Hardy boundary at mode 0, and the truncation
artifacts of the finite section at mode F_c.

Widom's formula for finite sections,

    T_n(ab) = T_n(a) T_n(b) + P_n H(a) H(b~) P_n + W_n H(a~) H(b) W_n

(Boettcher-Silbermann, Introduction to Large Truncated Toeplitz
Matrices, 1999), with a = u*, b = u and ab = 1 for a unitary u, gives
T*T = 1 - (Hankel terms); the Hankel matrices of a symbol of bandwidth w
vanish outside their leading w x w corner, so T*T, and likewise TT*, is
the identity outside the first and last w modes of the window.  The columns
(rows) of T off that boundary are therefore orthonormal and orthogonal
to the boundary columns (rows): every other singular value is exactly 1,
and the kernel and cokernel lie in the span of the boundary coordinates.
A boundary column meets only the first or the last 2w rows, so the
kernel splits into the null vectors of the head corner T[:2w, :w] and
of the tail corner T[-2w:, -w:]; the cokernel at the head is read from
the row corner T[:w, :2w].  No matrix whose size depends on F_c is built.

Orientation is pinned once by the translation action with the symbol of
one negative winding, whose index is +1; the classical winding number of
the determinant loop therefore enters all comparisons with a minus sign.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, NotUnitary, PhaseJump

TWO_PI_I = 2j * np.pi
# share of the top modes that must hold the tail corner's kernel vectors
MARGIN = 0.1


class WeightBlockSystem:
    """Circle action on d x d matrices of Fourier polynomials.

    Elements are weight decompositions {m: d x d block}: the circle acts
    on weight m with character e^{2 pi i m t}, so the generator multiplies
    weight m by 2 pi i m, and the invariant trace is the normalized matrix
    trace of the weight-zero block.  `grid_n` is the default number of
    points at which `samples` evaluates a symbol.
    """

    kind = "weight-block"

    def __init__(self, rep_dim, grid_n):
        self.rep_dim = rep_dim
        self.grid_n = grid_n

    def element(self, blocks):
        d = self.rep_dim
        return {int(m): np.asarray(b, dtype=complex).reshape(d, d)
                for m, b in blocks.items() if np.any(b)}

    def one(self):
        return {0: np.eye(self.rep_dim, dtype=complex)}

    def weights(self, a):
        return a

    weight_blocks = weights

    def delta(self, a):
        """Generator of the action: d/dt of the action at t = 0."""
        return {m: TWO_PI_I * m * b for m, b in a.items() if m}

    def trace(self, a):
        b = a.get(0)
        if b is None:
            return 0j
        return complex(np.trace(b) / self.rep_dim)

    def star(self, a):
        return {-m: b.conj().T for m, b in a.items()}

    def mul(self, a, b):
        out = {}
        for m, x in a.items():
            for n, y in b.items():
                out[m + n] = out.get(m + n, 0) + x @ y
        return {m: b for m, b in out.items() if np.any(b)}

    def samples(self, a, n=None):
        """Values of the symbol on a uniform grid of n points."""
        n = n or self.grid_n
        x = np.arange(n) / n
        d = self.rep_dim
        vals = np.zeros((n, d, d), dtype=complex)
        for m, b in a.items():
            vals += np.exp(TWO_PI_I * m * x)[:, None, None] * b
        return vals


class CircleSystem(WeightBlockSystem):
    """Translation action on functions on the circle: the case d = 1.

    Elements are Fourier polynomials {m: coefficient}; the action
    translates, the generator differentiates, and the invariant trace is
    the zeroth Fourier coefficient.
    """

    kind = "circle"

    def __init__(self, grid_n=256):
        super().__init__(1, grid_n)

    def exponential(self, m):
        """The loop x -> e^{-2 pi i m x}."""
        return self.element({-m: 1.0})

    @staticmethod
    def from_samples(values, band):
        """Fourier coefficients |m| <= band of sampled symbol values."""
        n = len(values)
        coeffs = np.fft.fft(np.asarray(values, dtype=complex)) / n
        out = {}
        for m in range(-band, band + 1):
            c = coeffs[m % n]
            if c != 0:
                out[m] = c
        return out


class RotationSystem(WeightBlockSystem):
    """Rational rotation algebra in its q x q clock-shift representation.

    The shift generator V has weight one and the clock generator has
    weight zero.
    """

    kind = "rotation"

    def __init__(self, p, q):
        if q < 1:
            raise ValueError("q must be positive")
        super().__init__(q, 64)
        self.p = p
        self.q = q
        omega = np.exp(TWO_PI_I * p / q)
        self.clock = np.diag(omega ** np.arange(q))
        self.shift = np.roll(np.eye(q, dtype=complex), 1, axis=0)

    def v(self):
        return {1: self.shift.copy()}

    def u_clock(self):
        return {0: self.clock.copy()}


@dataclass
class ToeplitzProblem:
    """Compression of a symbol {m: d x d block} on modes [0, F_c];
    `bandwidth` is the largest weight of the symbol."""

    system: WeightBlockSystem
    fc: int
    eps_k: float
    symbol: dict
    bandwidth: int

    def section(self, rows, cols):
        """The rectangle T[rows, cols] for arrays of modes: block (j, k)
        is the weight j - k block of the symbol."""
        d = self.system.rep_dim
        weight = np.subtract.outer(rows, cols)
        out = np.zeros((len(rows), d, len(cols), d), dtype=complex)
        for m, blk in self.symbol.items():
            j, k = np.nonzero(weight == m)
            out[j, :, k, :] = blk
        return out.reshape(len(rows) * d, len(cols) * d)

    @functools.cached_property
    def blocks(self):
        """[T] as one dense matrix on all F_c + 1 modes."""
        modes = np.arange(self.fc + 1)
        return [self.section(modes, modes)]


def assemble_toeplitz(system, u, fc, eps_k=1e-6, tol=1e-8):
    """Block Toeplitz compression of the action of u onto modes 0..F_c.

    For the circle the translate of u by y compresses to D_y T D_y* with
    D_y = diag(e^{2 pi i k y}): one problem serves every translate."""
    uu = system.mul(system.star(u), u)
    uu[0] = uu.get(0, 0) - np.eye(system.rep_dim)
    res = max(float(np.max(np.abs(b))) for b in uu.values())
    if res > tol:
        raise NotUnitary(f"unitarity residual {res:.3g} > {tol}")
    band = max((abs(m) for m in u), default=0)
    return ToeplitzProblem(system, fc, eps_k, u, band)


def kernel_rank(sv, eps_k):
    """Number of singular values (sorted descending) at or above the
    kernel threshold; raises IllConditioned when the smallest of them
    lies within 10x of it."""
    r = int(np.sum(sv >= eps_k))
    if r and sv[r - 1] < 10 * eps_k:
        raise IllConditioned(
            f"singular value {sv[r - 1]:.3g} within 10x of the kernel "
            f"threshold {eps_k:g}")
    return r


def _top_modes(size, margin):
    """Modes in the top `margin` share of `size` modes, where the finite
    section leaves its artifact kernel vectors."""
    return size - int(np.floor(size * (1.0 - margin)))


def _mode_mass_top(vecs, d, margin):
    """Share of each column's l2 mass in the top `margin` share of the
    mode range."""
    size = len(vecs) // d
    per_mode = (np.abs(vecs) ** 2).reshape(size, d, -1).sum(axis=1)
    top = per_mode[size - _top_modes(size, margin):]
    return top.sum(axis=0) / per_mode.sum(axis=0)


def floor_cutoff(bandwidth):
    """The first guard of `tau_index`: F_c >= 8 x bandwidth (at least 8),
    checked before any decomposition."""
    return 8 * max(bandwidth, 1)


def least_cutoff(bandwidth):
    """Smallest F_c passing both guards of `tau_index` at the default
    margin when a symbol of bandwidth w = max(bandwidth, 1) has w kernel
    vectors, as exp(+-w) has: floor_cutoff(w), and w modes in the top
    margin.  `tau_index` checks the margin against the kernel vectors it
    finds; the CLI, which knows only the bandwidth, checks this bound."""
    w = max(bandwidth, 1)
    fc = floor_cutoff(w)
    while _top_modes(fc + 1, MARGIN) < w:
        fc += 1
    return fc


def tau_index(tp, margin=MARGIN):
    """Trace-weighted kernel-minus-cokernel defect of the compression.

    Kernel and cokernel are counted by the singular values below the
    threshold in the head corners of T (see the module docstring); the
    tail corner holds the finite-section artifacts, which must fit in
    the top margin of the window.  The threshold guard sees the corner
    values with one implied value 1 for the interior.  Both are SVDs: a
    Gram matrix would square singular values near eps_k down to the
    rounding level of 1.  The result is divided by the matrix dimension d.
    """
    if tp.fc < floor_cutoff(tp.bandwidth):
        raise ValueError(
            f"truncation margin violated: F_c = {tp.fc} < 8 x bandwidth "
            f"= {floor_cutoff(tp.bandwidth)}")
    d = tp.system.rep_dim
    w = max(tp.bandwidth, 1)
    head = np.arange(2 * w)
    tail = head + tp.fc + 1 - 2 * w
    cols = np.linalg.svd(np.stack([tp.section(head, head[:w]),
                                   tp.section(tail, tail[w:])]),
                         compute_uv=False)
    rows = np.linalg.svd(tp.section(head[:w], head), compute_uv=False)
    spectrum = np.sort(np.r_[1.0, cols.ravel()])[::-1]
    n = len(spectrum) - kernel_rank(spectrum, tp.eps_k)
    if n > cols.size:
        raise IllConditioned(
            f"kernel threshold {tp.eps_k:g} lies above the singular value "
            f"1 of the interior modes")
    # the artifacts of one side are n vectors at the top of the window
    top = _top_modes(tp.fc + 1, margin)
    if n > top * d:
        raise ValueError(
            f"truncation margin violated: {n} kernel vectors, but the top "
            f"margin of the {tp.fc + 1} modes holds {top}")
    return int(np.sum(cols[0] < tp.eps_k) - np.sum(rows < tp.eps_k)) / d


def dynsys_formula(system, u, tol=1e-10):
    """The derivation-trace index value -(2 pi i)^{-1} tau(u* delta(u))."""
    du = system.delta(u)
    first = -system.trace(system.mul(system.star(u), du)) / TWO_PI_I
    dus = system.delta(system.star(u))
    second = system.trace(system.mul(u, dus)) / TWO_PI_I
    if abs(first - second) > tol:
        raise ArithmeticError(
            f"the two derivation-trace expressions disagree: "
            f"{first} vs {second}")
    return first


def winding_oracle(samples):
    """Winding number of the determinant loop of sampled matrices.

    Raises PhaseJump when consecutive phases differ by pi or more, which
    means the sampling is too coarse to trust.
    """
    arr = np.asarray(samples, dtype=complex)
    if arr.ndim == 1:
        dets = arr
    else:
        dets = np.linalg.det(arr)
    if np.min(np.abs(dets)) < 1e-12:
        raise PhaseJump("determinant loop passes through zero")
    closed = np.concatenate([dets, dets[:1]])
    phases = np.angle(closed[1:] / closed[:-1])
    if np.max(np.abs(phases)) >= np.pi * (1 - 1e-9):
        raise PhaseJump("phase increment >= pi between samples")
    total = float(np.sum(phases) / (2 * np.pi))
    wind = int(round(total))
    if abs(total - wind) > 1e-6:
        raise PhaseJump(f"winding {total} is not close to an integer")
    return wind


def winding_index(system, u):
    """Sign-adjusted oracle prediction for the tau-index of u.  With 4 x
    rep_dim x bandwidth samples (at least 512) the determinant's phase
    moves <= pi / 2 per step (Bernstein), so the oracle cannot alias."""
    n = max(512, 4 * system.rep_dim * max(map(abs, u), default=0))
    w = winding_oracle(system.samples(u, n))
    return -w / system.rep_dim
