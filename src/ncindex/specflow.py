"""Spectral flow of self-adjoint paths and the relative index of
projections, with the compressed-loop projection field used to verify
the odd pairing on truncations.

Spectral flow counts signed eigenvalue crossings through zero; on finite
matrices this is the drop of the negative-eigenvalue count from one end
of the path to the other, which is automatically additive under
concatenation and invariant under refinement.  Mode-window truncations
of the circle Dirac generator produce spurious spectrum near the window
boundary, so all verifications filter eigenvectors by an interior-margin
parameter and the relative index discards kernel vectors concentrated at
the artificial edge.

The relative index convention is the Fredholm index of the compression
Q P : ran P -> ran Q; against the spectral flow of the conjugation path
this convention carries a global orientation factor of -1, pinned once by
the winding-one symbol and never adjusted per case.
"""

from __future__ import annotations

import numpy as np

from . import bumps
from .errors import (CrossingUnresolved, EndpointDegenerate, NotAProjection,
                     NotUnitary)
from .toeplitz import kernel_rank

#: global orientation between the compression-convention relative index
#: and the spectral flow, fixed by the winding-one example
RELATIVE_INDEX_ORIENTATION = -1


class SelfAdjointPath:
    """Sampled path of self-adjoint matrices with a refinement guarantee.

    Between consecutive samples no eigenvalue moves by more than
    delta_c / 2 (enforced via the operator-norm bound on the difference);
    refinement bisects until that holds or the budget is exhausted.
    """

    def __init__(self, ts, mats, delta_c=1e-2, sa_tol=1e-10):
        self.ts = list(ts)
        self.mats = [np.asarray(m, dtype=complex) for m in mats]
        self.delta_c = delta_c
        for m in self.mats:
            if np.max(np.abs(m - m.conj().T)) > sa_tol:
                raise ValueError("path sample is not self-adjoint")

    @classmethod
    def from_callable(cls, fn, delta_c=1e-2, initial=9, max_samples=4096,
                      t0=0.0, t1=1.0):
        ts = list(np.linspace(t0, t1, initial))
        mats = {t: np.asarray(fn(t), dtype=complex) for t in ts}
        i = 0
        while i < len(ts) - 1:
            a, b = ts[i], ts[i + 1]
            gap = np.linalg.norm(mats[a] - mats[b], 2)
            if gap <= delta_c / 2 or (b - a) < 1e-6:
                i += 1
                continue
            if len(ts) >= max_samples:
                raise CrossingUnresolved(
                    f"refinement budget of {max_samples} samples exhausted")
            mid = 0.5 * (a + b)
            mats[mid] = np.asarray(fn(mid), dtype=complex)
            ts.insert(i + 1, mid)
        return cls(ts, [mats[t] for t in ts], delta_c)

    def reversed(self):
        return SelfAdjointPath(
            [self.ts[-1] - t + self.ts[0] for t in reversed(self.ts)],
            list(reversed(self.mats)), self.delta_c)

    def concatenate(self, other):
        shift = self.ts[-1] - other.ts[0]
        return SelfAdjointPath(
            self.ts + [t + shift for t in other.ts[1:]],
            self.mats + other.mats[1:], min(self.delta_c, other.delta_c))


def spectral_flow(path, margin_filter=None):
    """Signed count of eigenvalue crossings through zero along the path.

    Eigenpairs rejected by `margin_filter` (truncation-boundary modes)
    are ignored throughout; the filter takes a matrix whose columns are
    the eigenvectors and returns one rejection flag per column.  Both
    endpoints must be invertible on the retained subspace.
    """
    eigs = []
    for mat in path.mats:
        w, v = np.linalg.eigh(mat)
        eigs.append(w if margin_filter is None else w[~margin_filter(v)])
    for label, w in (("initial", eigs[0]), ("final", eigs[-1])):
        if len(w) and np.min(np.abs(w)) < path.delta_c:
            raise EndpointDegenerate(
                f"{label} endpoint has an eigenvalue at "
                f"{np.min(np.abs(w)):.3g}, inside the crossing window")
    negs = [int(np.sum(w < 0.0)) for w in eigs]
    return sum(a - b for a, b in zip(negs, negs[1:]))


def relative_index(P, Q, eps_k=1e-6, proj_tol=1e-8, spurious=None):
    """Fredholm index of the compression Q P : ran P -> ran Q.

    Kernel and cokernel dimensions come from singular values of the
    compression below `eps_k`; a `spurious` callback may reject vectors
    (in ambient coordinates, one per column) that are finite-truncation
    artifacts.
    """
    P = np.asarray(P, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    for name, M in (("P", P), ("Q", Q)):
        if np.max(np.abs(M @ M - M)) > proj_tol \
                or np.max(np.abs(M - M.conj().T)) > proj_tol:
            raise NotAProjection(f"{name} fails the projection residuals")
    bp = _range_basis(P)
    bq = _range_basis(Q)
    comp = bq.conj().T @ bp
    if comp.size == 0:
        # an empty range: all of ran P is kernel, all of ran Q cokernel
        ker, coker = bp, bq
    else:
        uu, sv, vh = np.linalg.svd(comp)
        r = kernel_rank(sv, eps_k)
        ker = bp @ vh[r:].conj().T
        coker = bq @ uu[:, r:]
    if spurious is None:
        return ker.shape[1] - coker.shape[1]
    return int(np.sum(~spurious(ker)) - np.sum(~spurious(coker)))


def _range_basis(P, thresh=0.5):
    w, v = np.linalg.eigh(P)
    return v[:, w > thresh]


# ---------------------------------------------------------------------
# interval cutoff triple and the loop-compression projection
# ---------------------------------------------------------------------


class ChiTriple:
    """Interval cutoffs: chi_0 = 1 near 0, chi_2 = 1 near 1, disjoint
    supports, and chi_1 chosen so chi_1^2 + (chi_0 + chi_2)^2 = 1."""

    def __init__(self, n=257, family="mollifier"):
        self.t = np.linspace(0.0, 1.0, n)
        s0, _, _ = bumps.step((0.5 - self.t) / (0.5 - 1.0 / 3.0), family)
        s2, _, _ = bumps.step((self.t - 0.5) / (2.0 / 3.0 - 0.5), family)
        self.chi0 = s0
        self.chi2 = s2
        s = self.chi0 + self.chi2
        self.chi1 = np.sqrt(np.maximum(1.0 - s * s, 0.0))

    def residual(self):
        s = self.chi0 + self.chi2
        r1 = np.max(np.abs(self.chi1 ** 2 + s ** 2 - 1.0))
        r2 = np.max(np.abs(self.chi0 * self.chi2))
        return float(max(r1, r2))


def pu_projection(U, chi, tol=1e-8):
    """Projection field onto the graph of the loop clutching unitary.

    Returns samples of the 2x2-block projection

        [[chi_1^2,                chi_1 (chi_0 + chi_2 U)],
         [chi_1 (chi_0 + chi_2 U*), (chi_0 + chi_2)^2     ]]

    which equals diag(0, 1) at both interval ends.
    """
    U = np.asarray(U, dtype=complex)
    d = U.shape[0]
    if np.max(np.abs(U.conj().T @ U - np.eye(d))) > tol:
        raise NotUnitary("U is not unitary at the requested tolerance")
    eye = np.eye(d, dtype=complex)
    n = len(chi.t)
    out = np.zeros((n, 2 * d, 2 * d), dtype=complex)
    for i in range(n):
        c0, c1, c2 = chi.chi0[i], chi.chi1[i], chi.chi2[i]
        a = c0 * eye + c2 * U
        out[i, :d, :d] = c1 * c1 * eye
        out[i, :d, d:] = c1 * a
        out[i, d:, :d] = c1 * a.conj().T
        out[i, d:, d:] = (c0 + c2) ** 2 * eye
    return out


def pu_idempotence_residual(field):
    worst = 0.0
    for mat in field:
        worst = max(worst,
                    float(np.max(np.abs(mat @ mat - mat))),
                    float(np.max(np.abs(mat - mat.conj().T))))
    return worst


# ---------------------------------------------------------------------
# mode-window verification of the odd index pairing
# ---------------------------------------------------------------------


def mode_window(fc):
    """Fourier modes -fc..fc of the circle Dirac generator."""
    return np.arange(-fc, fc + 1)


def truncated_dirac(fc):
    return np.diag(mode_window(fc)).astype(complex)


def default_trivializer(fc, shift=0.5):
    """Rank-one perturbation pushing the zero mode to `shift`."""
    a = np.zeros((2 * fc + 1, 2 * fc + 1), dtype=complex)
    a[fc, fc] = shift
    return a


def shift_matrix(fc, m):
    """Window matrix of multiplication by e^{-2 pi i m t}: modes drop
    by m; the clipped rows/columns are the finite-section artifact."""
    n = 2 * fc + 1
    mat = np.zeros((n, n), dtype=complex)
    for k in range(n):
        j = k - m
        if 0 <= j < n:
            mat[j, k] = 1.0
    return mat


def boundary_mass_filter(fc, margin=0.1):
    """Rejects vectors concentrated in the outer margin of the window.

    The returned test takes one vector, or a matrix of column vectors and
    then gives one flag per column.
    """
    n = 2 * fc + 1
    edge = int(np.ceil(n * margin / 2.0))
    lo, hi = edge, n - edge

    def reject(vecs):
        v = np.abs(np.asarray(vecs)) ** 2
        return v[lo:hi].sum(axis=0) < 0.5 * v.sum(axis=0)

    return reject


def verify_oddind(fc, m, margin=0.1, delta_c=0.2, shift=0.5,
                  samples=33):
    """Both sides of the odd pairing on a mode-window truncation.

    Spectral flow of (1-t) D + t U D U* (with trivialized endpoints)
    against the relative index of the nonnegative spectral projections,
    for U the winding symbol of degree m.  Boundary modes are excluded
    by the margin; the two sides agree after the pinned orientation.
    """
    D = truncated_dirac(fc)
    A = default_trivializer(fc, shift)
    U = shift_matrix(fc, m)
    D1 = U @ D @ U.conj().T
    A1 = U @ A @ U.conj().T
    reject = boundary_mass_filter(fc, margin)

    def seg_start(s):
        return D + (1.0 - s) * A

    def seg_main(s):
        return (1.0 - s) * D + s * D1

    def seg_end(s):
        return D1 + s * A1

    ts = np.linspace(0.0, 1.0, samples)
    all_ts, all_mats = [], []
    off = 0.0
    for seg in (seg_start, seg_main, seg_end):
        for t in ts:
            all_ts.append(off + t)
            all_mats.append(seg(t))
        off += 1.0
    path = SelfAdjointPath(all_ts, all_mats, delta_c)
    spfl = spectral_flow(path, margin_filter=reject)

    P = _nonneg_projection(D + A)
    Q = U @ P @ U.conj().T
    rel = relative_index(P, Q, spurious=reject)
    adjusted = RELATIVE_INDEX_ORIENTATION * rel
    return {
        "fc": fc,
        "m": m,
        "spfl": spfl,
        "rel_index": rel,
        "rel_index_adjusted": adjusted,
        "match": spfl == adjusted,
        "margin": margin,
    }


def _nonneg_projection(mat):
    w, v = np.linalg.eigh(mat)
    keep = w >= 0.0
    return (v[:, keep] @ v[:, keep].conj().T).astype(complex)
