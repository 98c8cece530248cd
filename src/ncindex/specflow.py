"""Spectral flow of self-adjoint paths and the relative index of
projections, with the compressed-loop projection field used to verify
the odd pairing on truncations.

Every matrix stays in the field of its entries, so real symmetric
samples take LAPACK's real routines, at about a third of the cost.
A matrix is tested for diagonality once, where it enters the module
(`_compact`); a diagonal one then travels as the 1-D array of its
diagonal, which every helper takes and a path keeps as its sample.  Its
eigen-decomposition is a stable sort of that diagonal, and its unit
eigenvectors travel as their mode indices, which the boundary filter
tests by index.  The windows of `verify_oddind` and their projections
are diagonal and built 1-D, so it holds no n x n array and its time and
memory grow as n.

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
#: the defects `relative_index` and `pu_projection` accept of their input
PROJ_TOL = 1e-8


class SelfAdjointPath:
    """Sampled path of self-adjoint matrices with a refinement guarantee.

    Between consecutive samples no eigenvalue moves by more than
    delta_c / 2 (enforced via the operator-norm bound on the difference,
    see `norm_exceeds`); refinement bisects until that holds, and raises
    CrossingUnresolved when the budget is exhausted or the path jumps
    (the bound still fails on a step shorter than 1e-6).  A path has at
    least one sample and one time per sample.  `mats` holds each sample
    in compact form (a diagonal one as its 1-D diagonal, see `_compact`),
    checked self-adjoint as it is taken.
    """

    def __init__(self, ts, mats, delta_c=1e-2):
        ts, mats = list(ts), list(mats)
        if not 0 < len(ts) == len(mats):
            raise ValueError(f"path needs one time per sample, and a sample;"
                             f" got {len(ts)} times, {len(mats)} samples")
        self.ts, self.mats, self.delta_c = [], [], delta_c
        for t, m in zip(ts, mats):
            self._insert(len(self.ts), t, m)

    def _insert(self, i, t, mat):
        """Check the sample `mat` at `t` and put it in place `i`."""
        x = _compact(_own_field(mat))
        if not _sa_residual(x) <= 1e-10:
            raise ValueError("path sample is not self-adjoint")
        self.ts.insert(i, t)
        self.mats.insert(i, x)

    @classmethod
    def _of_checked(cls, ts, mats, delta_c):
        """A path of samples that another path has checked already."""
        path = cls.__new__(cls)
        path.ts, path.mats, path.delta_c = ts, mats, delta_c
        return path

    @classmethod
    def from_callable(cls, fn, delta_c=1e-2, initial=9, max_samples=4096):
        ts = np.linspace(0.0, 1.0, initial)
        path = cls(ts, [fn(t) for t in ts], delta_c)
        ts = path.ts
        i = 0
        while i < len(ts) - 1:
            a, b = ts[i], ts[i + 1]
            diff = _difference(*path.mats[i:i + 2])
            if not norm_exceeds(diff, delta_c / 2):
                i += 1
                continue
            if b - a < 1e-6:
                raise CrossingUnresolved(
                    f"path jumps by {np.linalg.norm(_dense(diff), 2):.3g} "
                    f"> delta_c / 2 = {delta_c / 2:.3g} at t = {a:.9g}")
            if len(ts) >= max_samples:
                raise CrossingUnresolved(
                    f"refinement budget of {max_samples} samples exhausted")
            mid = 0.5 * (a + b)
            path._insert(i + 1, mid, fn(mid))
        return path

    def reversed(self):
        return SelfAdjointPath._of_checked(
            [self.ts[-1] - t + self.ts[0] for t in reversed(self.ts)],
            self.mats[::-1], self.delta_c)

    def concatenate(self, other):
        shift = self.ts[-1] - other.ts[0]
        return SelfAdjointPath._of_checked(
            self.ts + [t + shift for t in other.ts[1:]],
            self.mats + other.mats[1:], min(self.delta_c, other.delta_c))


def norm_exceeds(diff, bound):
    """Whether the spectral norm of `diff` exceeds `bound`.

    `diff` is a matrix, compared by its largest singular value, or the
    1-D array of a diagonal one, whose norm is its largest |entry| (a
    NaN entry exceeds every bound).
    """
    x = _compact(diff)
    if x.ndim == 1:
        return not np.max(np.abs(x), initial=0.0) <= bound
    return bool(np.linalg.norm(x, 2) > bound)


def _compact(mat):
    """`mat` in compact form: the 1-D array of its diagonal when `mat`
    is square with every entry off the diagonal zero, else `mat` itself
    (so a 1-D array is compact already).  The off-diagonal entries are
    read as the strided view that skips the diagonal; a NaN there counts
    as nonzero.  A diagonal comes out as a copy, so it holds no reference
    to `mat`.  The module's one diagonality scan."""
    n = len(mat)
    if mat.shape != (n, n):
        return mat
    if n > 1 and mat.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].any():
        return mat
    return np.diagonal(mat).copy()


def _dense(x):
    """The matrix that the compact `x` stands for."""
    return np.diag(x) if x.ndim == 1 else x


def _difference(x, y):
    """x - y of two compact samples, a 1-D one against a matrix expanded."""
    return x - y if x.ndim == y.ndim else _dense(x) - _dense(y)


def _sa_residual(x):
    """max |x - x*| of the compact `x`, where a 1-D `x` is its own
    transpose.  NaN when an entry is NaN, so a guard
    `not (residual <= tol)` fails."""
    return np.max(np.abs(x - _adjoint(x)), initial=0.0)


def _own_field(x):
    """`x` as a float64 array, or complex128 if its entries are complex."""
    return np.asarray(x, dtype=np.result_type(np.asarray(x).dtype, float))


def _adjoint(m):
    """Conjugate transpose of `m`, a view with no copy when it is real."""
    return m.conj().T if np.iscomplexobj(m) else m.T


def spectral_flow(path, margin_filter=None):
    """Signed count of eigenvalue crossings through zero along the path.

    The per-sample drops of the negative-eigenvalue count telescope to
    the drop between the two endpoints, so only those are decomposed.
    Eigenpairs rejected by `margin_filter` (truncation-boundary modes)
    are ignored; the filter takes a matrix whose columns are the
    eigenvectors and returns one rejection flag per column.  Both
    endpoints must be invertible on the retained subspace.
    """
    return _endpoint_flow(_eigh(path.mats[0]), _eigh(path.mats[-1]),
                          path.delta_c, margin_filter)


def _endpoint_flow(first, last, delta_c, margin_filter):
    """Spectral flow from the eigendecompositions `(w, v)` of the two
    endpoints, with `delta_c` and `margin_filter` as in `spectral_flow`."""
    negs = []
    for label, (w, v) in (("initial", first), ("final", last)):
        if not np.all(np.isfinite(w)):
            raise EndpointDegenerate(
                f"{label} endpoint has an eigenvalue that is not finite")
        w = w[~_rejected(margin_filter, v, len(w))]
        if len(w) and np.min(np.abs(w)) < delta_c:
            raise EndpointDegenerate(
                f"{label} endpoint has an eigenvalue at "
                f"{np.min(np.abs(w)):.3g}, inside the crossing window")
        negs.append(int(np.sum(w < 0.0)))
    return negs[0] - negs[1]


def relative_index(P, Q, eps_k=1e-6, spurious=None):
    """Fredholm index of the compression Q P : ran P -> ran Q.

    P and Q, matrices or the 1-D arrays of diagonal ones, must be
    self-adjoint within `PROJ_TOL`, with every eigenvalue within
    `PROJ_TOL` of 0 or 1.  Kernel and cokernel dimensions come from
    singular values of the compression below `eps_k`; a `spurious`
    callback may reject vectors (in ambient coordinates, one per column)
    that are finite-truncation artifacts.  When both are diagonal, ran P
    and ran Q are spanned by unit vectors, and the kernel and cokernel
    are those of the modes in one range and not in the other, with no
    compression to decompose.
    """
    if len(P) != len(Q):
        raise ValueError(f"P of shape {np.shape(P)} and Q of shape "
                         f"{np.shape(Q)} act on spaces of different sizes")
    p = _projection_range(_compact(_own_field(P)), "P")
    q = _projection_range(_compact(_own_field(Q)), "Q")
    if p.ndim == q.ndim == 1:
        ker, coker = np.flatnonzero(p & ~q), np.flatnonzero(q & ~p)
    else:
        bp, bq = (np.eye(len(r))[:, r] if r.ndim == 1 else r for r in (p, q))
        comp = bq.conj().T @ bp
        if comp.size == 0:
            # an empty range: all of ran P is kernel, all of ran Q cokernel
            ker, coker = bp, bq
        else:
            uu, sv, vh = np.linalg.svd(comp)
            r = kernel_rank(sv, eps_k)
            ker = bp @ vh[r:].conj().T
            coker = bq @ uu[:, r:]
    return int(np.sum(~_rejected(spurious, ker, len(p)))
               - np.sum(~_rejected(spurious, coker, len(p))))


def _projection_range(x, name):
    """Check that the compact `x` is a projection, as `relative_index`
    states, and return its range: for a 1-D diagonal, the mask of the
    modes that span it; else an orthonormal basis, from one `eigh`.
    The spectral residual max |w^2 - w| bounds every entry of x^2 - x."""
    if not _sa_residual(x) <= PROJ_TOL:
        raise NotAProjection(f"{name} is not self-adjoint")
    w, v = (x.real, None) if x.ndim == 1 else _eigh(x)
    if not np.max(np.abs(w * w - w), initial=0.0) <= PROJ_TOL:
        raise NotAProjection(f"{name} has an eigenvalue away from 0 and 1")
    return w > 0.5 if v is None else v[:, w > 0.5]


def _rejected(reject, vecs, n):
    """Flags of `reject` (None rejects nothing) on the columns of `vecs`,
    or on the unit vectors e_j of an n-space for its 1-D modes j: by index
    where `reject` has a `modes` test (`boundary_mass_filter`)."""
    if reject is None:
        return np.zeros(vecs.shape[-1], dtype=bool)
    if vecs.ndim == 1 and hasattr(reject, "modes"):
        return reject.modes(vecs, n)
    return reject(np.eye(n)[:, vecs] if vecs.ndim == 1 else vecs)


def _eigh(mat):
    """Eigenvalues, ascending, and eigenvectors of the self-adjoint `mat`.

    A diagonal `mat`, or the 1-D array of its diagonal, takes no LAPACK
    call: its eigenvalues are the diagonal's real part in a stable sort,
    so ties keep their diagonal order (a NaN sorts last and stays), and
    its unit eigenvectors e_v[k] come back as the modes v.  Any other
    matrix goes to LAPACK whole."""
    x = _compact(mat)
    if x.ndim == 2:
        return np.linalg.eigh(x)
    order = np.argsort(x.real, kind="stable")
    return x.real[order], order


# ---------------------------------------------------------------------
# interval cutoff triple and the loop-compression projection
# ---------------------------------------------------------------------


class ChiTriple:
    """Interval cutoffs: chi_0 = 1 near 0, chi_2 = 1 near 1, disjoint
    supports, and chi_1 chosen so chi_1^2 + (chi_0 + chi_2)^2 = 1."""

    def __init__(self, n=257, family="mollifier"):
        self.t = np.linspace(0.0, 1.0, n)
        s0, _ = bumps.step((0.5 - self.t) / (0.5 - 1.0 / 3.0), family)
        s2, _ = bumps.step((self.t - 0.5) / (2.0 / 3.0 - 0.5), family)
        self.chi0 = s0
        self.chi2 = s2
        s = self.chi0 + self.chi2
        self.chi1 = np.sqrt(np.maximum(1.0 - s * s, 0.0))

    def residual(self):
        s = self.chi0 + self.chi2
        r1 = np.max(np.abs(self.chi1 ** 2 + s ** 2 - 1.0))
        r2 = np.max(np.abs(self.chi0 * self.chi2))
        return float(max(r1, r2))


def pu_projection(U, chi):
    """Projection field onto the graph of the loop clutching unitary.

    Returns samples of the 2x2-block projection

        [[chi_1^2,                chi_1 (chi_0 + chi_2 U)],
         [chi_1 (chi_0 + chi_2 U*), (chi_0 + chi_2)^2     ]]

    which equals diag(0, 1) at both interval ends.
    """
    U = np.asarray(U, dtype=complex)
    d = U.shape[0]
    if np.max(np.abs(U.conj().T @ U - np.eye(d))) > PROJ_TOL:
        raise NotUnitary("U is not unitary at the requested tolerance")
    eye = np.eye(d, dtype=complex)
    c0, c1, c2 = (c[:, None, None] for c in (chi.chi0, chi.chi1, chi.chi2))
    a = c0 * eye + c2 * U
    return np.block([[c1 * c1 * eye, c1 * a],
                     [c1 * a.conj().swapaxes(1, 2), (c0 + c2) ** 2 * eye]])


def pu_idempotence_residual(field):
    herm = field.conj().swapaxes(1, 2)
    return float(max(np.max(np.abs(field @ field - field), initial=0.0),
                     np.max(np.abs(field - herm), initial=0.0)))


# ---------------------------------------------------------------------
# mode-window verification of the odd index pairing
# ---------------------------------------------------------------------


def mode_window(fc):
    """Fourier modes -fc..fc of the circle Dirac generator."""
    return np.arange(-fc, fc + 1)


def truncated_dirac(fc):
    return np.diag(mode_window(fc)).astype(float)


def default_trivializer(fc, shift=0.5):
    """Rank-one perturbation pushing the zero mode to `shift`."""
    a = np.zeros((2 * fc + 1, 2 * fc + 1))
    a[fc, fc] = shift
    return a


def shift_matrix(fc, m):
    """Window matrix of multiplication by e^{-2 pi i m t}: modes drop
    by m; the clipped rows/columns are the finite-section artifact."""
    return np.eye(2 * fc + 1, k=m, dtype=complex)


def conjugate_by_shift(mat, m):
    """U mat U* for U = shift_matrix(fc, m) on the window of `mat`, as an
    index map: entry (j, l) is mat[j + m, l + m], zero where that index
    leaves the window.  Equal to the product bit for bit, since every
    summand of it but one is an exact zero.  A 1-D `mat` stands for a
    diagonal matrix and gives the 1-D diagonal of the product."""
    x = _own_field(mat)
    n = len(x)
    out = np.zeros_like(x)
    lo, hi = max(0, -m), min(n, n - m)
    if lo < hi:
        out[(slice(lo, hi),) * x.ndim] = x[(slice(lo + m, hi + m),) * x.ndim]
    return out


def edge_width(fc, margin=0.1):
    """Modes at each end of the window that `boundary_mass_filter`
    treats as its outer margin.  `verify_oddind` needs
    |m| <= edge_width(fc, margin) <= fc - |m|: a shift by more modes
    clips window modes the filter does not reject, and a wider margin
    rejects the modes that cross zero, so both sides read the same
    wrong count."""
    return int(np.ceil((2 * fc + 1) * margin / 2.0))


def boundary_mass_filter(fc, margin=0.1):
    """Rejects vectors concentrated in the outer margin of the window.

    The returned test takes one vector, or a matrix of column vectors and
    then gives one flag per column; `modes(j, n)` flags e_j in C^n.
    """
    n = 2 * fc + 1
    edge = edge_width(fc, margin)
    lo, hi = edge, n - edge

    def reject(vecs):
        v = np.abs(np.asarray(vecs)) ** 2
        return v[lo:hi].sum(axis=0) < 0.5 * v.sum(axis=0)

    def modes(j, size):     # e_j has all its mass in [lo:hi] iff j does
        inner = range(size)[lo:hi]
        return (j < inner.start) | (j >= inner.stop)

    reject.modes = modes
    return reject


def verify_oddind(fc, m, margin=0.1, shift=0.5):
    """Both sides of the odd pairing on a mode-window truncation.

    Spectral flow of the path D + A -> (1-t) D + t U D U* -> U (D + A) U*
    (trivialized endpoints) against the relative index of the nonnegative
    spectral projections, for U the winding symbol of degree m.  The flow
    is read off the two endpoints alone (see `spectral_flow`), and P off
    the diagonal of `start`.  Boundary modes are excluded by the
    margin; the two sides agree after the pinned orientation.  The
    count is only right when |m| <= edge_width(fc, margin) <= fc - |m|
    (see `edge_width`); outside it the two sides may still match.
    """
    start = _own_field(mode_window(fc))     # D + A as its 1-D diagonal
    start[fc] += shift
    reject = boundary_mass_filter(fc, margin)
    spfl = _endpoint_flow(_eigh(start), _eigh(conjugate_by_shift(start, m)),
                          0.2, reject)    # delta_c = 0.2

    P = (start.real >= 0.0).astype(float)   # the nonnegative projection
    Q = conjugate_by_shift(P, m)
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

