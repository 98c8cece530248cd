import re

import numpy as np
import pytest

from ncindex import specflow
from ncindex.errors import (CrossingUnresolved, EndpointDegenerate,
                            NotAProjection, NotUnitary)
from ncindex.toeplitz import kernel_rank
from ncindex.specflow import (RELATIVE_INDEX_ORIENTATION, ChiTriple,
                              SelfAdjointPath, boundary_mass_filter,
                              conjugate_by_shift, default_trivializer,
                              norm_exceeds, pu_idempotence_residual,
                              pu_projection, relative_index, shift_matrix,
                              spectral_flow, truncated_dirac,
                              verify_oddind)

FC = 16


def half_shifted_dirac(fc=FC):
    return truncated_dirac(fc) + 0.5 * np.eye(2 * fc + 1)


def _nonneg_projection(mat):
    """Projection onto the eigenvectors of eigenvalue >= 0 of the dense
    self-adjoint `mat`, by LAPACK."""
    w, v = np.linalg.eigh(mat)
    keep = v[:, w >= 0.0]
    return keep @ keep.conj().T


def test_constant_invertible_path():
    D = half_shifted_dirac()
    path = SelfAdjointPath.from_callable(lambda t: D, delta_c=0.2)
    assert spectral_flow(path) == 0


def test_translation_path_single_crossing():
    D = half_shifted_dirac()
    n = D.shape[0]
    path = SelfAdjointPath.from_callable(lambda t: D + t * np.eye(n),
                                         delta_c=0.2)
    assert spectral_flow(path) == 1


def test_reversed_path_negates():
    D = half_shifted_dirac()
    n = D.shape[0]
    path = SelfAdjointPath.from_callable(lambda t: D + t * np.eye(n),
                                         delta_c=0.2)
    assert spectral_flow(path.reversed()) == -1


def test_reversed_and_concatenated_paths_reuse_the_checked_samples(
        monkeypatch):
    # the reversed translation path of demos/demo_specflow.py, and a
    # concatenation with a dense path
    D = half_shifted_dirac(32)
    n = D.shape[0]
    band = np.diag(np.full(n - 1, 0.3), 1)
    band = band + band.T
    p1 = SelfAdjointPath.from_callable(lambda t: D + t * np.eye(n),
                                       delta_c=0.2)
    p2 = SelfAdjointPath.from_callable(
        lambda t: D + (1 + t) * np.eye(n) + np.sin(3 * t) * band,
        delta_c=0.2)
    scans = []
    real = specflow._compact

    def counted(mat):
        if np.ndim(mat) == 2:
            scans.append(np.shape(mat))
        return real(mat)

    monkeypatch.setattr(specflow, "_compact", counted)
    made = [p1.reversed(), p1.concatenate(p2), p2.concatenate(p1),
            p1.concatenate(p2).reversed()]
    assert scans == []
    monkeypatch.undo()
    # the same paths built and checked from their samples
    rebuilt = [SelfAdjointPath(p.ts, p.mats, p.delta_c) for p in made]
    for path, again in zip(made, rebuilt):
        assert path.ts == again.ts and path.delta_c == again.delta_c
        assert all(a is b for a, b in zip(path.mats, again.mats))
    assert [spectral_flow(p) for p in made] \
        == [spectral_flow(p) for p in rebuilt] == [-1, 2, 0, -2]


def test_concatenation_additivity():
    D = half_shifted_dirac()
    n = D.shape[0]
    p1 = SelfAdjointPath.from_callable(lambda t: D + t * np.eye(n),
                                       delta_c=0.2)
    p2 = SelfAdjointPath.from_callable(
        lambda t: D + (1 + t) * np.eye(n), delta_c=0.2)
    assert spectral_flow(p1.concatenate(p2)) \
        == spectral_flow(p1) + spectral_flow(p2)


def test_interior_perturbation_invariance():
    D = half_shifted_dirac()
    n = D.shape[0]
    rng = np.random.default_rng(0)
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.01 * (h + h.conj().T)

    def fn(t):
        return D + t * np.eye(n) + np.sin(np.pi * t) ** 2 * h

    path = SelfAdjointPath.from_callable(fn, delta_c=0.2)
    assert spectral_flow(path) == 1


def test_endpoint_degenerate():
    D = truncated_dirac(FC)  # zero mode at the start
    path = SelfAdjointPath.from_callable(
        lambda t: D + t * np.eye(D.shape[0]), delta_c=0.2)
    with pytest.raises(EndpointDegenerate):
        spectral_flow(path)


def test_refinement_budget_exhaustion():
    with pytest.raises(CrossingUnresolved):
        SelfAdjointPath.from_callable(
            lambda t: np.array([[np.sin(200 * t) + 1.7]]),
            delta_c=1e-4, max_samples=16)


@pytest.mark.parametrize("after", [3.0, -1.0])
def test_refinement_rejects_a_jump(after):
    # bisection cannot close a jump: the sample gap stays 2 > delta_c / 2
    with pytest.raises(CrossingUnresolved, match=r"jumps by 2 .* t = 0\.333"):
        SelfAdjointPath.from_callable(
            lambda t: [[1.0 if t < 1 / 3 else after]], delta_c=0.2)


def test_path_needs_one_time_per_sample():
    D = half_shifted_dirac()
    with pytest.raises(ValueError, match="3 times, 2 samples"):
        SelfAdjointPath([0.0, 0.5, 1.0], [D, D + 0.1])
    with pytest.raises(ValueError, match="2 times, 3 samples"):
        SelfAdjointPath([0.0, 1.0], [D, D, D])


@pytest.mark.parametrize("build", [
    lambda: SelfAdjointPath([], []),
    lambda: SelfAdjointPath.from_callable(lambda t: np.eye(2), initial=0)])
def test_empty_path_is_rejected_at_construction(build):
    with pytest.raises(ValueError, match="0 times, 0 samples"):
        build()


@pytest.mark.parametrize("route", ["diagonal", "dense", "1-D", "mixed"])
def test_relative_index_rejects_projections_of_different_sizes(route):
    P, Q = np.diag([1.0, 0.0]), np.diag([1.0, 0.0, 1.0])
    if route == "dense":
        P, Q = np.full((2, 2), 0.5), np.full((3, 3), 1.0 / 3)
    elif route == "1-D":
        P, Q = np.diagonal(P), np.diagonal(Q)
    elif route == "mixed":
        P = np.diagonal(P)
    for a, b in ((P, Q), (Q, P)):
        with pytest.raises(ValueError, match=re.escape(
                f"P of shape {np.shape(a)} and Q of shape {np.shape(b)} "
                f"act on spaces of different sizes")):
            relative_index(a, b)


def test_relative_index_equal_projections():
    P = np.diag([1, 1, 0, 0]).astype(complex)
    assert relative_index(P, P) == 0


def test_relative_index_nested():
    P = np.diag([1, 1, 0, 0, 0]).astype(complex)
    Q = np.diag([1, 1, 1, 0, 0]).astype(complex)
    assert relative_index(P, Q) == -1
    assert relative_index(Q, P) == 1


def test_relative_index_rejects_non_projection():
    P = np.diag([1.0, 0.5]).astype(complex)
    with pytest.raises(NotAProjection):
        relative_index(P, P)


def test_relative_index_rejects_entries_that_are_not_finite():
    P = np.diag([1.0, 0.0, 1.0])
    dense = np.full((3, 3), 1.0 / 3)
    for M in (P, dense):
        for at in ((1, 1), (0, 2)):
            bad = M.copy()
            bad[at] = np.nan
            with pytest.raises(NotAProjection):
                relative_index(bad, M)
            with pytest.raises(NotAProjection):
                relative_index(M, bad)


def test_relative_index_ill_conditioned_guard():
    from ncindex.errors import IllConditioned

    # ranges at a small angle: compression singular values sit right
    # above an aggressive threshold
    c, s = np.cos(0.3), np.sin(0.3)
    P = np.diag([1.0, 0.0]).astype(complex)
    v = np.array([c, s])
    Q = np.outer(v, v).astype(complex)
    with pytest.raises(IllConditioned):
        relative_index(P, Q, eps_k=0.5)


def test_hardy_shift_cross_check():
    # truncated Hardy projection against its shift conjugate: the
    # orientation-adjusted value matches the winding prediction
    fc = 32
    D = truncated_dirac(fc)
    A = default_trivializer(fc)
    P = _nonneg_projection(D + A)
    for m in (1, 2, 3):
        U = shift_matrix(fc, m)
        Q = U @ P @ U.conj().T
        rel = relative_index(P, Q, spurious=boundary_mass_filter(fc))
        assert RELATIVE_INDEX_ORIENTATION * rel == m


def test_chi_triple_invariants():
    chi = ChiTriple()
    assert chi.residual() <= 1e-12
    assert chi.chi0[0] == 1.0 and chi.chi2[0] == 0.0
    assert chi.chi2[-1] == 1.0 and chi.chi0[-1] == 0.0


def test_pu_projection_identity_loop():
    chi = ChiTriple(129)
    field = pu_projection(np.eye(1, dtype=complex), chi)
    assert pu_idempotence_residual(field) <= 1e-12
    ranks = [np.trace(m).real for m in field]
    assert np.max(np.abs(np.array(ranks) - 1.0)) <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_pu_projection_random_unitary(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    U = np.linalg.qr(rng.standard_normal((d, d))
                     + 1j * rng.standard_normal((d, d)))[0]
    chi = ChiTriple(101)
    field = pu_projection(U, chi)
    assert pu_idempotence_residual(field) <= 1e-12
    edge = np.diag([0.0] * d + [1.0] * d)
    assert np.max(np.abs(field[0] - edge)) <= 1e-14
    assert np.max(np.abs(field[-1] - edge)) <= 1e-14


def test_pu_projection_rejects_non_unitary():
    chi = ChiTriple(65)
    with pytest.raises(NotUnitary):
        pu_projection(1.1 * np.eye(2, dtype=complex), chi)


def test_oddind_trivial_symbol():
    rep = verify_oddind(32, 0)
    assert rep["spfl"] == 0 and rep["rel_index"] == 0 and rep["match"]


@pytest.mark.parametrize("m", [1, 2, -1, -2])
def test_oddind_matches(m):
    rep = verify_oddind(64, m)
    assert rep["match"]
    assert rep["spfl"] == m


@pytest.mark.parametrize("shift", [float("nan"), float("inf")])
def test_verify_oddind_rejects_a_shift_that_is_not_finite(shift):
    with pytest.raises(EndpointDegenerate, match="not finite"):
        verify_oddind(16, 1, shift=shift)


def test_oddind_magnitude_two():
    rep = verify_oddind(64, 2)
    assert abs(rep["spfl"]) == 2
    assert abs(rep["rel_index"]) == 2


def test_verify_oddind_decomposes_each_matrix_once(monkeypatch):
    counts = {"svd": 0, "eigh": 0, "_eigh": 0}
    for owner, name in ((np.linalg, "svd"), (np.linalg, "eigh"),
                        (specflow, "_eigh")):
        real = getattr(owner, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    rep = verify_oddind(32, 1)
    assert rep["match"]
    # one decomposition per window matrix; the windows are diagonal, so
    # neither reaches LAPACK, and P and Q are diagonal, so their ranges
    # and the compression need no decomposition
    assert counts == {"svd": 0, "eigh": 0, "_eigh": 2}
    P, Q = (_rotated(M, 32) for M in _window_projections(32, 1))
    counts.update(svd=0, eigh=0, _eigh=0)
    relative_index(P, Q)
    # a pair with entries off the diagonal: one LAPACK eigh per range,
    # one SVD of the compression
    assert counts == {"svd": 1, "eigh": 2, "_eigh": 2}


def test_verify_oddind_scans_no_matrix_for_diagonality(monkeypatch):
    # the start window, its shift, P and Q are built as 1-D diagonals and
    # need no scan
    scans = []
    real = specflow._compact

    def counted(mat):
        if np.ndim(mat) == 2:
            scans.append(np.shape(mat))
        return real(mat)

    monkeypatch.setattr(specflow, "_compact", counted)
    for m in (-2, 0, 3):
        scans.clear()
        assert verify_oddind(32, m)["match"]
        assert scans == []


def test_boundary_mass_filter_on_columns():
    fc = 16
    n = 2 * fc + 1
    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((n, 12)) + 1j * rng.standard_normal((n, 12))
    vecs[2:-2, :4] *= 1e-3      # mass pushed to the window edges
    vecs[:, 4] = 0.0
    vecs[0, 4] = 1.0            # a single edge mode
    _, eig = np.linalg.eigh(truncated_dirac(fc) + shift_matrix(fc, 1)
                            + shift_matrix(fc, 1).conj().T)
    for mat in (vecs, eig):
        reject = boundary_mass_filter(fc)
        flags = reject(mat)
        assert flags.shape == (mat.shape[1],)
        assert list(flags) == [reject(mat[:, i])
                               for i in range(mat.shape[1])]
    assert reject(vecs)[:5].all() and not reject(vecs)[5:].any()


def test_relative_index_filters_an_empty_range():
    fc = 8
    n = 2 * fc + 1
    reject = boundary_mass_filter(fc)

    def proj(*modes):
        out = np.zeros((n, n), dtype=complex)
        for i in modes:
            out[i, i] = 1.0
        return out

    # the edge mode e0 is a finite-section artifact whether or not an
    # interior mode shares its range
    assert relative_index(proj(), proj(0), spurious=reject) == 0
    assert relative_index(proj(5), proj(0, 5), spurious=reject) == 0
    assert relative_index(proj(), proj(0)) == -1
    assert relative_index(proj(5), proj(5, 16), spurious=reject) == 0
    assert relative_index(proj(8), proj(), spurious=reject) == 1


def _relative_index_by_svd(P, Q, eps_k=1e-6, proj_tol=1e-8, spurious=None):
    """The dense relative index relative_index used to compute: the
    residuals of M @ M - M and M - M*, an eigh basis of each range and
    one SVD of the compression."""
    bases = []
    for M in (P, Q):
        M = np.asarray(M)
        if np.max(np.abs(M @ M - M)) > proj_tol \
                or np.max(np.abs(M - M.conj().T)) > proj_tol:
            raise NotAProjection("not a projection")
        w, v = np.linalg.eigh(M)
        bases.append(v[:, w > 0.5])
    bp, bq = bases
    comp = bq.conj().T @ bp
    if comp.size == 0:
        ker, coker = bp, bq
    else:
        uu, sv, vh = np.linalg.svd(comp)
        r = kernel_rank(sv, eps_k)
        ker = bp @ vh[r:].conj().T
        coker = bq @ uu[:, r:]
    if spurious is None:
        return ker.shape[1] - coker.shape[1]
    return int(np.sum(~spurious(ker)) - np.sum(~spurious(coker)))


def _window_projections(fc, m):
    """The P, Q pair verify_oddind builds."""
    P = _nonneg_projection(truncated_dirac(fc) + default_trivializer(fc))
    return P, conjugate_by_shift(P, m)


def _rotated(M, seed):
    """O M O^T for a random orthogonal O: entries off the diagonal."""
    n = len(M)
    O = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
    out = O @ M @ O.T
    return 0.5 * (out + out.T)


@pytest.mark.parametrize("fc", [16, 32, 64])
@pytest.mark.parametrize("m", range(-3, 4))
def test_diagonal_relative_index_matches_the_dense_one(fc, m):
    P, Q = _window_projections(fc, m)
    for reject in (None, boundary_mass_filter(fc)):
        assert relative_index(P, Q, spurious=reject) \
            == _relative_index_by_svd(P, Q, spurious=reject)


def _random_diagonal_projections(seed, n):
    rng = np.random.default_rng(seed)
    return [np.diag(rng.random(n) < p).astype(float)
            for p in rng.random(2)]


@pytest.mark.parametrize("seed", range(8))
def test_relative_index_of_random_projections_matches_the_dense_one(seed):
    fc = 1 + 3 * seed
    P, Q = _random_diagonal_projections(seed, 2 * fc + 1)
    want = _relative_index_by_svd(P, Q)
    assert relative_index(P, Q) == want
    assert relative_index(Q, P) == -want
    assert relative_index(P.astype(complex), Q) == want
    reject = boundary_mass_filter(fc, 0.3)
    assert relative_index(P, Q, spurious=reject) \
        == _relative_index_by_svd(P, Q, spurious=reject)
    # the same pair with entries off the diagonal takes the dense route
    rP, rQ = _rotated(P, seed), _rotated(Q, seed)
    assert specflow._compact(rP).ndim == 2 or not P.any()
    assert relative_index(rP, rQ) == _relative_index_by_svd(rP, rQ) == want
    assert relative_index(P, rQ) == relative_index(rP, Q) == want
    # the 1-D diagonals that stand for P and Q, alone and against matrices
    p, q = np.diagonal(P), np.diagonal(Q)
    assert relative_index(p, q) == relative_index(p, Q) \
        == relative_index(P, q) == want
    assert relative_index(p, rQ) == relative_index(rP, q) == want
    assert relative_index(p, q, spurious=reject) \
        == relative_index(P, Q, spurious=reject)


def _oddind_by_samples(fc, m, margin=0.1, delta_c=0.2, shift=0.5,
                       samples=33):
    """The three-segment, 3 * 33-sample path verify_oddind used to build."""
    D = truncated_dirac(fc)
    A = default_trivializer(fc, shift)
    U = shift_matrix(fc, m)
    D1 = U @ D @ U.conj().T
    A1 = U @ A @ U.conj().T
    segs = (lambda s: D + (1.0 - s) * A, lambda s: (1.0 - s) * D + s * D1,
            lambda s: D1 + s * A1)
    ts = np.linspace(0.0, 1.0, samples)
    path = SelfAdjointPath([off + t for off in range(3) for t in ts],
                           [seg(t) for seg in segs for t in ts], delta_c)
    reject = boundary_mass_filter(fc, margin)
    P = _nonneg_projection(D + A)
    Q = U @ P @ U.conj().T
    return (spectral_flow(path, margin_filter=reject),
            relative_index(P, Q, spurious=reject))


def _spfl_and_index(fc, m):
    rep = verify_oddind(fc, m)
    return rep["spfl"], rep["rel_index"]


@pytest.mark.parametrize("fc", [16, 32])
@pytest.mark.parametrize("m", [-2, -1, 1, 2, 3])
def test_verify_oddind_matches_sampled_path(fc, m):
    # at fc = 16 and m = 3 one of the three clipped modes lies inside the
    # margin, and both sides reject the final endpoint
    outcomes = []
    for fn in (_spfl_and_index, _oddind_by_samples):
        try:
            outcomes.append(fn(fc, m))
        except EndpointDegenerate as err:
            outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]
    assert (fc, m) == (16, 3) or outcomes[0] == (
        m, RELATIVE_INDEX_ORIENTATION * m)


def _oddind_by_dense_eigh(fc, m, margin=0.1, delta_c=0.2, shift=0.5):
    """Both sides of verify_oddind from the dense n x n window matrices:
    LAPACK eigh of each endpoint, with the boundary filter on the columns
    of its eigenvectors, and the relative index of the dense projections
    by eigh and SVD."""
    U = shift_matrix(fc, m)
    start = truncated_dirac(fc) + default_trivializer(fc, shift)
    reject = boundary_mass_filter(fc, margin)
    negs = []
    for label, mat in (("initial", start),
                       ("final", U @ start @ U.conj().T)):
        w, v = np.linalg.eigh(mat)
        if not np.all(np.isfinite(w)):
            raise EndpointDegenerate(
                f"{label} endpoint has an eigenvalue that is not finite")
        w = w[~reject(v)]
        if len(w) and np.min(np.abs(w)) < delta_c:
            raise EndpointDegenerate(
                f"{label} endpoint has an eigenvalue at "
                f"{np.min(np.abs(w)):.3g}, inside the crossing window")
        negs.append(int(np.sum(w < 0.0)))
    w, v = np.linalg.eigh(start)
    keep = v[:, w >= 0.0]
    P = keep @ keep.conj().T
    return negs[0] - negs[1], _relative_index_by_svd(P, U @ P @ U.conj().T,
                                                     spurious=reject)


@pytest.mark.parametrize("fc", [16, 32, 64, 128])
@pytest.mark.parametrize("m", range(-3, 4))
def test_verify_oddind_matches_the_dense_route(fc, m):
    # fc = 16, m = +-3 reject the final endpoint on both routes
    assert _outcome(_spfl_and_index, fc, m) \
        == _outcome(_oddind_by_dense_eigh, fc, m)


@pytest.mark.parametrize("m", [-3, 1, 2])
def test_verify_oddind_at_4096_modes_under_20_mb_and_50_ms(m):
    import time
    import tracemalloc

    tracemalloc.start()
    try:
        rep = verify_oddind(4096, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep["match"] and rep["spfl"] == m
    # one dense 8193 x 8193 float64 array alone is 537 MB
    assert peak < 20 * 2 ** 20
    times = []
    for _ in range(3):
        start = time.perf_counter()
        verify_oddind(4096, m)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.05


def test_plain_filters_still_receive_columns():
    # a filter with no mode test gets the unit vectors as columns, and
    # flags them as the boundary filter flags their modes
    fc = 16
    n = 2 * fc + 1
    reject = boundary_mass_filter(fc)
    seen = []

    def plain(vecs):
        seen.append(np.shape(vecs))
        return reject(vecs)

    start = truncated_dirac(fc) + default_trivializer(fc)
    for m in (-2, 1, 2):
        path = SelfAdjointPath([0.0, 1.0],
                               [start, conjugate_by_shift(start, m)], 0.2)
        P, Q = _window_projections(fc, m)
        seen.clear()
        assert spectral_flow(path, margin_filter=plain) \
            == spectral_flow(path, margin_filter=reject) == m
        assert seen == [(n, n), (n, n)]
        seen.clear()
        assert relative_index(P, Q, spurious=plain) \
            == relative_index(P, Q, spurious=reject) \
            == RELATIVE_INDEX_ORIENTATION * m
        assert len(seen) == 2 and all(len(s) == 2 and s[0] == n
                                      for s in seen)


@pytest.mark.parametrize("fc, margin", [(16, 0.1), (16, 0.0), (16, 0.6),
                                        (16, 1.0), (16, 3.0), (8, -0.5),
                                        (40, 0.25)])
def test_boundary_filter_on_modes_is_the_mass_test(fc, margin):
    reject = boundary_mass_filter(fc, margin)
    for n in (2 * fc + 1, fc + 1, 3 * fc):
        modes = np.arange(n)
        assert np.array_equal(reject.modes(modes, n),
                              reject(np.eye(n)))
        perm = np.random.default_rng(n).permutation(n)
        assert np.array_equal(reject.modes(perm, n),
                              reject(np.eye(n)[:, perm]))


def _refined_ts_by_svd(fn, delta_c=1e-2, initial=9, max_samples=4096,
                       t0=0.0, t1=1.0):
    """The refinement loop from_callable used to run: the spectral norm
    of every sample difference, by singular values."""
    ts = list(np.linspace(t0, t1, initial))
    mats = {t: np.asarray(fn(t), dtype=complex) for t in ts}
    i = 0
    while i < len(ts) - 1:
        a, b = ts[i], ts[i + 1]
        gap = np.linalg.norm(mats[a] - mats[b], 2)
        if gap <= delta_c / 2:
            i += 1
            continue
        if b - a < 1e-6:
            raise CrossingUnresolved(f"path jumps by {gap:.3g}")
        if len(ts) >= max_samples:
            raise CrossingUnresolved("refinement budget exhausted")
        mid = 0.5 * (a + b)
        mats[mid] = np.asarray(fn(mid), dtype=complex)
        ts.insert(i + 1, mid)
    return ts


def _paths(fc):
    """Translation, randomly perturbed and banded paths on the window."""
    D = half_shifted_dirac(fc)
    n = D.shape[0]
    rng = np.random.default_rng(0)
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.01 * (h + h.conj().T)
    band = np.diag(np.full(n - 1, 0.3 + 0.2j), 1)
    band = band + band.conj().T
    return {
        "translation": lambda t: D + t * np.eye(n),
        "perturbed": lambda t: (D + t * np.eye(n)
                                + np.sin(np.pi * t) ** 2 * h),
        "banded": lambda t: D + t * np.eye(n) + np.sin(3 * t) * band,
    }


def _count_exact_norms(monkeypatch):
    calls = []
    real = np.linalg.norm

    def counted(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(np.shape(x))
        return real(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    return calls


def _bound_cases():
    rng = np.random.default_rng(11)
    n = 12
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(7)
    return {
        "hermitian": g + g.conj().T,
        "non-hermitian": g,
        "real-rectangular": rng.standard_normal((5, 9)),
        "rank-one": np.outer(u, v),
        "diagonal": np.diag(rng.standard_normal(n)).astype(complex),
        "zero": np.zeros((4, 4), dtype=complex),
    }


def _diagonal_cases():
    rng = np.random.default_rng(12)
    d = rng.standard_normal(257)
    cases = {
        "real-diagonal": np.diag(d),
        "complex-diagonal": np.diag(d + 1j * rng.standard_normal(257)),
        "zero-diagonal": np.zeros((257, 257)),
        "nan-diagonal": np.diag(np.where(np.arange(257) == 7, np.nan, d)),
    }
    # each also as the 1-D array of its diagonal, which stands for it
    return {**cases, **{f"{name}-1d": np.diagonal(mat)
                        for name, mat in cases.items()}}


@pytest.mark.parametrize("name", sorted(_bound_cases())
                         + sorted(_diagonal_cases()))
def test_norm_exceeds_matches_the_exact_norm(name, monkeypatch):
    mat = {**_bound_cases(), **_diagonal_cases()}[name]
    dense = np.diag(mat) if mat.ndim == 1 else mat
    exact = np.linalg.norm(dense, 2) if np.isfinite(mat).all() else np.nan
    if name in _diagonal_cases():
        # the norm of a diagonal is its largest |entry|, which the SVD
        # gives up to rounding; no bound settles a NaN entry as within it
        assert abs(np.max(np.abs(mat)) - exact) <= 1e-15 * exact \
            or np.isnan(exact)
        exact = np.max(np.abs(mat))
    calls = _count_exact_norms(monkeypatch)
    for bound in (exact * (1 - 1e-9), exact, exact * (1 + 1e-9),
                  0.5 * exact, 2.0 * exact, 1e-3, 1e3):
        assert norm_exceeds(mat, bound) == (not exact <= bound), bound
    if name in ("rank-one", "hermitian"):
        # a dense matrix is compared by its singular values
        assert calls
    if name in _diagonal_cases():
        # a diagonal is compared exactly, with no singular values
        assert not calls


@pytest.mark.parametrize("fc", [16, 64])
@pytest.mark.parametrize("kind", ["translation", "perturbed", "banded"])
def test_refinement_matches_the_svd_loop(fc, kind):
    fn = _paths(fc)[kind]
    path = SelfAdjointPath.from_callable(fn, delta_c=0.2)
    assert path.ts == _refined_ts_by_svd(fn, delta_c=0.2)
    assert len(path.ts) > 9
    for t, mat in zip(path.ts, path.mats):
        assert np.array_equal(specflow._dense(mat), fn(t))


def test_refinement_takes_exact_norms_on_dense_paths_only(monkeypatch):
    calls = _count_exact_norms(monkeypatch)
    paths = _paths(64)
    SelfAdjointPath.from_callable(paths["translation"], delta_c=0.2)
    assert calls == []
    SelfAdjointPath.from_callable(paths["perturbed"], delta_c=0.2)
    assert calls


@pytest.mark.parametrize("route", ["diagonal", "dense"])
def test_refinement_rejects_a_sample_that_is_not_finite(route):
    D = half_shifted_dirac()
    n = D.shape[0]
    band = 0.0 if route == "diagonal" else np.eye(n, k=1) + np.eye(n, k=-1)
    bad = 0.5625        # a midpoint, sampled once the bisection gets there
    taken = []

    def fn(t):
        taken.append(t)
        out = D + t * np.eye(n) + band
        if t == bad:
            out[(3, 3) if route == "diagonal" else (0, 1)] = np.nan
        return out

    with pytest.raises(ValueError, match="not self-adjoint"):
        SelfAdjointPath.from_callable(fn, delta_c=0.2, max_samples=64)
    assert taken[-1] == bad and len(taken) == 14


def test_jump_message_names_the_exact_norm():
    # the largest column 2-norm of [[1, 1], [1, 1]] is sqrt(2); the
    # spectral norm, which the message names, is 2
    with pytest.raises(CrossingUnresolved, match=r"jumps by 2 > .* t = 0\.5"):
        SelfAdjointPath.from_callable(
            lambda t: np.zeros((2, 2)) if t <= 0.5 else np.ones((2, 2)),
            delta_c=0.2, initial=3)


def _shift_matrix_by_loop(fc, m):
    n = 2 * fc + 1
    mat = np.zeros((n, n), dtype=complex)
    for k in range(n):
        j = k - m
        if 0 <= j < n:
            mat[j, k] = 1.0
    return mat


@pytest.mark.parametrize("fc", [8, 16, 64])
def test_shift_conjugation_is_an_index_map(fc):
    n = 2 * fc + 1
    rng = np.random.default_rng(fc)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for m in range(-(2 * fc + 2), 2 * fc + 3):
        U = shift_matrix(fc, m)
        assert np.array_equal(U, _shift_matrix_by_loop(fc, m))
        assert U.dtype == complex
        for mat in (X, X + X.conj().T, truncated_dirac(fc)):
            assert np.array_equal(conjugate_by_shift(mat, m),
                                  U @ mat @ U.conj().T)
        # a 1-D diagonal gives the diagonal of the product
        D = truncated_dirac(fc)
        assert np.array_equal(conjugate_by_shift(np.diagonal(D), m),
                              np.diagonal(U @ D @ U.conj().T))
    # |m| >= 2 fc + 1 leaves an empty window
    assert not conjugate_by_shift(X, 2 * fc + 1).any()


def _pu_projection_by_loop(U, chi):
    """The per-sample loop pu_projection used to run."""
    d = U.shape[0]
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


@pytest.mark.parametrize("d", [1, 3])
def test_pu_projection_matches_the_sample_loop(d):
    rng = np.random.default_rng(d)
    U = np.linalg.qr(rng.standard_normal((d, d))
                     + 1j * rng.standard_normal((d, d)))[0]
    chi = ChiTriple(101)
    field = pu_projection(U, chi)
    assert np.array_equal(field, _pu_projection_by_loop(U, chi))
    worst = max(max(np.max(np.abs(mat @ mat - mat)),
                    np.max(np.abs(mat - mat.conj().T))) for mat in field)
    assert pu_idempotence_residual(field) == pytest.approx(worst, abs=1e-15)


def test_window_builders_are_real():
    fc = 16
    rng = np.random.default_rng(3)
    X = rng.standard_normal((2 * fc + 1, 2 * fc + 1))
    assert truncated_dirac(fc).dtype == np.float64
    assert default_trivializer(fc).dtype == np.float64
    for m in (-2, 0, 3):
        assert conjugate_by_shift(X, m).dtype == np.float64
        assert conjugate_by_shift(X.astype(complex), m).dtype == complex


def test_path_flow_path_holds_no_dense_sample():
    # the path of perfbench's path-flow-128 call: 17 samples, which as
    # dense 257 x 257 arrays would hold 8.99 MB; while it is built, one
    # dense sample and the temporaries of the sample function are alive
    # (about 2 samples), not the whole initial grid of 9
    import tracemalloc

    n = 2 * 128 + 1
    D = truncated_dirac(128) + 0.5 * np.eye(n)
    tracemalloc.start()
    try:
        path = SelfAdjointPath.from_callable(lambda t: D + t * np.eye(n),
                                             delta_c=0.2)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(path.mats) == 17 and spectral_flow(path) == 1
    assert held < 0.5 * 2 ** 20
    assert peak < 3 * n * n * 8


def test_samples_are_taken_one_at_a_time_in_grid_then_bisection_order():
    D = half_shifted_dirac()
    n = D.shape[0]
    taken = []

    def fn(t):
        taken.append(t)
        return D + t * np.eye(n)

    path = SelfAdjointPath.from_callable(fn, delta_c=0.2)
    assert len(path.ts) > 9 and sorted(taken) == path.ts
    assert taken[:9] == list(np.linspace(0.0, 1.0, 9))
    for k, mid in enumerate(taken[9:], start=9):
        # each midpoint halves the step between its neighbours so far
        before = sorted(taken[:k])
        i = np.searchsorted(before, mid)
        assert mid == 0.5 * (before[i - 1] + before[i])

    # a sample that is not self-adjoint stops the walk at once
    taken.clear()

    def skewed(t):
        taken.append(t)
        out = D + t * np.eye(n)
        if t == 0.125:
            out[0, 1] = 1.0
        return out

    with pytest.raises(ValueError, match="not self-adjoint"):
        SelfAdjointPath.from_callable(skewed, delta_c=0.2)
    assert taken == [0.0, 0.125]


def test_path_samples_keep_their_field():
    D = half_shifted_dirac()
    n = D.shape[0]
    real = SelfAdjointPath.from_callable(lambda t: D + t * np.eye(n),
                                         delta_c=0.2)
    band = np.diag(np.full(n - 1, 0.3j), 1)
    band = band + band.conj().T
    herm = SelfAdjointPath.from_callable(
        lambda t: D + t * np.eye(n) + np.sin(3 * t) * band, delta_c=0.2)
    assert len(real.mats) > 9 and len(herm.mats) > 9
    assert all(mat.dtype == np.float64 for mat in real.mats)
    assert all(mat.dtype == complex for mat in herm.mats)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except EndpointDegenerate as err:
        return str(err)


def _both_fields(fc, m):
    """Integers of the spectral-flow layer on the real window matrices
    and on the same matrices cast to complex."""
    start = truncated_dirac(fc) + default_trivializer(fc)
    reject = boundary_mass_filter(fc)
    P = _nonneg_projection(start)
    out = []
    for cast in (np.asarray, lambda x: np.asarray(x, dtype=complex)):
        path = SelfAdjointPath(
            [0.0, 1.0], [cast(start), cast(conjugate_by_shift(start, m))],
            0.2)
        out.append((
            _outcome(spectral_flow, path),
            _outcome(spectral_flow, path, margin_filter=reject),
            relative_index(cast(P), cast(conjugate_by_shift(P, m)),
                           spurious=reject)))
    return out


@pytest.mark.parametrize("fc", [16, 32, 64])
@pytest.mark.parametrize("m", range(-3, 4))
def test_real_and_complex_windows_give_the_same_integers(fc, m,
                                                         monkeypatch):
    real, cplx = _both_fields(fc, m)
    assert real == cplx
    rep = _outcome(verify_oddind, fc, m)
    fields = _complex_modes(monkeypatch)
    assert _outcome(verify_oddind, fc, m) == rep
    assert fields == [complex, complex]


def _complex_modes(monkeypatch):
    """Make verify_oddind build its window from complex modes, and list
    the dtype of each window it decomposes."""
    real_modes, real_eigh = specflow.mode_window, specflow._eigh
    fields = []

    def eigh(mat):
        fields.append(np.asarray(mat).dtype)
        return real_eigh(mat)

    monkeypatch.setattr(specflow, "mode_window",
                        lambda fc: real_modes(fc).astype(complex))
    monkeypatch.setattr(specflow, "_eigh", eigh)
    return fields


def test_both_fields_reject_the_same_degenerate_endpoint(monkeypatch):
    # at fc = 16 and m = 3 a clipped mode lies inside the margin
    with pytest.raises(EndpointDegenerate) as real:
        verify_oddind(16, 3)
    fields = _complex_modes(monkeypatch)
    with pytest.raises(EndpointDegenerate) as cplx:
        verify_oddind(16, 3)
    assert fields == [complex, complex]
    assert str(cplx.value) == str(real.value)
    assert str(real.value).startswith("final endpoint has an eigenvalue at 0,")


# ---------------------------------------------------------------------
# _eigh against LAPACK
# ---------------------------------------------------------------------


def _block_diagonal(sizes, rng, dtype=float):
    """Hermitian blocks of the given sizes under a random permutation."""
    n = sum(sizes)
    out = np.zeros((n, n), dtype=dtype)
    at = 0
    for s in sizes:
        g = rng.standard_normal((s, s)).astype(dtype)
        if dtype == complex:
            g = g + 1j * rng.standard_normal((s, s))
        out[at:at + s, at:at + s] = g + g.conj().T
        at += s
    perm = rng.permutation(n)
    return out[np.ix_(perm, perm)]


def _eigh_cases():
    rng = np.random.default_rng(3)
    n = 41
    diag = np.diag(rng.standard_normal(n))
    g = rng.standard_normal((n, n))
    start = truncated_dirac(FC) + default_trivializer(FC)
    return {
        "diagonal": diag,
        "tridiagonal": diag + np.eye(n, k=1) + np.eye(n, k=-1),
        "dense": g + g.T,
        "permuted-blocks": _block_diagonal([1, 3, 2, 3, 5, 1, 2, 3], rng),
        "clipped-window": conjugate_by_shift(start, 3),
        "clipped-projection": conjugate_by_shift(_nonneg_projection(start),
                                                 -2),
        "complex-hermitian": _block_diagonal([2, 4, 1, 2, 4], rng, complex),
        "complex-diagonal": diag.astype(complex),
        "tied-diagonal": np.diag(np.round(rng.standard_normal(n))),
        "zero": np.zeros((6, 6)),
    }


def _clusters(w, tol):
    """Index ranges of the runs of sorted eigenvalues closer than tol."""
    cuts = np.flatnonzero(np.diff(w) > tol) + 1
    return np.split(np.arange(len(w)), cuts)


@pytest.mark.parametrize("name", sorted(_eigh_cases()))
def test_eigh_matches_lapack(name):
    a = _eigh_cases()[name]
    w, v = specflow._eigh(a)
    w0, v0 = np.linalg.eigh(a)
    scale = max(np.max(np.abs(w0)), 1.0)
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(w - w0)) <= 1e-12 * scale
    n = len(a)
    assert v.ndim == specflow._compact(a).ndim
    if v.ndim == 1:
        # a diagonal gives its unit eigenvectors as their modes
        assert np.array_equal(np.sort(v), np.arange(n))
        v = np.eye(n)[:, v]
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-12
    assert np.max(np.abs(a @ v - v * w)) <= 1e-12 * scale
    for idx in _clusters(w0, 1e-8 * scale):
        ours, lapack = v[:, idx], v0[:, idx]
        assert np.max(np.abs(ours @ ours.conj().T
                             - lapack @ lapack.conj().T)) <= 1e-10


def test_verify_oddind_projections_are_exactly_diagonal(monkeypatch):
    # P and Q as verify_oddind builds them, 1-D diagonals of the start
    # window's nonnegative modes, are the LAPACK projections bit for bit
    seen = []
    real = specflow.relative_index

    def spied(P, Q, **kwargs):
        seen.append((P, Q))
        return real(P, Q, **kwargs)

    monkeypatch.setattr(specflow, "relative_index", spied)
    assert verify_oddind(64, 2)["match"]
    [(p, q)] = seen
    P, Q = _window_projections(64, 2)
    assert np.array_equal(np.diag(p), P) and np.array_equal(np.diag(q), Q)
    assert set(p) == {0.0, 1.0}


def _count_shapes(monkeypatch, name):
    shapes = []
    real = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return shapes


def test_diagonal_window_is_a_stable_sort_with_no_lapack_call(monkeypatch):
    shapes = _count_shapes(monkeypatch, "eigh")
    rng = np.random.default_rng(5)
    tied = np.round(rng.standard_normal(257))
    for a in (truncated_dirac(128) + default_trivializer(128),
              conjugate_by_shift(truncated_dirac(128), 3),
              np.diag(tied), tied.astype(complex)):
        w, v = specflow._eigh(a)
        d = np.diagonal(a) if a.ndim == 2 else a
        # ties, as the clipped zeros of the shifted window, keep their
        # diagonal order
        assert np.array_equal(v, np.argsort(d.real, kind="stable"))
        assert np.array_equal(w, d.real[v]) and w.dtype == np.float64
    assert shapes == []


def test_other_matrices_go_to_lapack_whole(monkeypatch):
    shapes = _count_shapes(monkeypatch, "eigh")
    n = 257
    rng = np.random.default_rng(6)
    g = rng.standard_normal((n, n))
    for a in (g + g.T, half_shifted_dirac(128) + np.eye(n, k=1)
              + np.eye(n, k=-1), _block_diagonal([1, 2] * 85 + [2], rng)):
        specflow._eigh(a)
    assert shapes == [(n, n)] * 3
