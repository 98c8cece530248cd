import numpy as np
import pytest

from ncindex.errors import (CrossingUnresolved, EndpointDegenerate,
                            NotAProjection, NotUnitary)
from ncindex.specflow import (RELATIVE_INDEX_ORIENTATION, ChiTriple,
                              SelfAdjointPath, boundary_mass_filter,
                              default_trivializer, pu_idempotence_residual,
                              pu_projection, relative_index, shift_matrix,
                              spectral_flow, truncated_dirac,
                              verify_oddind, _nonneg_projection)

FC = 16


def half_shifted_dirac(fc=FC):
    return truncated_dirac(fc) + 0.5 * np.eye(2 * fc + 1)


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


def test_oddind_magnitude_two():
    rep = verify_oddind(64, 2)
    assert abs(rep["spfl"]) == 2
    assert abs(rep["rel_index"]) == 2


def test_verify_oddind_decomposes_each_matrix_once(monkeypatch):
    counts = {"svd": 0, "eigh": 0}
    for name in counts:
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rep = verify_oddind(32, 1)
    assert rep["match"]
    # one eigh per path sample, then P, ran P and ran Q
    assert counts == {"svd": 1, "eigh": 3 * 33 + 3}


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
