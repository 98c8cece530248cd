import math

import numpy as np
import pytest

from ncindex.errors import IllConditioned, NotUnitary, PhaseJump
from ncindex.toeplitz import (CircleSystem, RotationSystem,
                              WeightBlockSystem, assemble_toeplitz,
                              dynsys_formula, kernel_rank, least_cutoff,
                              tau_index, winding_index, winding_oracle,
                              _mode_mass_top)


def test_trace_properties_circle():
    sys_c = CircleSystem(64)
    rng = np.random.default_rng(0)
    a = sys_c.element({m: complex(*rng.standard_normal(2))
                       for m in range(-2, 3)})
    b = sys_c.element({m: complex(*rng.standard_normal(2))
                       for m in range(-2, 3)})
    assert abs(sys_c.trace(sys_c.mul(a, b))
               - sys_c.trace(sys_c.mul(b, a))) <= 1e-12
    assert abs(sys_c.trace(sys_c.one()) - 1.0) <= 1e-14


def test_delta_is_a_derivation():
    for system in (CircleSystem(32), RotationSystem(1, 3)):
        rng = np.random.default_rng(1)
        if system.kind == "circle":
            a = system.element({m: complex(*rng.standard_normal(2))
                                for m in (-1, 0, 2)})
            b = system.element({m: complex(*rng.standard_normal(2))
                                for m in (-2, 1)})
        else:
            a = system.mul(system.v(), system.u_clock())
            b = system.element({0: rng.standard_normal((3, 3)),
                                -1: rng.standard_normal((3, 3))})
        lhs = system.delta(system.mul(a, b))
        rhs_blocks = {}
        for part in (system.mul(system.delta(a), b),
                     system.mul(a, system.delta(b))):
            for m, blk in system.weight_blocks(part).items():
                rhs_blocks[m] = rhs_blocks.get(m, 0) + np.asarray(blk)
        for m, blk in system.weight_blocks(lhs).items():
            assert np.max(np.abs(np.asarray(blk)
                                 - rhs_blocks.get(m, 0))) <= 1e-10


def test_trace_action_invariance():
    # the action scales weight-m parts by a phase; the trace reads the
    # invariant weight and cannot move
    sys_c = CircleSystem(32)
    rng = np.random.default_rng(2)
    a = sys_c.element({m: complex(*rng.standard_normal(2))
                       for m in range(-3, 4)})
    for t in np.linspace(0, 1, 7):
        shifted = sys_c.element(
            {m: c * np.exp(2j * np.pi * m * t)
             for m, c in sys_c.weights(a).items()})
        assert abs(sys_c.trace(shifted) - sys_c.trace(a)) <= 1e-12


def test_assemble_identity():
    sys_c = CircleSystem(16)
    tp = assemble_toeplitz(sys_c, sys_c.one(), 16)
    for blk in tp.blocks:
        assert np.max(np.abs(blk - np.eye(17))) <= 1e-13


def test_assemble_classical_shift():
    sys_c = CircleSystem(4)
    tp = assemble_toeplitz(sys_c, sys_c.exponential(1), 8)
    blk = tp.blocks[0]
    expected = np.zeros((9, 9))
    expected[:-1, 1:] = np.eye(8)  # one-sided shift: e_k -> e_{k-1}
    assert np.max(np.abs(blk - expected)) <= 1e-13


def test_assemble_rejects_non_unitary():
    sys_c = CircleSystem(16)
    bad = sys_c.element({0: 0.5, 1: 0.2})
    with pytest.raises(NotUnitary):
        assemble_toeplitz(sys_c, bad, 32)


def test_assemble_rotation_block_structure():
    rs = RotationSystem(1, 3)
    tp = assemble_toeplitz(rs, rs.v(), 8)
    blk = tp.blocks[0]
    # block entries depend on the mode difference only
    for j in range(8):
        assert np.max(np.abs(blk[3 * (j + 1):3 * (j + 2),
                                 3 * j:3 * (j + 1)] - rs.shift)) <= 1e-13


def test_tau_index_identity_symbol():
    sys_c = CircleSystem(32)
    tp = assemble_toeplitz(sys_c, sys_c.one(), 16)
    assert tau_index(tp) == 0.0


def test_tau_index_paper_value():
    sys_c = CircleSystem(256)
    tp = assemble_toeplitz(sys_c, sys_c.exponential(1), 64)
    val = tau_index(tp)
    assert abs(val - 1.0) <= 0.05
    assert round(val) == 1


def test_ill_conditioned_guard():
    sys_c = CircleSystem(16)
    # kernel threshold pushed into the singular-value bulk
    tp = assemble_toeplitz(sys_c, sys_c.exponential(1), 16, eps_k=0.2)
    with pytest.raises(IllConditioned):
        tau_index(tp)


def test_truncation_margin_guard():
    sys_c = CircleSystem(16)
    u = sys_c.exponential(3)
    tp = assemble_toeplitz(sys_c, u, 16)
    with pytest.raises(ValueError):
        tau_index(tp)


@pytest.mark.parametrize("m", [6, 9, 12, -6, -9, -12])
def test_top_margin_must_hold_the_artifacts(m):
    # at 8 |m| the top tenth of the modes holds fewer than the |m|
    # artifact vectors; the least cutoff gives the exact index
    sys_c = CircleSystem(256)
    u = sys_c.exponential(m)
    with pytest.raises(ValueError, match="top margin"):
        tau_index(assemble_toeplitz(sys_c, u, 8 * abs(m)))
    fc = least_cutoff(abs(m))
    assert fc > 8 * abs(m)
    assert tau_index(assemble_toeplitz(sys_c, u, fc)) == m \
        == round(dynsys_formula(sys_c, u).real)


def test_winding_oracle_values():
    x = np.arange(512) / 512
    assert winding_oracle(np.ones(512, dtype=complex)) == 0
    assert winding_oracle(np.exp(-2j * np.pi * x)) == -1
    loop = np.zeros((512, 2, 2), dtype=complex)
    loop[:, 0, 0] = np.exp(-2j * np.pi * x)
    loop[:, 1, 1] = np.exp(2j * np.pi * x)
    assert winding_oracle(loop) == 0


def test_winding_oracle_coarse_sampling():
    x = np.arange(6) / 6
    with pytest.raises(PhaseJump):
        winding_oracle(np.exp(-2j * np.pi * 3 * x))


@pytest.mark.parametrize("m", [200, 300, -700])
def test_winding_index_samples_wide_symbols_finely_enough(m):
    # at 512 samples e^{-2 pi i 300 x} seems to wind +212 times, with no
    # PhaseJump; the sample count grows with the bandwidth instead
    sys_c = CircleSystem()
    assert winding_index(sys_c, sys_c.exponential(m)) == m
    rs = RotationSystem(1, 5)
    assert winding_index(rs, {m // 5: rs.shift}) == -(m // 5)


def test_consistency_triangle():
    sys_c = CircleSystem(256)
    rng = np.random.default_rng(3)
    for m in range(-3, 4):
        u = sys_c.exponential(m)
        tp = assemble_toeplitz(sys_c, u, 64)
        ti = tau_index(tp)
        f = dynsys_formula(sys_c, u)
        w = winding_index(sys_c, u)
        assert abs(ti - f) <= 0.05
        assert abs(ti - w) <= 0.05
        assert abs(f - m) <= 1e-12


def test_tau_index_stable_under_cutoff_doubling():
    sys_c = CircleSystem(128)
    u = sys_c.exponential(2)
    v1 = tau_index(assemble_toeplitz(sys_c, u, 64))
    v2 = tau_index(assemble_toeplitz(sys_c, u, 128))
    assert abs(v1 - v2) <= 0.01


def test_homotopy_invariance_sampled_path():
    # joint path: winding-one symbol times a contractible phase factor
    sys_c = CircleSystem(256)
    x = np.arange(256) / 256
    vals = []
    for s in np.linspace(0.0, 0.4, 5):
        samples = np.exp(-2j * np.pi * x) \
            * np.exp(1j * s * np.cos(2 * np.pi * x))
        coeffs = CircleSystem.from_samples(samples, band=8)
        u = sys_c.element(coeffs)
        tp = assemble_toeplitz(sys_c, u, 64)
        vals.append(tau_index(tp))
    assert all(abs(v - vals[0]) <= 1e-9 for v in vals)


def test_rotation_algebra_index():
    for q in (2, 3, 5):
        rs = RotationSystem(1, q)
        tp = assemble_toeplitz(rs, rs.v(), 64)
        val = tau_index(tp)
        assert round(val) == -1
        assert abs(val - dynsys_formula(rs, rs.v())) <= 0.05


def test_rotation_formula_values():
    rs = RotationSystem(2, 5)
    assert abs(dynsys_formula(rs, rs.v()) + 1.0) <= 1e-12
    assert abs(dynsys_formula(rs, rs.u_clock())) <= 1e-12
    assert abs(winding_index(rs, rs.v()) + 1.0) <= 1e-12


def test_dynsys_formula_identity_symbol():
    sys_c = CircleSystem(16)
    assert dynsys_formula(sys_c, sys_c.one()) == 0


def _record_calls(monkeypatch, name):
    calls = []
    real = getattr(np.linalg, name)

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recorded)
    return calls


def test_phase_conjugates_share_tau_index():
    # the translate of u by y compresses to D_y T D_y*; one block must
    # stand for all of them, as the old per-translate average did
    sys_c = CircleSystem(256)
    modes = np.arange(65)
    for m in range(-3, 4):
        u = sys_c.exponential(m)
        tp = assemble_toeplitz(sys_c, u, 64)
        value = tau_index(tp)
        for y in (0.125, 0.37, 0.81):
            d_y = np.diag(np.exp(2j * np.pi * modes * y))
            conj = d_y @ tp.blocks[0] @ d_y.conj().T
            shifted = sys_c.element(
                {k: c * np.exp(2j * np.pi * k * y)
                 for k, c in sys_c.weights(u).items()})
            tp_y = assemble_toeplitz(sys_c, shifted, 64)
            assert np.max(np.abs(tp_y.blocks[0] - conj)) <= 1e-13
            assert tau_index(tp_y) == value


def test_tau_index_runs_two_thin_boundary_svds(monkeypatch):
    rs = RotationSystem(1, 3)
    v2u = rs.mul(rs.mul(rs.v(), rs.v()), rs.u_clock())
    for system, u in ((CircleSystem(256), CircleSystem().exponential(1)),
                      (CircleSystem(256), CircleSystem().exponential(-3)),
                      (rs, rs.v()), (rs, v2u)):
        tp = assemble_toeplitz(system, u, 64)
        svds = _record_calls(monkeypatch, "svd")
        eighs = _record_calls(monkeypatch, "eigh")
        tau_index(tp)
        monkeypatch.undo()
        assert len(svds) == 2
        width = 2 * max(tp.bandwidth, 1) * system.rep_dim
        for args, kwargs in svds:
            assert np.shape(args[0])[1] <= width
            full = kwargs.get("full_matrices",
                              args[1] if len(args) > 1 else True)
            assert full is False or kwargs.get("compute_uv") is False
        assert eighs == []


def test_tau_index_memory_does_not_grow_with_the_cutoff():
    import tracemalloc

    # the dense compression at F_c = 10^4 would take 57.6 GB
    rs = RotationSystem(1, 6)
    tracemalloc.start()
    try:
        value = tau_index(assemble_toeplitz(rs, rs.v(), 10 ** 4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == -1.0
    assert peak < 2 ** 20


def test_circle_is_the_one_block_case():
    sys_c = CircleSystem(32)
    u = sys_c.exponential(2)
    assert sys_c.rep_dim == 1
    assert all(np.shape(b) == (1, 1) for b in sys_c.weight_blocks(u).values())
    assert sys_c.samples(u).shape == (32, 1, 1)
    tp = assemble_toeplitz(sys_c, u, 32)
    assert len(tp.blocks) == 1 and tp.blocks[0].shape == (33, 33)


def test_mode_mass_top_matches_per_column_loop():
    from ncindex.toeplitz import _mode_mass_top

    rng = np.random.default_rng(4)
    for d, size in ((1, 33), (3, 17)):
        vecs = rng.standard_normal((d * size, 9)) \
            + 1j * rng.standard_normal((d * size, 9))
        vecs[: d * (size - 3), :3] *= 1e-4   # mass pushed to the top modes
        cut = int(np.floor(size * 0.9))
        for i, share in enumerate(_mode_mass_top(vecs, d, 0.1)):
            per_mode = (np.abs(vecs[:, i].reshape(size, d)) ** 2).sum(axis=1)
            assert abs(share - per_mode[cut:].sum() / per_mode.sum()) \
                <= 1e-12
        assert (_mode_mass_top(vecs, d, 0.1)[:3] > 0.5).all()


# ---------------------------------------------------------------------
# the boundary reduction against the dense decomposition it replaced
# ---------------------------------------------------------------------


def _dense_tau_index(tp, margin=0.1):
    """tau_index as one dense SVD of the whole compression."""
    if tp.fc < 8 * max(tp.bandwidth, 1):
        raise ValueError("truncation margin violated")
    d = tp.system.rep_dim
    uu, sv, vh = np.linalg.svd(tp.blocks[0])
    r = kernel_rank(sv, tp.eps_k)
    ker = np.sum(_mode_mass_top(vh[r:].T, d, margin) <= 0.5)
    coker = np.sum(_mode_mass_top(uu[:, r:], d, margin) <= 0.5)
    return int(ker - coker) / d


_ROTATION_SYMBOLS = {
    "v": lambda rs: rs.v(),
    "v*": lambda rs: rs.star(rs.v()),
    "v-u": lambda rs: rs.mul(rs.v(), rs.u_clock()),
    "v2-u": lambda rs: rs.mul(rs.mul(rs.v(), rs.v()), rs.u_clock()),
}


@pytest.mark.parametrize("fc", (64, 128, 256))
@pytest.mark.parametrize("m", (-3, -2, -1, 1, 2, 3))
def test_tau_index_matches_dense_oracle_circle(m, fc):
    sys_c = CircleSystem(256)
    tp = assemble_toeplitz(sys_c, sys_c.exponential(m), fc)
    assert tau_index(tp) == _dense_tau_index(tp)


@pytest.mark.parametrize("fc", (64, 256))
@pytest.mark.parametrize("symbol", sorted(_ROTATION_SYMBOLS))
@pytest.mark.parametrize("p, q", [(p, q) for q in (3, 5, 6)
                                  for p in range(1, q)
                                  if math.gcd(p, q) == 1])
def test_tau_index_matches_dense_oracle_rotation(p, q, symbol, fc):
    rs = RotationSystem(p, q)
    tp = assemble_toeplitz(rs, _ROTATION_SYMBOLS[symbol](rs), fc)
    assert tau_index(tp) == _dense_tau_index(tp)


def _unitarity_residual(system, u):
    uu = system.mul(system.star(u), u)
    uu[0] = uu.get(0, 0) - np.eye(system.rep_dim)
    return max(float(np.max(np.abs(b))) for b in uu.values())


def test_tau_index_matches_dense_oracle_nearly_unitary_symbols():
    # the sampled homotopy path: unitary only up to the Fourier cut
    sys_c = CircleSystem(256)
    x = np.arange(256) / 256
    for s in np.linspace(0.0, 0.4, 5):
        samples = np.exp(-2j * np.pi * x) \
            * np.exp(1j * s * np.cos(2 * np.pi * x))
        u = sys_c.element(CircleSystem.from_samples(samples, band=8))
        for fc in (64, 128):
            tp = assemble_toeplitz(sys_c, u, fc)
            assert tau_index(tp) == _dense_tau_index(tp) == 1.0
    # symbols perturbed to a unitarity residual just under tol = 1e-8
    rng = np.random.default_rng(5)
    rs = RotationSystem(1, 3)
    for system, u, weight, index in ((sys_c, sys_c.exponential(2), 3, 2.0),
                                     (rs, rs.v(), -2, -1.0)):
        d = system.rep_dim
        blk = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        # the residual is linear in a small bump: 1e-9 * blk gives its rate
        rate = _unitarity_residual(system, {**u, weight: 1e-9 * blk}) / 1e-9
        u = {**u, weight: 0.95e-8 / rate * blk}
        assert 0.9e-8 < _unitarity_residual(system, u) < 1e-8
        tp = assemble_toeplitz(system, u, 64)
        assert tau_index(tp) == _dense_tau_index(tp) == index


def _two_projection_loop(angle):
    """The unitary loop ((1 - P) + P z)((1 - Q) + Q z^{-1}) of two rank-one
    projections at the given angle: index 0, and its compression has the
    boundary singular value cos(angle) twice."""
    system = WeightBlockSystem(2, 64)
    eye = np.eye(2)
    p = np.outer([1.0, 0.0], [1.0, 0.0])
    e = np.array([np.cos(angle), np.sin(angle)])
    q = np.outer(e, e)
    u = system.mul(system.element({0: eye - p, 1: p}),
                   system.element({0: eye - q, -1: q}))
    return system, u


def test_tau_index_matches_dense_oracle_inner_boundary_values():
    for angle in (0.3, 1.2):
        system, u = _two_projection_loop(angle)
        tp = assemble_toeplitz(system, u, 64)
        assert tau_index(tp) == _dense_tau_index(tp) == 0.0


def test_ill_conditioned_guard_on_a_boundary_singular_value():
    # cos(angle) = 3e-6 sits within 10x of the default threshold 1e-6;
    # every implied singular value 1 is far from it
    system, u = _two_projection_loop(math.acos(3e-6))
    tp = assemble_toeplitz(system, u, 64)
    for index in (tau_index, _dense_tau_index):
        with pytest.raises(IllConditioned, match="singular value 3e-06"):
            index(tp)


def _outcome(index, tp):
    try:
        return index(tp)
    except IllConditioned as err:
        return str(err)


def test_guard_fires_where_the_dense_guard_fires():
    sys_c = CircleSystem(256)
    x = np.arange(256) / 256
    sampled = sys_c.element(CircleSystem.from_samples(
        np.exp(-2j * np.pi * x) * np.exp(0.4j * np.cos(2 * np.pi * x)), 8))
    loop, u_loop = _two_projection_loop(1.2)
    for system, u, fc in ((sys_c, sys_c.exponential(1), 16),
                          (sys_c, sampled, 64), (loop, u_loop, 16)):
        for eps_k in (1e-6, 1e-3, 0.02, 0.04, 0.05, 0.2, 0.5, 0.95):
            tp = assemble_toeplitz(system, u, fc, eps_k=eps_k)
            assert _outcome(tau_index, tp) == _outcome(_dense_tau_index, tp)


def test_threshold_above_the_interior_singular_values():
    sys_c = CircleSystem(16)
    tp = assemble_toeplitz(sys_c, sys_c.exponential(1), 16, eps_k=2.0)
    with pytest.raises(IllConditioned, match="above the singular value 1"):
        tau_index(tp)
