import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncindex.errors import NotInvertibleInBudget, TruncationOverflow
from ncindex.group_algebra import (GA, GAMatrix, GroupSpec,
                                   cyclic_sectors, delta_word_length,
                                   derivation_leibniz_residual,
                                   gamatrix_from_sectors, ga_mul,
                                   neumann_inverse, trace_e)

TOL = 1e-12


def rand_ga(spec, rng, support=3, radius=2):
    return GA.random(spec, rng, support=support, radius=radius)


def test_group_inverse_cancels():
    z = GroupSpec.lattice(1)
    g = GA.delta(z, (1,))
    assert (g * g.star() - GA.one(z)).max_abs() == 0.0


def test_ring_expansion():
    z = GroupSpec.lattice(1)
    e, g = GA.one(z), GA.delta(z, (1,))
    lhs = (e + g) * (e - g)
    rhs = e - g * g
    assert (lhs - rhs).max_abs() == 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_associativity_z5(seed):
    z5 = GroupSpec.cyclic(5)
    rng = np.random.default_rng(seed)
    a, b, c = (rand_ga(z5, rng) for _ in range(3))
    assert ((a * b) * c - a * (b * c)).max_abs() <= TOL


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_star_antihomomorphism(seed):
    f2 = GroupSpec.free(2, radius=8)
    rng = np.random.default_rng(seed)
    a, b = rand_ga(f2, rng), rand_ga(f2, rng)
    assert ((a * b).star() - b.star() * a.star()).max_abs() <= TOL
    assert (a.star().star() - a).max_abs() == 0.0


def test_trace_values():
    z5 = GroupSpec.cyclic(5)
    assert trace_e(GA.one(z5)) == 1
    assert trace_e(GA.delta(z5, 2)) == 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_trace_cyclicity(seed):
    z7 = GroupSpec.cyclic(7)
    rng = np.random.default_rng(seed)
    a, b = rand_ga(z7, rng), rand_ga(z7, rng)
    assert abs(trace_e(ga_mul(a, b) - ga_mul(b, a))) <= TOL


def test_word_length_axioms():
    for spec in (GroupSpec.lattice(2), GroupSpec.cyclic(6),
                 GroupSpec.free(2, radius=5)):
        e = spec.identity()
        assert spec.length(e) == 0
        ball = spec.ball(3)
        for g in ball:
            assert spec.length(g) == spec.length(spec.inv(g))
            for h in ball[:20]:
                assert spec.length(spec.mul(g, h)) \
                    <= spec.length(g) + spec.length(h)


def test_truncation_overflow():
    f2 = GroupSpec.free(2, radius=2)
    g = GA.delta(f2, (1, 1))
    with pytest.raises(TruncationOverflow):
        ga_mul(g, g)


def test_delta_of_identity_vanishes():
    z = GroupSpec.lattice(1)
    rep = delta_word_length(GA.one(z), 4)
    assert np.max(np.abs(rep.matrix)) == 0.0


def test_delta_lattice_entries():
    # the commutator multiplies gh by the length difference, here +-1
    z = GroupSpec.lattice(1)
    rep = delta_word_length(GA.delta(z, (1,)), 5)
    assert rep.entry((1,), (0,)) == 1
    assert rep.entry((3,), (2,)) == 1
    assert rep.entry((0,), (-1,)) == -1
    assert rep.entry((-1,), (-2,)) == -1
    vals = rep.matrix[np.nonzero(rep.matrix)]
    assert set(np.round(vals.real).astype(int)) <= {-1, 1}


def test_delta_norm_bound_free_group():
    f2 = GroupSpec.free(2, radius=4)
    for gen in f2.generators():
        rep = delta_word_length(GA.delta(f2, gen), 4)
        assert rep.opnorm_lower() <= f2.length(gen) + TOL


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_delta_leibniz(seed):
    z5 = GroupSpec.cyclic(5)
    rng = np.random.default_rng(seed)
    a, b = rand_ga(z5, rng), rand_ga(z5, rng)
    assert derivation_leibniz_residual(a, b, 2) <= TOL


def test_neumann_identity():
    z3 = GroupSpec.cyclic(3)
    assert (neumann_inverse(GA.one(z3)) - GA.one(z3)).max_abs() <= TOL


def test_neumann_vs_regular_rep():
    z3 = GroupSpec.cyclic(3)
    x = GA.one(z3) - 0.5 * GA.delta(z3, 1)
    inv = neumann_inverse(x, tol=1e-13)
    _, mx = x.regular_rep(1)
    _, mi = inv.regular_rep(1)
    assert np.max(np.abs(mi - np.linalg.inv(mx))) <= 1e-9
    assert (x * inv - GA.one(z3)).ball_opnorm(1) <= 1e-12


def test_neumann_rejects_large_defect():
    z3 = GroupSpec.cyclic(3)
    x = GA.one(z3) - 1.5 * GA.delta(z3, 1)
    with pytest.raises(NotInvertibleInBudget):
        neumann_inverse(x)


def test_neumann_seminorm_bound():
    # per-term derivation seminorms obey n |1-x|^{n-1} |delta(1-x)|,
    # exactly on a finite cyclic group where ball norms are true norms
    z5 = GroupSpec.cyclic(5)
    x = GA.one(z5) - 0.3 * GA.delta(z5, 1) - 0.2 * GA.delta(z5, 3)
    report = []
    neumann_inverse(x, tol=1e-13, seminorm_report=report)
    assert len(report) > 3
    for entry in report:
        assert entry["delta_norm"] <= entry["bound"] + 1e-10


def test_cyclic_sectors_of_a_group_element_are_its_characters():
    k = 5
    spec = GroupSpec.cyclic(k)
    for g in range(k):
        sectors = cyclic_sectors(GAMatrix(spec, 1, {g: [[1.0]]}))
        chars = np.exp(2j * np.pi * np.arange(k) * g / k)
        assert np.max(np.abs(sectors[:, 0, 0] - chars)) <= 1e-14


def test_cyclic_sector_roundtrip():
    z4 = GroupSpec.cyclic(4)
    rng = np.random.default_rng(0)
    m = GAMatrix(z4, 2, {g: rng.standard_normal((2, 2))
                         + 1j * rng.standard_normal((2, 2))
                         for g in range(4)})
    back = gamatrix_from_sectors(z4, cyclic_sectors(m))
    assert (back - m).max_abs() <= TOL
    # sectors multiply pointwise
    m2 = m @ m
    s2 = cyclic_sectors(m2)
    s = cyclic_sectors(m)
    assert np.max(np.abs(s2 - np.einsum("kij,kjl->kil", s, s))) <= 1e-10


def _is_element(x):
    return (type(x) is GA and x.n == 1
            and all(type(c) is complex for c in x.terms.values()))


def test_element_operations_stay_elements():
    assert issubclass(GA, GAMatrix)
    rng = np.random.default_rng(3)
    for spec in (GroupSpec.lattice(2), GroupSpec.cyclic(6),
                 GroupSpec.free(2, radius=5)):
        a, b = rand_ga(spec, rng), rand_ga(spec, rng)
        for x in (a + b, a - b, -a, a * b, ga_mul(a, b), a * 2.5,
                  (0.5 - 1j) * a, a.star(), a @ b, a.scale(3)):
            assert _is_element(x)
        assert (a * b).terms == (a @ b).terms
        assert (-a).terms == {g: -c for g, c in a.terms.items()}


def test_element_terms_round_trip():
    z5 = GroupSpec.cyclic(5)
    terms = {0: 1.5, 2: -2j, 3: 0.0}
    x = GA(z5, terms)
    assert x.terms == {0: 1.5 + 0j, 2: -2j}
    assert set(x.parts) == {0, 2} and x.parts[2].shape == (1, 1)
    assert trace_e(x) == 1.5 and trace_e(GA(z5)) == 0j
    with pytest.raises(TruncationOverflow):
        GA(GroupSpec.free(1, radius=1), {(1, 1): 1.0})


def test_gamatrix_entry_is_the_coefficient_dict():
    rng = np.random.default_rng(4)
    z3 = GroupSpec.cyclic(3)
    parts = {g: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
             for g in range(3)}
    parts[1][0, 2] = 0.0
    m = GAMatrix(z3, 3, parts)
    for i in range(3):
        for j in range(3):
            e = m.entry(i, j)
            assert _is_element(e)
            assert e.terms == {g: complex(p[i, j]) for g, p in parts.items()
                               if p[i, j] != 0}


def _delta_by_pairs(a, radius):
    """The per-pair loop delta_word_length ran before it read the regular
    representation: (matrix, rep_matrix) on the ball."""
    spec = a.spec
    basis = spec.ball(radius)
    index = {g: i for i, g in enumerate(basis)}
    n = len(basis)
    mat = np.zeros((n, n), dtype=complex)
    rep = np.zeros((n, n), dtype=complex)
    for h, j in index.items():
        lh = spec.length(h)
        for g, c in a.terms.items():
            gh = spec.mul(g, h)
            i = index.get(gh)
            if i is None:
                continue
            rep[i, j] += c
            mat[i, j] += c * (spec.length(gh) - lh)
    return mat, rep


@pytest.mark.parametrize("spec", [GroupSpec.lattice(2), GroupSpec.cyclic(6),
                                  GroupSpec.free(2, radius=5)], ids=repr)
def test_delta_word_length_matches_the_pair_loop(spec):
    rng = np.random.default_rng(5)
    for radius in (2, 3):
        for support in (1, 3, 6):
            a = rand_ga(spec, rng, support=support, radius=2)
            rep = delta_word_length(a, radius)
            mat, regular = _delta_by_pairs(a, radius)
            assert np.array_equal(rep.matrix, mat)
            assert np.array_equal(rep.rep_matrix, regular)
            assert rep.basis == spec.ball(radius)
