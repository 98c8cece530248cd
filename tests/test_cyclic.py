import itertools
import math

import numpy as np
import pytest

from ncindex.cyclic import (CyclicCochain, GroupCocycle,
                            b_transpose, c_to_tau, chern_lambda,
                            closed_cocycle_basis, d_gamma,
                            pair_cochain_form, random_closed_cocycle,
                            tau_to_c)
from ncindex.errors import NotAProjection, UnsupportedDegree
from ncindex.group_algebra import GAMatrix, GroupSpec
from ncindex.nc_forms import CircleGrid, MixedForm, ScalarForm
from ncindex.testing import (random_mixed_form, random_normalized_cochain,
                             random_projection_matrix,
                             random_unitary_matrix)

Z = GroupSpec.lattice(1)
Z5 = GroupSpec.cyclic(5)


def winding_tau(spec=Z):
    return GroupCocycle(spec, 1, lambda a, b: complex(b[0] - a[0]),
                        alternating=True, invariant=True)


def odd_tau_z5():
    table = {d: complex(np.sin(2.3 * d) - np.sin(2.3 * ((-d) % 5)))
             for d in range(5)}
    return GroupCocycle(Z5, 1, lambda a, b: table[(b - a) % 5],
                        alternating=True, invariant=True)


# -- group differential ---------------------------------------------------

def test_d_gamma_constant():
    c = GroupCocycle(Z5, 0, lambda g: 1.0, invariant=True)
    d = d_gamma(c)
    for t in itertools.product(range(5), repeat=2):
        assert d(*t) == 0


def test_d_gamma_of_winding_vanishes():
    dt = d_gamma(winding_tau())
    rng = np.random.default_rng(0)
    pool = Z.ball(3)
    for _ in range(60):
        tup = [pool[int(i)] for i in rng.integers(0, len(pool), 3)]
        assert abs(dt(*tup)) == 0


def test_d_gamma_squares_to_zero_enumerated():
    z4 = GroupSpec.cyclic(4)
    rng = np.random.default_rng(1)
    table = {t: complex(rng.standard_normal())
             for t in itertools.product(range(4), repeat=2)}
    tau = GroupCocycle(z4, 1, lambda *a: table[a])
    dd = d_gamma(d_gamma(tau))
    for t in itertools.product(range(4), repeat=4):
        assert abs(dd(*t)) <= 1e-12


# -- transpose boundary ----------------------------------------------------

def test_b_transpose_of_trace_vanishes():
    tr = CyclicCochain(Z5, 0, lambda g: 1.0 if g == 0 else 0.0,
                       e_supported=True)
    bt = b_transpose(tr)
    for t in itertools.product(range(5), repeat=2):
        assert abs(bt(*t)) <= 1e-14


def test_b_transpose_squares_to_zero():
    z3 = GroupSpec.cyclic(3)
    rng = np.random.default_rng(2)
    table = {t: complex(rng.standard_normal())
             for t in itertools.product(range(3), repeat=2)}
    phi = CyclicCochain(z3, 1, lambda *a: table[a])
    bb = b_transpose(b_transpose(phi))
    for t in itertools.product(range(3), repeat=4):
        assert abs(bb(*t)) <= 1e-12


def test_b_transpose_kills_dictionary_of_closed():
    c = tau_to_c(winding_tau())
    bt = b_transpose(c)
    rng = np.random.default_rng(3)
    pool = Z.ball(2)
    for _ in range(60):
        tup = [pool[int(i)] for i in rng.integers(0, len(pool), 3)]
        assert abs(bt(*tup)) <= 1e-12


# -- the dictionary ---------------------------------------------------------

def test_roundtrip_tau_c_tau():
    tau = winding_tau()
    t2 = c_to_tau(tau_to_c(tau))
    rng = np.random.default_rng(4)
    pool = Z.ball(3)
    for _ in range(60):
        tup = [pool[int(i)] for i in rng.integers(0, len(pool), 2)]
        assert abs(tau(*tup) - t2(*tup)) == 0


def test_roundtrip_c_tau_c():
    tau5 = odd_tau_z5()
    c = tau_to_c(tau5)
    c2 = tau_to_c(c_to_tau(c))
    for t in itertools.product(range(5), repeat=2):
        assert abs(c(*t) - c2(*t)) <= 1e-13


def test_support_condition():
    c = tau_to_c(winding_tau())
    assert c((1,), (2,)) == 0
    assert abs(c((-2,), (2,))) == 2


def test_degree_zero_rejected():
    tau0 = GroupCocycle(Z, 0, lambda g: 1.0)
    with pytest.raises(UnsupportedDegree):
        tau_to_c(tau0)
    c0 = CyclicCochain(Z, 0, lambda g: 1.0)
    with pytest.raises(UnsupportedDegree):
        c_to_tau(c0)


def test_dictionary_is_chain_map():
    for tau in (odd_tau_z5(),):
        lhs = tau_to_c(d_gamma(tau))
        rhs = b_transpose(tau_to_c(tau))
        for t in itertools.product(range(5), repeat=3):
            assert abs(lhs(*t) - rhs(*t)) <= 1e-12


def test_dictionary_is_chain_map_degree_two():
    from ncindex.testing import random_alternating_cocycle

    rng = np.random.default_rng(42)
    tau = random_alternating_cocycle(Z5, 2, rng)
    lhs = tau_to_c(d_gamma(tau))
    rhs = b_transpose(tau_to_c(tau))
    scale = max(abs(rhs(*t))
                for t in itertools.product(range(5), repeat=4))
    for t in itertools.product(range(5), repeat=4):
        assert abs(lhs(*t) - rhs(*t)) <= 1e-12 * max(1.0, scale)


def test_cyclic_symmetry_of_dictionary_image():
    c = tau_to_c(odd_tau_z5())
    rng = np.random.default_rng(5)
    assert c.cyclic_defect(rng, samples=80) <= 1e-12


# -- cyclic character --------------------------------------------------------

def test_chern_lambda_scalar_identity():
    p = GAMatrix.identity(Z5, 1)
    chains = chern_lambda(p, 2)
    assert abs(chains[0].terms.get((0,), 0) - 1.0) <= 1e-14
    rng = np.random.default_rng(6)
    for m in (1, 2):
        phi = random_normalized_cochain(Z5, 2 * m, rng)
        assert abs(chains[m].pair(phi)) <= 1e-12


def test_chern_lambda_rejects_non_projections():
    rng = np.random.default_rng(7)
    m = GAMatrix(Z5, 2, {0: rng.standard_normal((2, 2))})
    with pytest.raises(NotAProjection):
        chern_lambda(m, 1)


def test_chern_lambda_components_are_cycles():
    rng = np.random.default_rng(8)
    p = random_projection_matrix(Z5, 2, rng)
    chains = chern_lambda(p, 2)
    for m in (1, 2):
        psi = random_normalized_cochain(Z5, 2 * m - 1, rng)
        # pairing of a cycle with any transpose-boundary vanishes
        assert abs(chains[m].pair(b_transpose(psi))) <= 1e-9


def test_normalization_bridge_small():
    rng = np.random.default_rng(9)
    grid = CircleGrid(4)
    from ncindex.chern import chern_even

    p = random_projection_matrix(Z5, 2, rng)
    P = MixedForm.zero(grid, Z5, 2, kalg=6)
    P.add_term(ScalarForm.one(grid), (p,))
    ch = chern_even(P, 2)
    chains = chern_lambda(p, 2)
    assert abs(chains[0].terms.get((0,), 0j)
               - ch.scalar_part().component(())[0]) <= 1e-12
    for m in (1, 2):
        basis = closed_cocycle_basis(Z5, 2 * m)
        phi = random_closed_cocycle(Z5, 2 * m, rng, basis)
        lhs = chains[m].pair(phi)
        rhs = ((2j * np.pi) ** m * math.factorial(m)
               * pair_cochain_form(phi, ch).component(())[0])
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_conjugated_projection_pairs_equally():
    rng = np.random.default_rng(10)
    p = random_projection_matrix(Z5, 2, rng)
    u = random_unitary_matrix(Z5, 2, rng)
    q = u @ p @ u.star()
    cp = chern_lambda(p, 1)
    cq = chern_lambda(q, 1)
    for phi in closed_cocycle_basis(Z5, 2):
        assert abs(cp[1].pair(phi) - cq[1].pair(phi)) <= 1e-9


# -- pairing against forms ----------------------------------------------------

def test_pairing_reads_only_matching_degree():
    grid = CircleGrid(8)
    rng = np.random.default_rng(11)
    w = random_mixed_form(grid, Z5, 2, 0, 1, rng, kalg=4) \
        + random_mixed_form(grid, Z5, 2, 1, 2, rng, kalg=4)
    phi = random_normalized_cochain(Z5, 2, rng)
    paired = pair_cochain_form(phi, w)
    assert set(paired.comps) <= {(0,)}


def test_pairing_kills_slot_identity_terms():
    # a term with a scalar-identity slot dies under canonicalization, so
    # any cochain pairs with it to zero
    grid = CircleGrid(8)
    rng = np.random.default_rng(20)
    w = MixedForm.zero(grid, Z5, 2, 4)
    w.add_term(ScalarForm.one(grid),
               (random_projection_matrix(Z5, 2, rng),
                GAMatrix.identity(Z5, 2)))
    phi = random_normalized_cochain(Z5, 1, rng)
    assert pair_cochain_form(phi, w).max_abs() == 0.0


def test_trace_pairing_degree_zero():
    grid = CircleGrid(8)
    rng = np.random.default_rng(12)
    jet = ScalarForm.one(grid)
    w = MixedForm.zero(grid, Z5, 1, 3)
    w.add_term(jet, (GAMatrix.identity(Z5, 1),))
    tr = CyclicCochain(Z5, 0, lambda g: 1.0 if g == 0 else 0.0)
    paired = pair_cochain_form(tr, w)
    assert np.max(np.abs(paired.component(()) - 1.0)) <= 1e-13


def test_closed_pairing_kills_exact_forms():
    grid = CircleGrid(12)
    rng = np.random.default_rng(13)
    for basis_degree in (2, 3):
        basis = closed_cocycle_basis(Z5, basis_degree)
        if not basis:
            continue
        beta = random_mixed_form(grid, Z5, 2, 0, basis_degree - 1, rng,
                                 kalg=basis_degree + 1) \
            + random_mixed_form(grid, Z5, 2, 1, basis_degree, rng,
                                kalg=basis_degree + 1)
        exact = beta.dtot()
        for phi in basis:
            val = pair_cochain_form(phi, exact).integrate()
            assert abs(val) <= 1e-9


def test_closed_cocycle_basis_is_closed():
    for degree in (2, 3, 4):
        for phi in closed_cocycle_basis(Z5, degree):
            bt = b_transpose(phi)
            rng = np.random.default_rng(degree)
            for _ in range(50):
                tup = tuple(int(i) for i in
                            rng.integers(0, 5, degree + 2))
                assert abs(bt(*tup)) <= 1e-10


# -- array paths against per-tuple references -------------------------------

def _chern_lambda_by_tuples(p, m_max):
    """Per-tuple enumeration over index cycles and group combos."""
    n = p.n
    entries = [[p.entry(i, j) for j in range(n)] for i in range(n)]
    chains = []
    for m in range(m_max + 1):
        slots = 2 * m + 1
        sign = -1.0 if m % 2 else 1.0
        terms = {}
        for cycle in itertools.product(range(n), repeat=slots):
            gas = [entries[cycle[s]][cycle[(s + 1) % slots]]
                   for s in range(slots)]
            for combo in itertools.product(*(ga.terms.items()
                                             for ga in gas)):
                word = tuple(g for g, _ in combo)
                coeff = sign
                for _, c in combo:
                    coeff *= c
                terms[word] = terms.get(word, 0j) + coeff
        chains.append(terms)
    return chains


def _pair_by_combos(phi, omega):
    """Per-combo pairing: one scalar-form scale and add per group tuple."""
    total = ScalarForm.zero(omega.grid)
    traced = omega if omega.size == 1 else omega.graded_trace()
    for word, sform in traced.terms.values():
        if len(word) - 1 != phi.degree:
            continue
        gas = [m.entry(0, 0) for m in word]
        for combo in itertools.product(*(ga.terms.items() for ga in gas)):
            coeff = phi(*(g for g, _ in combo))
            for _, c in combo:
                coeff *= c
            if coeff:
                total = total + sform.scale(coeff)
    return total


@pytest.mark.parametrize("k", [3, 5, 7])
def test_chern_lambda_matches_tuple_enumeration(k):
    spec = GroupSpec.cyclic(k)
    rng = np.random.default_rng(30 + k)
    for p in (random_projection_matrix(spec, 2, rng, rank_choices=(1, 2)),
              random_projection_matrix(spec, 2, rng, rank_choices=(1, 2)),
              GAMatrix.identity(spec, 1), GAMatrix.identity(spec, 2)):
        chains = chern_lambda(p, 2)
        ref = _chern_lambda_by_tuples(p, 2)
        for m, (chain, terms) in enumerate(zip(chains, ref)):
            assert chain.degree == 2 * m
            for word in set(chain.terms) | set(terms):
                assert abs(chain.terms.get(word, 0j)
                           - terms.get(word, 0j)) <= 1e-12


def test_pair_cochain_form_matches_per_combo_on_character():
    rng = np.random.default_rng(40)
    p = random_projection_matrix(Z5, 2, rng, rank_choices=(1, 2))
    grid = CircleGrid(4)
    from ncindex.chern import chern_even

    P = MixedForm.zero(grid, Z5, 2, kalg=6)
    P.add_term(ScalarForm.one(grid), (p,))
    ch = chern_even(P, 2)
    for degree in (2, 4):
        phi = random_closed_cocycle(Z5, degree, rng)
        diff = pair_cochain_form(phi, ch) - _pair_by_combos(phi, ch)
        assert diff.max_abs() <= 1e-12


def test_pair_cochain_form_matches_per_combo_on_covering_form():
    from ncindex.chern import chern_even
    from ncindex.covering import (CoverData, build_mf_projection,
                                  vandermonde_cocycle, winding_cocycle)

    cover = CoverData.standard(CircleGrid(128))
    P = build_mf_projection(cover, kalg=4).form
    ch = chern_even(P, 1)
    spec = cover.deck_spec
    phi = tau_to_c(winding_cocycle(spec))
    new, ref = pair_cochain_form(phi, ch), _pair_by_combos(phi, ch)
    assert ref.max_abs() > 1e-3
    assert (new - ref).max_abs() <= 1e-12
    aP = P.dtot_algebra()
    flat = (P @ aP @ aP).graded_trace()
    phi2 = tau_to_c(vandermonde_cocycle(spec, 2))
    assert (pair_cochain_form(phi2, flat)
            - _pair_by_combos(phi2, flat)).max_abs() <= 1e-12


@pytest.mark.parametrize("k,degree", [(5, 2), (5, 4), (7, 4)])
def test_random_closed_cocycle_is_the_weighted_basis_sum(k, degree):
    spec = GroupSpec.cyclic(k)
    basis = closed_cocycle_basis(spec, degree)
    phi = random_closed_cocycle(spec, degree, np.random.default_rng(50),
                                basis)
    rng = np.random.default_rng(50)
    w = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(
        len(basis))
    sample = np.random.default_rng(51)
    tups = [tuple(int(g) for g in t)
            for t in sample.integers(0, k, (100, degree + 1))]
    for tail in sample.integers(1, k, (100, degree)):
        # nonzero slots with product e: the cochains' support
        tups.append((int(-tail.sum() % k),) + tuple(int(g) for g in tail))
    for tup in tups:
        expected = sum(c * b(*tup) for c, b in zip(w, basis))
        assert abs(phi(*tup) - expected) <= 1e-12


def test_closed_cocycle_basis_z7_degree4_is_lean():
    import tracemalloc

    z7 = GroupSpec.cyclic(7)
    tracemalloc.start()
    try:
        basis = closed_cocycle_basis(z7, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2 ** 20
    assert len(basis) == 41
    rng = np.random.default_rng(60)
    for phi in basis:
        bt = b_transpose(phi)
        for _ in range(40):
            tail = rng.integers(1, 7, 5)
            tup = (int(-tail.sum() % 7),) + tuple(int(g) for g in tail)
            assert abs(bt(*tup)) <= 1e-10
