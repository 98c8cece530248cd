import itertools
import math

import numpy as np
import pytest

from ncindex import cyclic
from ncindex.cyclic import (TOL, CyclicChain, CyclicCochain, GroupCocycle,
                            _cyclic_defects, _cyclic_operands, _cyclic_path,
                            _live_orbits, _rotations, b_transpose, c_to_tau,
                            chern_lambda, closed_cocycle_basis, d_gamma,
                            orbit_index, pair_cochain_form,
                            random_closed_cocycle, tau_to_c)
from ncindex.errors import (IllConditioned, NotAProjection,
                           UnsupportedDegree)
from ncindex.group_algebra import GAMatrix, GroupSpec
from ncindex.nc_forms import CircleGrid, JetFunction, MixedForm, ScalarForm
from ncindex.testing import (normalization_bridge, random_mixed_form,
                             random_normalized_cochain,
                             random_projection_matrix,
                             random_unitary_matrix)

Z = GroupSpec.lattice(1)
Z5 = GroupSpec.cyclic(5)


def winding_tau(spec=Z):
    return GroupCocycle(spec, 1, lambda a, b: complex(b[0] - a[0]))


def odd_tau_z5():
    table = {d: complex(np.sin(2.3 * d) - np.sin(2.3 * ((-d) % 5)))
             for d in range(5)}
    return GroupCocycle(Z5, 1, lambda a, b: table[(b - a) % 5])


# -- group differential ---------------------------------------------------

def test_d_gamma_constant():
    c = GroupCocycle(Z5, 0, lambda g: 1.0)
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
    tr = CyclicCochain(Z5, 0, lambda g: 1.0 if g == 0 else 0.0)
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


# -- the projection check over Z/k on the coefficient stack -----------------

def _non_self_adjoint_idempotent(spec):
    # [[1, 1], [0, 0]] at e: e squared is e, but e* is [[1, 0], [1, 0]]
    return GAMatrix(spec, 2, {spec.identity(): [[1.0, 1.0], [0.0, 0.0]]})


@pytest.mark.parametrize("k", [3, 5, 7])
def test_chern_lambda_rejects_a_scaled_and_a_skew_projection(k):
    spec = GroupSpec.cyclic(k)
    p = random_projection_matrix(spec, 2, np.random.default_rng(70 + k),
                                 rank_choices=(1, 2))
    for bad in (p.scale(1.01), _non_self_adjoint_idempotent(spec)):
        with pytest.raises(NotAProjection,
                           match=r"^p fails p\^2 = p or p\* = p$"):
            chern_lambda(bad, 2)


@pytest.mark.parametrize("k", [3, 5, 7])
def test_cyclic_defects_are_the_group_algebra_residuals(k):
    spec = GroupSpec.cyclic(k)
    rng = np.random.default_rng(80 + k)
    p = random_projection_matrix(spec, 2, rng, rank_choices=(1, 2))
    sparse = GAMatrix(spec, 2, {1: rng.standard_normal((2, 2)),
                                k - 1: rng.standard_normal((2, 2))})
    for m in (p, p.scale(1.01), _non_self_adjoint_idempotent(spec), sparse,
              GAMatrix.identity(spec, 2), GAMatrix(spec, 2)):
        want = ((m @ m - m).max_abs(), (m.star() - m).max_abs())
        got = _cyclic_defects(m)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-14 * max(1.0, w)


def _chains_by_einsum(p, m_max):
    """The chains of `chern_lambda` from its operands and cached paths,
    with no projection check."""
    n = p.n
    E = np.moveaxis(np.reshape(list(p.parts.values()), (-1, n, n)), 0, -1)
    chains = [np.einsum(*_cyclic_operands(E, 2 * m + 1),
                        optimize=_cyclic_path(2 * m + 1, E.shape))
              for m in range(m_max + 1)]
    return [-c if m % 2 else c for m, c in enumerate(chains)]


def test_chern_lambda_over_z7_needs_no_group_algebra_product(monkeypatch):
    p = random_projection_matrix(GroupSpec.cyclic(7), 2,
                                 np.random.default_rng(90),
                                 rank_choices=(1, 2))
    want = _chains_by_einsum(p, 2)

    def refuse(*_args):
        raise AssertionError("GAMatrix product in chern_lambda")

    monkeypatch.setattr(GAMatrix, "__matmul__", refuse)
    chains = chern_lambda(p, 2)
    # the chains are the einsum contractions, bit for bit
    assert [c.support for c in chains] == [list(p.parts)] * 3
    for chain, coeffs in zip(chains, want):
        assert chain.coeffs.tobytes() == coeffs.tobytes()


def test_chern_lambda_over_a_lattice_checks_in_group_algebra(monkeypatch):
    # (1/2) [[1, g], [g^-1, 1]] for the generator g of Z
    g, e = (1,), (0,)
    p = GAMatrix(Z, 2, {e: 0.5 * np.eye(2), g: [[0.0, 0.5], [0.0, 0.0]],
                        (-1,): [[0.0, 0.0], [0.5, 0.0]]})
    products = []
    matmul = GAMatrix.__matmul__
    monkeypatch.setattr(GAMatrix, "__matmul__", lambda a, b: products.append(
        1) or matmul(a, b))

    def refuse(_p):
        raise AssertionError("dense check of a lattice matrix")

    monkeypatch.setattr(cyclic, "_cyclic_defects", refuse)
    chains = chern_lambda(p, 1)
    assert products
    assert abs(chains[0].terms[(e,)] - 1.0) <= 1e-15
    with pytest.raises(NotAProjection, match="p fails"):
        chern_lambda(p.scale(1.01), 1)


def test_chern_lambda_components_are_cycles():
    rng = np.random.default_rng(8)
    p = random_projection_matrix(Z5, 2, rng)
    chains = chern_lambda(p, 2)
    for m in (1, 2):
        psi = random_normalized_cochain(Z5, 2 * m - 1, rng)
        # pairing of a cycle with any transpose-boundary vanishes
        assert abs(chains[m].pair(b_transpose(psi))) <= 1e-9


def test_closed_basis_cocycles_pair_to_zero_on_both_sides():
    # over Z/k a closed basis cocycle is a coboundary, so above degree 0
    # both sides of the bridge vanish and cannot be compared; the bridge
    # is pinned with open cochains (the tests of `normalization_bridge`)
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
        assert abs(lhs) <= 1e-12
        assert abs(rhs) <= 1e-12


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
    """Per-tuple pairing: the matrix trace of each entry taken by hand,
    then one scalar-form scale and add per group tuple."""
    total = ScalarForm.zero(omega.grid)
    for tup, axes, x in omega.entries():
        if len(tup) - 1 != phi.degree:
            continue
        coeff = phi(*tup)
        if coeff:
            jet = JetFunction.from_stack(
                omega.grid, sum(x[i, i] for i in range(omega.size)))
            total = total + ScalarForm(omega.grid, {axes: jet}).scale(coeff)
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
    # an untraced form: the reference traces each entry by hand
    dP = P.dtot()
    untraced = P @ dP @ dP
    ref = _pair_by_combos(phi, untraced)
    assert ref.max_abs() > 1e-3
    assert (pair_cochain_form(phi, untraced) - ref).max_abs() <= 1e-12


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


def test_closed_cocycle_basis_z7_degree4_peaks_under_32_mb():
    import tracemalloc

    tracemalloc.start()
    try:
        closed_cocycle_basis(GroupSpec.cyclic(7), 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("level,lost", [(5e-11, 0), (1e-4, 1), (1e-8, None)])
def test_closed_cocycle_basis_needs_a_clear_gap(monkeypatch, level, lost):
    clean = closed_cocycle_basis(Z5, 4)
    svd = np.linalg.svd

    def spectrum(mat, full_matrices=True):
        # the last cocycle's squared singular value moved to TOL^1.5 /
        # level times the scale: level mirrored across the gap [TOL,
        # sqrt(TOL)], so a level that would leave a null eigenvalue in
        # the kernel keeps the cocycle and one that lifts it out drops it
        u, svals, vh = svd(mat, full_matrices=full_matrices)
        svals = svals.copy()
        scale = max(1.0, svals[0] ** 2)
        svals[len(clean) - 1] = np.sqrt(TOL ** 1.5 / level * scale)
        return u, svals, vh

    monkeypatch.setattr(np.linalg, "svd", spectrum)
    if lost is None:
        # between tol and sqrt(tol) of the scale: no clear gap
        with pytest.raises(IllConditioned):
            closed_cocycle_basis(Z5, 4)
        return
    basis = closed_cocycle_basis(Z5, 4)
    assert len(basis) == len(clean) - lost
    for phi, ref in zip(basis, clean):
        assert np.array_equal(phi.orbits, ref.orbits)


def test_live_orbits_are_cached_read_only_arrays():
    _live_orbits(7, 4)
    hits = _live_orbits.cache_info().hits
    live, first = _live_orbits(7, 4)
    assert _live_orbits.cache_info().hits == hits + 1
    assert _live_orbits(7, 4)[0] is live
    for arr in (live, *first):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]


@pytest.mark.parametrize("k,degree", [(3, 2), (3, 3), (5, 4), (7, 2),
                                      (7, 4)])
def test_closed_cocycle_basis_is_the_one_of_uncached_live_orbits(
        monkeypatch, k, degree):
    spec = GroupSpec.cyclic(k)
    cached = closed_cocycle_basis(spec, degree)
    monkeypatch.setattr(cyclic, "_live_orbits", _live_orbits.__wrapped__)
    fresh = closed_cocycle_basis(spec, degree)
    assert len(cached) == len(fresh) > 0
    for a, b in zip(cached, fresh):
        assert a.orbits.tobytes() == b.orbits.tobytes()


def _live_count(k, n):
    """The number of orbit variables of `orbit_index(k, n)` on the
    support (product e) that are not forced to zero."""
    _, column, sign = orbit_index(k, n)
    on_support = sum(np.indices((k,) * (n + 1), sparse=True)) % k == 0
    return len(np.unique(column[on_support & (sign != 0)]))


@pytest.mark.parametrize("k,degree", [(k, n) for k in range(2, 10)
                                      for n in range(1, 5)] + [(11, 4)])
def test_closed_cocycle_bases_are_exact_in_dimension(k, degree):
    # the cocycles of degree n - 1 are the kernel of b^t and those of
    # degree n its image, so their dimensions fill the live variables
    spec = GroupSpec.cyclic(k)
    assert (len(closed_cocycle_basis(spec, degree))
            + len(closed_cocycle_basis(spec, degree - 1))
            == _live_count(k, degree - 1))


def test_closed_cocycle_basis_rejects_a_negative_degree():
    assert closed_cocycle_basis(Z5, 0) == []
    for degree in (-1, -2):
        with pytest.raises(ValueError, match=f"degree {degree} "):
            closed_cocycle_basis(Z5, degree)


def _basis_by_orbit_walk(k, n, tol=1e-10):
    """Closed cocycle tables by a per-tuple orbit walk over the support
    and one b^t row per reduced chain, as (dimension, k^(n+1)) rows."""
    sign_rot = -1.0 if n % 2 else 1.0
    orbit_of, nvar = {}, 0
    for tail in itertools.product(range(1, k), repeat=n):
        tup = ((-sum(tail)) % k,) + tail
        if tup[0] == 0 or tup in orbit_of:
            continue
        members, cur, s, dead = {}, tup, 1.0, False
        for _ in range(n + 1):
            dead = dead or members.get(cur, s) != s
            members[cur] = s
            cur = (cur[-1],) + cur[:-1]
            s *= sign_rot
        var = -1 if dead else nvar
        nvar += not dead
        orbit_of.update((t, (var, s)) for t, s in members.items())
    rows = []
    for tail in itertools.product(range(1, k), repeat=n + 1):
        y = ((-sum(tail)) % k,) + tail
        row = np.zeros(nvar)
        for i in range(n + 2):
            if i <= n:
                merged = y[:i] + ((y[i] + y[i + 1]) % k,) + y[i + 2:]
            else:
                merged = ((y[n + 1] + y[0]) % k,) + y[1:n + 1]
            idx, s = orbit_of.get(merged, (-1, 0.0))
            if idx >= 0:
                row[idx] += s if i % 2 == 0 else -s
        rows.append(row)
    _, svals, vh = np.linalg.svd(np.array(rows),
                                 full_matrices=len(rows) < nvar)
    null = vh[int(np.sum(svals > tol * max(1.0, svals[0]))):]
    tables = np.zeros((len(null), k ** (n + 1)))
    for tup, (idx, s) in orbit_of.items():
        if idx >= 0:
            tables[:, np.ravel_multi_index(tup, (k,) * (n + 1))] = \
                s * null[:, idx]
    return tables


@pytest.mark.parametrize("k,degree", [(3, 2), (3, 3), (5, 1), (5, 2),
                                      (5, 3), (5, 4), (7, 2), (7, 3),
                                      (7, 4)])
def test_closed_cocycle_basis_spans_the_orbit_walk_kernel(k, degree):
    basis = closed_cocycle_basis(GroupSpec.cyclic(k), degree)
    ref = _basis_by_orbit_walk(k, degree)
    assert len(basis) == len(ref)
    if not basis:
        return
    new = np.stack([phi.table.ravel() for phi in basis])
    cols = np.flatnonzero(new.any(axis=0) | ref.any(axis=0))

    def projector(rows):
        q = np.linalg.qr(rows[:, cols].T)[0]
        return q @ q.conj().T

    assert np.max(np.abs(projector(new) - projector(ref))) <= 1e-12


def _orbit_basis_by_dense_svd(k, n, tol=1e-10):
    """Closed cocycles as orbit values, (dimension, count) rows, from the
    dense b^t matrix with one row per reduced chain and its thin SVD."""
    count, column, sign = orbit_index(k, n)
    on_support = sum(np.indices((k,) * (n + 1), sparse=True)) % k == 0
    live = np.unique(column[on_support & (sign != 0)])
    var = np.zeros(count, dtype=int)
    var[live] = np.arange(len(live))
    nonzero = np.indices((k - 1,) * (n + 1)).reshape(n + 1, -1) + 1
    y = np.vstack([-nonzero.sum(axis=0) % k, nonzero])
    y = y[:, np.unique(_rotations(y, k).min(axis=0),
                       return_index=True)[1]]
    mat = np.zeros((y.shape[1], len(live)))
    rows = np.arange(y.shape[1])
    for i in range(n + 2):
        if i <= n:
            merged = np.vstack([y[:i], (y[i] + y[i + 1]) % k, y[i + 2:]])
        else:
            merged = np.vstack([(y[n + 1] + y[0]) % k, y[1:n + 1]])
        at = tuple(merged)
        np.add.at(mat, (rows, var[column[at]]), (-1) ** i * sign[at])
    _, svals, vh = np.linalg.svd(mat,
                                 full_matrices=mat.shape[0] < mat.shape[1])
    rank = int(np.sum(svals > tol * max(1.0, svals[0])))
    vecs = np.zeros((len(live) - rank, count))
    vecs[:, live] = vh[rank:]
    return vecs


def test_closed_cocycle_basis_z9_degree4_spans_the_dense_svd_kernel():
    basis = closed_cocycle_basis(GroupSpec.cyclic(9), 4)
    ref = _orbit_basis_by_dense_svd(9, 4)
    assert len(basis) == len(ref) == 100
    new = np.stack([phi.orbits for phi in basis])
    cols = np.flatnonzero(new.any(axis=0) | ref.any(axis=0))

    def projector(rows):
        q = np.linalg.qr(rows[:, cols].T)[0]
        return q @ q.T

    assert np.max(np.abs(projector(new) - projector(ref))) <= 1e-12


# -- table cochains ---------------------------------------------------------

def test_table_cochain_pairing_stores_nothing():
    z7 = GroupSpec.cyclic(7)
    rng = np.random.default_rng(70)
    p = random_projection_matrix(z7, 2, rng)
    phi = random_closed_cocycle(z7, 4, rng)
    table = phi.table.copy()
    chain = chern_lambda(p, 2)[2]
    assert len(chain.terms) == 7 ** 5
    value = chain.pair(phi)
    assert not phi._memo
    assert np.array_equal(phi.table, table)
    # the exactly rounded sum of the products, within the rounding of
    # any summation order
    terms = [c * table[t] for t, c in chain.terms.items()]
    exact = complex(math.fsum(z.real for z in terms),
                    math.fsum(z.imag for z in terms))
    bound = len(terms) * np.finfo(float).eps * sum(abs(z) for z in terms)
    assert abs(value - exact) <= bound


@pytest.mark.parametrize("degree", [2, 4])
def test_chain_pairing_takes_the_table_at_an_unsorted_support(degree):
    """A chain on a proper, unsorted support reads the orbit cochain's
    lattice table along every axis, bitwise as the open-mesh lookup."""
    z7 = GroupSpec.cyclic(7)
    rng = np.random.default_rng(degree)
    support = [3, 0, 5]
    coeffs = (rng.standard_normal((3,) * (degree + 1))
              + 1j * rng.standard_normal((3,) * (degree + 1)))
    chain = CyclicChain(z7, support, coeffs)
    phi = random_normalized_cochain(z7, degree, rng)
    mesh = phi._lookup(np.ix_(*(support,) * (degree + 1)))
    assert chain.pair(phi) == complex(np.dot(coeffs.ravel(), mesh.ravel()))
    words = sum(c * phi(*w) for w, c in zip(chain.words(), coeffs.ravel()))
    assert abs(chain.pair(phi) - words) <= 1e-12 * np.sum(np.abs(coeffs))


def _normalized_table_by_orbit_walk(k, n, rng):
    """The per-tuple orbit walk that `random_normalized_cochain` used."""
    sign = -1.0 if n % 2 else 1.0
    table = {}
    for tup in itertools.product(range(k), repeat=n + 1):
        if tup in table or any(g == 0 for g in tup):
            continue
        val = complex(rng.standard_normal(), rng.standard_normal())
        cur = tup
        s = 1.0
        vals = {}
        ok = True
        for _ in range(n + 1):
            if cur in vals and vals[cur] != s * val:
                ok = False
            vals[cur] = s * val
            cur = (cur[-1],) + cur[:-1]
            s *= sign
        if not ok:
            table.update({c: 0j for c in vals})
            continue
        table.update(vals)
    return table


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_random_normalized_cochain_matches_orbit_walk(degree):
    for seed in range(5):
        phi = random_normalized_cochain(Z5, degree,
                                        np.random.default_rng(seed))
        ref = _normalized_table_by_orbit_walk(
            5, degree, np.random.default_rng(seed))
        table = np.zeros((5,) * (degree + 1), dtype=complex)
        for tup, val in ref.items():
            table[tup] = val
        assert np.array_equal(phi.table, table)
        for tup in itertools.product(range(5), repeat=degree + 1):
            assert phi(*tup) == ref.get(tup, 0j)


# -- pairings that can fail -------------------------------------------------

def _bridge_errors(k):
    """Relative errors of the chain against the form pairing for one
    projection over Z/k, in degrees 2 and 4, with normalized cochains
    that are not closed."""
    spec = GroupSpec.cyclic(k)
    rng = np.random.default_rng(80 + k)
    p = random_projection_matrix(spec, 2, rng, rank_choices=(1, 2))
    errors = {}
    for degree, lhs, rhs in normalization_bridge(p, 2, rng):
        if degree:
            assert abs(lhs) > 1e-3
            errors[degree] = abs(lhs - rhs) / abs(lhs)
    return errors


@pytest.mark.parametrize("k", [5, 7])
def test_normalization_bridge_with_cochains_that_are_not_closed(k):
    # a closed basis cocycle over Z/k is a coboundary, so its pairing
    # with a cycle is zero on both sides; these cochains are not closed
    errors = _bridge_errors(k)
    assert max(errors.values()) <= 1e-12


@pytest.mark.parametrize("k", [5, 7])
def test_bridge_with_open_cochains_sees_a_wrong_degree_4_coefficient(
        k, monkeypatch):
    import types

    from ncindex import chern

    def factorial(j):
        # the degree-4 (k = 2) coefficient of chern_even, times 3
        return math.factorial(j) / (3 if j == 2 else 1)

    monkeypatch.setattr(chern, "math", types.SimpleNamespace(
        factorial=factorial))
    errors = _bridge_errors(k)
    assert errors[2] <= 1e-12
    assert errors[4] > 1.0


def _odd_bridge_errors(k):
    """Relative errors of the odd character of a constant unitary U over
    Z/k against its chain tr (U* (x) U)^{(x) j}, in degrees 1 and 3, with
    normalized cochains that are not closed."""
    from ncindex.chern import chern_odd

    spec = GroupSpec.cyclic(k)
    rng = np.random.default_rng(100 + k)
    U = random_unitary_matrix(spec, 2, rng)
    grid = CircleGrid(4)
    u = MixedForm.zero(grid, spec, 2, kalg=6)
    u.add_term(ScalarForm.one(grid), (U,))
    ch = chern_odd(u, 2)
    # E[a, b, g]: the coefficient of g in the (a, b) entry
    factors = []
    for x in (U.star(), U):
        E = np.zeros((2, 2, k), dtype=complex)
        for g, blk in x.parts.items():
            E[:, :, g] = blk
        factors.append(E)
    errors = {}
    for j in (1, 2):
        slots = 2 * j
        operands = []
        for s in range(slots):
            operands += [factors[s % 2], [s, (s + 1) % slots, slots + s]]
        chain = CyclicChain(spec, spec.elements(), np.einsum(
            *operands, list(range(slots, 2 * slots))))
        psi = random_normalized_cochain(spec, slots - 1, rng)
        lhs = ((-1 / (2j * np.pi)) ** j * math.factorial(j - 1)
               / math.factorial(2 * j - 1) * chain.pair(psi))
        rhs = pair_cochain_form(psi, ch).component(())
        assert abs(lhs) > 1e-4
        errors[slots - 1] = np.max(np.abs(lhs - rhs)) / abs(lhs)
    return errors


@pytest.mark.parametrize("k", [5, 7])
def test_odd_bridge_with_cochains_that_are_not_closed(k):
    errors = _odd_bridge_errors(k)
    assert max(errors.values()) <= 1e-12


@pytest.mark.parametrize("k", [5, 7])
def test_odd_bridge_sees_a_wrong_degree_3_coefficient(k, monkeypatch):
    import types

    from ncindex import chern

    def factorial(j):
        # the degree-3 (k = 2) coefficient of chern_odd, divided by 3
        return math.factorial(j) * (3 if j == 3 else 1)

    monkeypatch.setattr(chern, "math", types.SimpleNamespace(
        factorial=factorial))
    errors = _odd_bridge_errors(k)
    assert errors[1] <= 1e-12
    assert errors[3] > 0.5


# -- orbit cochains hold one value per orbit ---------------------------------

def test_closed_cocycle_basis_z9_degree4_holds_under_16_mb():
    import tracemalloc

    tracemalloc.start()
    try:
        basis = closed_cocycle_basis(GroupSpec.cyclic(9), 4)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(basis) == 100
    assert held < 16 * 2 ** 20


def test_closed_cocycle_basis_z11_degree4_peaks_under_128_mb():
    import tracemalloc

    tracemalloc.start()
    try:
        basis = closed_cocycle_basis(GroupSpec.cyclic(11), 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2 ** 20
    assert len(basis) == 205
    rng = np.random.default_rng(61)
    for phi in basis:
        bt = b_transpose(phi)
        for _ in range(40):
            tail = rng.integers(1, 11, 5)
            tup = (int(-tail.sum() % 11),) + tuple(int(g) for g in tail)
            assert abs(bt(*tup)) <= 1e-10


def test_random_closed_cocycle_z7_degree4_peaks_under_4_mb():
    import tracemalloc

    z7 = GroupSpec.cyclic(7)
    basis = closed_cocycle_basis(z7, 4)
    tracemalloc.start()
    try:
        random_closed_cocycle(z7, 4, np.random.default_rng(90), basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
