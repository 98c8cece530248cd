"""Seeded random instance generators shared by the test suites.

Grid-dependent projections and unitaries over C[Z/k] are built through
the character decomposition: one unitary path per character sector, with
closed-form derivatives, held as one (n, n, J, G) array of jets per
sector.  One inverse DFT over the sectors recombines them into the
group-algebra coefficients.  Idempotence and unitarity then hold
pointwise by construction, which keeps residual checks honest about the
quantities they target.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .chern import chern_even
from .cyclic import (CyclicCochain, GroupCocycle, chern_lambda, orbit_index,
                     pair_cochain_form)
from .group_algebra import GAMatrix, GroupSpec, gamatrix_from_sectors
from .nc_forms import (CircleGrid, JetFunction, MixedForm, ScalarForm,
                       _jet_mul)

TWO_PI = 2.0 * np.pi

#: random lattice cochains vanish past this step (alternating ones: twice it)
_LATTICE_SPAN = 12


def random_projection_matrix(spec, n, rng, rank_choices=(1,)):
    """Random self-adjoint idempotent in M_n(C[Z/k])."""
    k = spec.order
    sectors = np.zeros((k, n, n), dtype=complex)
    for j in range(k):
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = h + h.conj().T
        _, v = np.linalg.eigh(h)
        r = int(rng.choice(rank_choices))
        sectors[j] = v[:, :r] @ v[:, :r].conj().T
    return gamatrix_from_sectors(spec, sectors)


def random_unitary_matrix(spec, n, rng):
    k = spec.order
    sectors = np.zeros((k, n, n), dtype=complex)
    for j in range(k):
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sectors[j] = np.linalg.qr(h)[0]
    return gamatrix_from_sectors(spec, sectors)


def random_trig_jet(grid, rng):
    coeffs = {m: complex(rng.standard_normal(), rng.standard_normal())
              for m in range(-2, 3)}
    return JetFunction.trig(grid, coeffs, 2)


def random_gamatrix(spec, n, rng):
    pool = spec.elements() if spec.is_finite else spec.ball(2)
    idx = rng.choice(len(pool), size=min(3, len(pool)), replace=False)
    parts = {}
    for i in idx:
        parts[pool[int(i)]] = (rng.standard_normal((n, n))
                               + 1j * rng.standard_normal((n, n)))
    return GAMatrix(spec, n, parts)


def random_mixed_form(grid, spec, n, p, q, rng, kalg=5):
    """Random mixed form of pure bidegree (p, q), a sum of two terms."""
    out = MixedForm.zero(grid, spec, n, kalg)
    for _ in range(2):
        jet = random_trig_jet(grid, rng)
        sform = (ScalarForm(grid, {(0,): jet}) if p == 1
                 else ScalarForm.function(jet))
        word = tuple(random_gamatrix(spec, n, rng) for _ in range(q + 1))
        out.add_term(sform, word)
    return out


def _real_trig(grid, rng):
    """Real trig polynomial t = a cos(2 pi x) + b sin(2 pi x) with
    (t, t', t'') arrays."""
    a, b = rng.standard_normal(2)
    cos, sin = np.cos(TWO_PI * grid.points), np.sin(TWO_PI * grid.points)
    return (a * cos + b * sin, TWO_PI * (-a * sin + b * cos),
            TWO_PI * TWO_PI * (-a * cos - b * sin))


def _rotation_sector(grid, rng, n):
    """Jets of exp(i t(x) h) for one random hermitian h, as an
    (n, n, J, G) array."""
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    lam, vec = np.linalg.eigh(0.5 * (h + h.conj().T))
    t, t1, t2 = _real_trig(grid, rng)
    lam = lam[:, None]
    ph = np.exp(1j * lam * t)
    jets = np.stack([ph, 1j * lam * t1 * ph,
                     (1j * lam * t2 - lam ** 2 * t1 ** 2) * ph], axis=1)
    return np.einsum("ak,bk,kjg->abjg", vec, vec.conj(), jets)


def _from_sectors(grid, spec, sectors, n, kalg):
    """Mixed form over C[Z/k] with the character sectors (k, n, n, J, G):
    the coefficient of m is the inverse DFT sum_j e^{-2 pi i jm/k} s_j / k."""
    coeffs = np.fft.fft(sectors, axis=0) / spec.order
    out = MixedForm.zero(grid, spec, n, kalg)
    out.add_entries(((m,), (), x) for m, x in enumerate(coeffs))
    return out


def random_projection_form(grid, spec, n, rng, kalg=5):
    """Grid-dependent projection-valued mixed form over C[Z/k]."""
    sectors = []
    for _ in range(spec.order):
        u = _rotation_sector(grid, rng, n)
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        _, v = np.linalg.eigh(h + h.conj().T)
        # u p0 u* with the rank-one p0 = v_0 v_0*
        uv = np.einsum("akjg,k->ajg", u, v[:, 0])[:, None]
        sectors.append(_jet_mul(uv, uv.conj().swapaxes(0, 1), grid.ndim))
    return _from_sectors(grid, spec, np.stack(sectors), n, kalg)


def random_unitary_form(grid, spec, n, rng, kalg=5):
    """Grid-dependent unitary-valued mixed form over C[Z/k]."""
    sectors = [_rotation_sector(grid, rng, n) for _ in range(spec.order)]
    return _from_sectors(grid, spec, np.stack(sectors), n, kalg)


def random_alternating_cocycle(spec, degree, rng):
    """Random alternating invariant group cochain (not closed).

    Built by antisymmetrizing an invariant table over all argument
    permutations; exact for roundtrip tests since evaluation is pure
    table lookup and summation in a fixed order.
    """
    if spec.family == "cyclic":
        def diff(a, b):
            return (b - a) % spec.order
        keys = range(spec.order)
    else:
        def diff(a, b):
            return b[0] - a[0]
        keys = range(-2 * _LATTICE_SPAN, 2 * _LATTICE_SPAN + 1)
    table = {}
    for tup in itertools.product(keys, repeat=degree):
        table[tup] = complex(rng.standard_normal(), rng.standard_normal())

    perms = list(itertools.permutations(range(degree + 1)))
    # the sign of a permutation is the parity of its inversions
    signs = [(-1) ** sum(a > b for a, b in itertools.combinations(p, 2))
             for p in perms]

    def fn(*args):
        total = 0j
        for p, s in zip(perms, signs):
            ordered = [args[i] for i in p]
            key = tuple(diff(ordered[0], g) for g in ordered[1:])
            total += s * table.get(key, 0j)
        return total

    return GroupCocycle(spec, degree, fn)


def random_odd_winding_cocycle(rng):
    """Random degree-one alternating invariant cochain on the lattice."""
    table = {d: complex(rng.standard_normal(), rng.standard_normal())
             for d in range(1, _LATTICE_SPAN + 1)}
    table[0] = 0j
    for d in range(1, _LATTICE_SPAN + 1):
        table[-d] = -table[d]

    def fn(a, b):
        return table.get(b[0] - a[0], 0j)

    return GroupCocycle(GroupSpec.lattice(1), 1, fn)


def random_normalized_cochain(spec, degree, rng):
    """Random normalized lambda-invariant orbit cochain on a finite group.

    One complex value is drawn per signed orbit of the tuples without an
    identity entry, in lexicographic order, also for the orbits that are
    forced to zero.
    """
    count, _, _ = orbit_index(spec.order, degree)
    vals = rng.standard_normal((count, 2)).view(complex)[:, 0]
    return CyclicCochain.on_orbits(spec, degree, vals)


def normalization_bridge(p, m_max, rng):
    """Both sides of the normalization bridge of a projection p over Z/k.

    Yields (degree, lhs, rhs): in degree 0 the canonical trace of the
    chain and of the character form of the constant p on CircleGrid(4);
    in degree 2m, m = 1..m_max, the chain pairing with a fresh
    `random_normalized_cochain` (not closed, so the pairing need not
    vanish) and (2 pi i)^m m! times the form pairing.
    """
    spec = p.spec
    grid = CircleGrid(4)
    P = MixedForm.zero(grid, spec, p.n, kalg=2 * m_max + 2)
    P.add_term(ScalarForm.one(grid), (p,))
    ch = chern_even(P, m_max)
    chains = chern_lambda(p, m_max)
    yield (0, chains[0].terms.get((spec.identity(),), 0j),
           ch.scalar_part().component(())[0])
    for m in range(1, m_max + 1):
        psi = random_normalized_cochain(spec, 2 * m, rng)
        yield (2 * m, chains[m].pair(psi),
               (2j * np.pi) ** m * math.factorial(m)
               * pair_cochain_form(psi, ch).component(())[0])
