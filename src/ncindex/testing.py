"""Seeded random instance generators shared by the test suites.

Grid-dependent projections and unitaries over C[Z/k] are built through
the character decomposition: one unitary path per character sector, with
closed-form derivatives, recombined into finitely supported group-algebra
coefficients.  Idempotence and unitarity then hold pointwise by
construction, which keeps residual checks honest about the quantities
they target.
"""

from __future__ import annotations

import itertools

import numpy as np

from .cyclic import CyclicCochain, GroupCocycle, signed_orbits
from .group_algebra import GAMatrix, GroupSpec, gamatrix_from_sectors
from .nc_forms import JetFunction, MixedForm, ScalarForm

TWO_PI = 2.0 * np.pi


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


def random_trig_jet(grid, rng, band=2, order=2, real=False):
    coeffs = {}
    for m in range(-band, band + 1):
        coeffs[m] = complex(rng.standard_normal(), rng.standard_normal())
    if real:
        coeffs = {m: 0.5 * (coeffs[m] + np.conj(coeffs[-m]))
                  for m in coeffs}
    return JetFunction.trig(grid, coeffs, order)


def random_gamatrix(spec, n, rng, support=None):
    if spec.is_finite:
        pool = spec.elements()
    else:
        pool = spec.ball(2)
    if support is None:
        support = min(3, len(pool))
    idx = rng.choice(len(pool), size=support, replace=False)
    parts = {}
    for i in idx:
        parts[pool[int(i)]] = (rng.standard_normal((n, n))
                               + 1j * rng.standard_normal((n, n)))
    return GAMatrix(spec, n, parts)


def random_mixed_form(grid, spec, n, p, q, rng, kalg=5, terms=2,
                      order=2):
    """Random mixed form of pure bidegree (p, q)."""
    out = MixedForm.zero(grid, spec, n, kalg)
    for _ in range(terms):
        jet = random_trig_jet(grid, rng, order=order)
        sform = (ScalarForm(grid, {(0,): jet}) if p == 1
                 else ScalarForm.function(jet))
        word = tuple(random_gamatrix(spec, n, rng) for _ in range(q + 1))
        out.add_term(sform, word)
    return out


def _real_trig(grid, rng, band=1):
    """Real trig polynomial t(x) with (t, t', t'') arrays."""
    x = grid.points
    t = np.zeros_like(x)
    t1 = np.zeros_like(x)
    t2 = np.zeros_like(x)
    for m in range(1, band + 1):
        a, b = rng.standard_normal(2)
        w = TWO_PI * m
        t += a * np.cos(w * x) + b * np.sin(w * x)
        t1 += w * (-a * np.sin(w * x) + b * np.cos(w * x))
        t2 += w * w * (-a * np.cos(w * x) - b * np.sin(w * x))
    return t, t1, t2


def _sector_rotation_jets(grid, rng, n, order=2):
    """Entries of exp(i t(x) h) for one random hermitian h, as jets."""
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (h + h.conj().T)
    lam, vec = np.linalg.eigh(h)
    t, t1, t2 = _real_trig(grid, rng)
    entries = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            val = np.zeros(grid.shape, dtype=complex)
            d1 = np.zeros(grid.shape, dtype=complex)
            d2 = np.zeros(grid.shape, dtype=complex)
            for k in range(n):
                c = vec[a, k] * np.conj(vec[b, k])
                ph = np.exp(1j * lam[k] * t)
                val += c * ph
                d1 += c * 1j * lam[k] * t1 * ph
                d2 += c * (1j * lam[k] * t2
                           - lam[k] ** 2 * t1 ** 2) * ph
            arrays = {(0,): val, (1,): d1}
            if order >= 2:
                arrays[(2,)] = d2
            entries[a][b] = JetFunction.from_arrays(grid, arrays)
    return entries


def _jets_matmul(A, B, conj_b=False):
    n = len(A)
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            acc = None
            for k in range(n):
                rhs = B[b][k].conj() if conj_b else B[k][b]
                term = A[a][k] * rhs
                acc = term if acc is None else acc + term
            out[a][b] = acc
    return out


def _const_jets(grid, mat, order=2):
    n = mat.shape[0]
    return [[JetFunction.constant(grid, mat[a][b], order)
             for b in range(n)] for a in range(n)]


def _assemble_from_sector_jets(grid, spec, sector_entries, n, kalg):
    """Recombine per-character jet matrices into a mixed form over
    the cyclic group algebra."""
    k = spec.order
    out = MixedForm.zero(grid, spec, n, kalg)
    for m in range(k):
        for a in range(n):
            for b in range(n):
                acc = None
                for j in range(k):
                    w = np.exp(-2j * np.pi * j * m / k) / k
                    term = sector_entries[j][a][b].scale(w)
                    acc = term if acc is None else acc + term
                if acc is None or acc.is_zero():
                    continue
                out.add_term(ScalarForm.function(acc),
                             (GAMatrix.single(spec, n, a, b, m),))
    return out


def random_projection_form(grid, spec, n, rng, kalg=5, order=2):
    """Grid-dependent projection-valued mixed form over C[Z/k]."""
    k = spec.order
    sectors = []
    for j in range(k):
        u = _sector_rotation_jets(grid, rng, n, order)
        r = 1
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        _, v = np.linalg.eigh(h + h.conj().T)
        p0 = v[:, :r] @ v[:, :r].conj().T
        up = _jets_matmul(u, _const_jets(grid, p0, order))
        pup = _jets_matmul(up, u, conj_b=True)
        sectors.append(pup)
    return _assemble_from_sector_jets(grid, spec, sectors, n, kalg)


def random_unitary_form(grid, spec, n, rng, kalg=5, order=2):
    """Grid-dependent unitary-valued mixed form over C[Z/k]."""
    k = spec.order
    sectors = [_sector_rotation_jets(grid, rng, n, order)
               for _ in range(k)]
    return _assemble_from_sector_jets(grid, spec, sectors, n, kalg)


def random_alternating_cocycle(spec, degree, rng, span=12):
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
        keys = range(-2 * span, 2 * span + 1)
    table = {}
    for tup in itertools.product(keys, repeat=degree):
        table[tup] = complex(rng.standard_normal(), rng.standard_normal())

    perms = list(itertools.permutations(range(degree + 1)))

    def sign(p):
        s = 1
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                if p[i] > p[j]:
                    s = -s
        return s

    signs = [sign(p) for p in perms]

    def fn(*args):
        total = 0j
        for p, s in zip(perms, signs):
            ordered = [args[i] for i in p]
            key = tuple(diff(ordered[0], g) for g in ordered[1:])
            total += s * table.get(key, 0j)
        return total

    return GroupCocycle(spec, degree, fn)


def random_odd_winding_cocycle(rng, span=12):
    """Random degree-one alternating invariant cochain on the lattice."""
    table = {d: complex(rng.standard_normal(), rng.standard_normal())
             for d in range(1, span + 1)}
    table[0] = 0j
    for d in range(1, span + 1):
        table[-d] = -table[d]

    def fn(a, b):
        return table.get(b[0] - a[0], 0j)

    return GroupCocycle(GroupSpec.lattice(1), 1, fn)


def random_normalized_cochain(spec, degree, rng):
    """Random normalized lambda-invariant table cochain on a finite group.

    One complex value is drawn per signed orbit of the tuples without an
    identity entry, in lexicographic order, also for the orbits that are
    forced to zero.
    """
    table = {}
    tuples = itertools.product(range(1, spec.order), repeat=degree + 1)
    for members in signed_orbits(tuples, degree):
        val = complex(rng.standard_normal(), rng.standard_normal())
        table.update((tup, s * val if s else 0j)
                     for tup, s in members.items())
    return CyclicCochain.from_table(spec, degree, table)
