import warnings

import numpy as np
import pytest

from ncindex import chern
from ncindex.chern import (ProjectionPath, bott_integral, bott_projector,
                           chern_even, chern_homotopy_defect, chern_odd,
                           closedness_defect)
from ncindex.cyclic import closed_cocycle_basis, pair_cochain_form
from ncindex.errors import NotAProjection, NotUnitary
from ncindex.group_algebra import GAMatrix, GroupSpec
from ncindex.nc_forms import (ChartGrid2D, CircleGrid, JetFunction,
                              MixedForm, ScalarForm)
from ncindex.testing import random_projection_form, random_unitary_form

GRID = CircleGrid(12)
Z3 = GroupSpec.cyclic(3)


def constant_projection(rank, size, spec=Z3, grid=GRID):
    mat = np.zeros((size, size), dtype=complex)
    mat[:rank, :rank] = np.eye(rank)
    P = MixedForm.zero(grid, spec, size, 4)
    P.add_term(ScalarForm.one(grid), (GAMatrix(spec, size,
                                               {spec.identity(): mat}),))
    return P


def phase_unitary(grid, m, spec=None):
    spec = spec or GroupSpec.trivial()
    u = MixedForm.zero(grid, spec, 1, 4)
    u.add_term(ScalarForm.function(JetFunction.trig(grid, {-m: 1.0})),
               (GAMatrix.identity(spec, 1),))
    return u


def test_constant_projection_character():
    ch = chern_even(constant_projection(2, 3), 2)
    assert np.max(np.abs(ch.scalar_part().component(()) - 2.0)) <= 1e-13
    assert ch.components() == [(0, 0)]


def test_chern_even_rejects_non_projection():
    bad = constant_projection(2, 3)
    bad = bad.scale(0.7)
    with pytest.raises(NotAProjection):
        chern_even(bad, 1)


def test_bott_normalization():
    assert abs(bott_integral(64) - 1.0) <= 2e-3
    assert abs(bott_integral(128) - 1.0) <= 2e-4


@pytest.mark.parametrize("family", ["mollifier", "raised-cosine",
                                    "poly-spline"])
@pytest.mark.parametrize("n, tol", [(63, 2e-3), (65, 2e-3), (127, 2e-4)])
def test_bott_normalization_on_odd_grids(family, n, tol):
    # an odd chart grid has its centre on a grid point, where the field
    # takes its limits n = (0, 0, 1) with zero derivatives
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        jets = chern._sphere_field(ChartGrid2D(n), family=family)
        val = bott_integral(n, family=family)
    c = n // 2
    assert [jets[k].stack[:, c, c].tolist() for k in ("n1", "n2", "n3")] \
        == [[0j, 0j, 0j], [0j, 0j, 0j], [1 + 0j, 0j, 0j]]
    assert abs(val - 1.0) <= tol


def test_bott_projector_is_projection():
    grid = ChartGrid2D(32)
    P = bott_projector(grid)
    assert (P @ P - P).max_abs() <= 1e-12
    assert (P.star() - P).max_abs() <= 1e-12


def test_chern_odd_identity_vanishes():
    one = MixedForm.one(GRID, Z3, 2, 4)
    assert chern_odd(one, 2).max_abs() <= 1e-13


def test_chern_odd_rejects_non_unitary(monkeypatch):
    bad = MixedForm.one(GRID, Z3, 2, 4).scale(1.2)
    message = f"unitarity residual {chern.unitary_residual(bad):.3g} > 1e-08"
    real = chern.unitary_residual
    calls = []

    def counted(u):
        calls.append(u)
        return real(u)

    monkeypatch.setattr(chern, "unitary_residual", counted)
    with pytest.raises(NotUnitary) as excinfo:
        chern_odd(bad, 1)
    # the residual is computed once, for the test and for the message
    assert len(calls) == 1
    assert str(excinfo.value) == message


@pytest.mark.parametrize("m", [-2, -1, 1, 3])
def test_chern_odd_winding(m):
    grid = CircleGrid(64)
    u = phase_unitary(grid, m)
    val = chern_odd(u, 1).scalar_part().integrate()
    assert abs(val - m) <= 1e-10


def test_chern_odd_first_coefficient_matches_derivation_trace():
    # k = 1 coefficient is -1/(2 pi i): the loop x -> e^{-2 pi i x}
    # integrates to +1, the same number the dynamical-system trace
    # formula produces for the corresponding symbol
    grid = CircleGrid(64)
    val = chern_odd(phase_unitary(grid, 1), 1).scalar_part().integrate()
    from ncindex.toeplitz import CircleSystem, dynsys_formula

    sys_c = CircleSystem(64)
    assert abs(val - dynsys_formula(sys_c, sys_c.exponential(1))) <= 1e-10


def test_characters_are_closed_observably():
    rng = np.random.default_rng(0)
    cocycles = []
    for q in (2, 3):
        cocycles.extend(closed_cocycle_basis(Z3, q))
    P = random_projection_form(GRID, Z3, 2, rng, kalg=4)
    assert closedness_defect(chern_even(P, 1), cocycles) <= 1e-9
    u = random_unitary_form(GRID, Z3, 2, rng, kalg=4)
    assert closedness_defect(chern_odd(u, 2), cocycles) <= 1e-9


def _direct_sum(blocks, kalg):
    """Block-diagonal 4x4 form from 2x2 algebra-degree-0 forms, one
    add_term per matrix entry of each (group tuple, axes) entry."""
    direct = MixedForm.zero(GRID, Z3, 4, kalg)
    for src, off in blocks:
        for (g,), axes, x in src.entries():
            for i in range(2):
                for j in range(2):
                    jet = JetFunction.from_stack(GRID, x[i, j])
                    direct.add_term(
                        ScalarForm(GRID, {axes: jet}),
                        (GAMatrix.single(Z3, 4, off + i, off + j, g),))
    return direct


def test_character_additive_on_direct_sums():
    rng = np.random.default_rng(1)
    Pa = random_projection_form(GRID, Z3, 2, rng, kalg=4)
    Pb = random_projection_form(GRID, Z3, 2, rng, kalg=4)
    direct = _direct_sum(((Pa, 0), (Pb, 2)), 4)
    lhs = chern_even(direct, 1)
    rhs = chern_even(Pa, 1) + chern_even(Pb, 1)
    assert (lhs - rhs).max_abs() <= 1e-10


def test_odd_character_additive_on_direct_sums():
    rng = np.random.default_rng(6)
    ua = random_unitary_form(GRID, Z3, 2, rng, kalg=3)
    ub = random_unitary_form(GRID, Z3, 2, rng, kalg=3)
    direct = _direct_sum(((ua, 0), (ub, 2)), 3)
    lhs = chern_odd(direct, 1)
    rhs = chern_odd(ua, 1) + chern_odd(ub, 1)
    assert (lhs - rhs).max_abs() <= 1e-10


def test_homotopy_defect_constant_path():
    rng = np.random.default_rng(2)
    P = random_projection_form(GRID, Z3, 2, rng, kalg=4)
    phi = closed_cocycle_basis(Z3, 2)[0]
    assert chern_homotopy_defect(ProjectionPath([P, P]), phi) == 0.0


def test_homotopy_defect_rotation_path():
    rng = np.random.default_rng(3)
    P = random_projection_form(GRID, Z3, 2, rng, kalg=4)
    u = random_unitary_form(GRID, Z3, 2, rng, kalg=4)
    path = ProjectionPath([P, u @ P @ u.star()])
    phi = closed_cocycle_basis(Z3, 2)[0]
    assert chern_homotopy_defect(path, phi) <= 1e-7


def test_projection_path_precondition():
    rng = np.random.default_rng(4)
    P = random_projection_form(GRID, Z3, 2, rng, kalg=4)
    with pytest.raises(NotAProjection):
        ProjectionPath([P, P.scale(0.9)])


def test_conjugation_invariant_pairings():
    rng = np.random.default_rng(5)
    P = random_projection_form(GRID, Z3, 2, rng, kalg=4)
    u = random_unitary_form(GRID, Z3, 2, rng, kalg=4)
    chP = chern_even(P, 1)
    chQ = chern_even(u @ P @ u.star(), 1)
    for phi in closed_cocycle_basis(Z3, 2):
        a = pair_cochain_form(phi, chP).integrate()
        b = pair_cochain_form(phi, chQ).integrate()
        assert abs(a - b) <= 1e-8
