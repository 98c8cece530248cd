"""The step and plateau families against central differences of their
own values: each returns its value and its first derivative."""

import numpy as np
import pytest

from ncindex import bumps

# central difference of S at step H: truncation H^2 / 6 max|S'''|, with
# |S'''| < 200 on (0, 1) for every family, plus rounding 2 eps / H
H = 1e-4
TOL = H ** 2 / 6 * 200 + 2 * np.finfo(float).eps / H


@pytest.mark.parametrize("family", sorted(bumps.FAMILIES))
def test_step_derivative_matches_central_difference(family):
    t = np.linspace(0.01, 0.99, 99)
    s, s1 = bumps.step(t, family)
    fd = (bumps.step(t + H, family)[0] - bumps.step(t - H, family)[0]) \
        / (2 * H)
    assert np.max(np.abs(s1 - fd)) <= TOL
    # flat outside the rise
    s, s1 = bumps.step(np.array([-0.5, 0.0, 1.0, 1.5]), family)
    assert np.array_equal(s, [0.0, 0.0, 1.0, 1.0])
    assert not s1.any()


@pytest.mark.parametrize("family", sorted(bumps.FAMILIES))
def test_plateau_derivative_matches_central_difference(family):
    left, right, width = 0.1, 0.9, 0.2
    x = np.linspace(0.11, 0.89, 79)
    val, d1 = bumps.plateau(x, left, right, width, family)
    fd = (bumps.plateau(x + H, left, right, width, family)[0]
          - bumps.plateau(x - H, left, right, width, family)[0]) / (2 * H)
    # the rise over width w scales S' by 1/w and S''' by 1/w^3
    assert np.max(np.abs(d1 - fd)) <= TOL / width ** 3
    assert np.all(val[(x > 0.31) & (x < 0.69)] == 1.0)
