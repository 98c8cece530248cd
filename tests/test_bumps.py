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


@pytest.mark.parametrize("family", sorted(bumps.FAMILIES))
def test_plateau_with_array_bounds_is_the_per_arc_plateaus(family):
    # one call over an (n, G) array of points, with (n, 1) bounds, is
    # the n calls with scalar bounds, bit for bit
    left = np.array([[-0.1], [0.2], [0.55]])
    right = np.array([[0.45], [0.8], [1.1]])
    width = 0.3 * (right - left)
    x = np.linspace(-0.2, 1.2, 3 * 97).reshape(3, 97)
    val, d1 = bumps.plateau(x, left, right, width, family)
    for i in range(3):
        v, d = bumps.plateau(x[i], float(left[i, 0]), float(right[i, 0]),
                             float(width[i, 0]), family)
        assert val[i].tobytes() == v.tobytes()
        assert d1[i].tobytes() == d.tobytes()


def test_one_narrow_plateau_among_many_raises():
    left = np.array([[0.0], [0.2], [0.5]])
    right = np.array([[0.4], [0.3], [0.9]])
    width = np.array([[0.1], [0.06], [0.1]])  # the second is too narrow
    with pytest.raises(ValueError, match="narrower"):
        bumps.plateau(np.zeros((3, 4)), left, right, width)
    width[1, 0] = 0.04
    bumps.plateau(np.zeros((3, 4)), left, right, width)
