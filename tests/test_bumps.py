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


# -- the rise alone is evaluated ---------------------------------------------

def _whole_array_step(t, family):
    """The raised-cosine and poly-spline steps as formulas over the whole
    clipped array, masked afterwards: the reference for the rise-only
    evaluation."""
    t = np.asarray(t, dtype=float)
    tc = np.clip(t, 0.0, 1.0)
    if family == "raised-cosine":
        w = 2.0 * np.pi * tc
        s = (tc - 3.0 / (4.0 * np.pi) * np.sin(w)
             + 3.0 / (20.0 * np.pi) * np.sin(2.0 * w)
             - 1.0 / (60.0 * np.pi) * np.sin(3.0 * w))
        d1 = 0.4 * (1.0 - np.cos(w)) ** 3
    else:
        s = tc ** 4 * (35.0 - 84.0 * tc + 70.0 * tc ** 2 - 20.0 * tc ** 3)
        d1 = (140.0 * tc ** 3 - 420.0 * tc ** 4 + 420.0 * tc ** 5
              - 140.0 * tc ** 6)
    inside = (t > 0.0) & (t < 1.0)
    return (np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, s)),
            np.where(inside, d1, 0.0))


@pytest.mark.parametrize("family", ["raised-cosine", "poly-spline"])
def test_rise_only_steps_equal_the_whole_array_formulas(family):
    rng = np.random.default_rng(16)
    t = np.concatenate([
        rng.uniform(-0.5, 1.5, 4096), np.linspace(-1e-300, 1e-300, 9),
        [0.0, -0.0, 1.0, 5e-324, -5e-324, np.nextafter(1.0, 0.0),
         np.nextafter(1.0, 2.0), np.inf, -np.inf]])
    for points in (t, t[:4095].reshape(3, 1365)):
        got = bumps.step(points, family)
        want = _whole_array_step(points, family)
        for g, w in zip(got, want):
            assert g.shape == points.shape and g.dtype == np.float64
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("family", sorted(bumps.FAMILIES))
def test_a_nan_point_steps_to_nan(family):
    s, s1 = bumps.step(np.array([0.5, np.nan, -1.0, 2.0]), family)
    assert np.isnan(s[1]) and np.isnan(s1[1])
    assert np.isfinite(np.delete(s, 1)).all()
    assert np.array_equal(s[2:], [0.0, 1.0]) and not s1[2:].any()
