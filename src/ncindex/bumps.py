"""Smooth step and plateau families with closed-form derivatives.

Every family provides the step S and its first derivative as vectorized
callables; S rises from 0 at t<=0 to 1 at t>=1.  The formulas of a
family are evaluated only on the rise, 0 < t < 1, and at NaN, where S
and S' are NaN.  Partition construction, covering data and the curvature
cutoff all differentiate these analytically, so no finite differences
enter any residual.
"""

from __future__ import annotations

import numpy as np


def _rise(t, formulas):
    """(S, S') of a step at the points t: the formulas evaluated only
    where 0 < t < 1 or t is NaN, 0 below the rise and 1 above it."""
    t = np.asarray(t, dtype=float)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    s = np.zeros_like(t)
    d1 = np.zeros_like(t)
    s[hi] = 1.0
    s[mid], d1[mid] = formulas(t[mid])
    return s, d1


# each family is given by its formulas for (S, S') on the rise 0 < t < 1


def _mollifier(t):
    a = np.exp(-1.0 / t)
    b = np.exp(-1.0 / (1.0 - t))
    den = a + b
    # a' = a/t^2, b' = -b/(1-t)^2
    return a / den, a * b * (1.0 / t ** 2 + 1.0 / (1.0 - t) ** 2) / den ** 2


def _cos3(t):
    # S' = (2/5)(1 - cos 2 pi t)^3: C^6 join at the endpoints.
    w = 2.0 * np.pi * t
    s = (t - 3.0 / (4.0 * np.pi) * np.sin(w)
         + 3.0 / (20.0 * np.pi) * np.sin(2.0 * w)
         - 1.0 / (60.0 * np.pi) * np.sin(3.0 * w))
    return s, 0.4 * (1.0 - np.cos(w)) ** 3


def _poly7(t):
    # Degree-7 smoothstep, C^3 join.
    s = t ** 4 * (35.0 - 84.0 * t + 70.0 * t ** 2 - 20.0 * t ** 3)
    return s, (140.0 * t ** 3 - 420.0 * t ** 4 + 420.0 * t ** 5
               - 140.0 * t ** 6)


FAMILIES = {
    "mollifier": _mollifier,
    "raised-cosine": _cos3,
    "poly-spline": _poly7,
}


def step(t, family="mollifier"):
    """Step jets (S, S') of the named family at the points t: the value
    and the first derivative."""
    try:
        fn = FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown bump family {family!r}; "
                         f"choose from {sorted(FAMILIES)}") from None
    return _rise(t, fn)


def plateau(x, left, right, width, family="mollifier"):
    """Jets of a plateau equal to 1 on [left+width, right-width].

    Rises over [left, left+width], falls over [right-width, right]; the
    value and the first derivative are returned.  The bounds may be
    arrays that broadcast against x, one plateau each, such as an
    (n, 1) column of bounds for n rows of points.
    """
    if np.any(np.subtract(right, left) < np.multiply(2, width)):
        raise ValueError("plateau narrower than twice the rise width")
    x = np.asarray(x, dtype=float)
    su, du = step((x - left) / width, family)
    sv, dv = step((right - x) / width, family)
    return su * sv, (du * sv - su * dv) / width
