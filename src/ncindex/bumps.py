"""Smooth step and plateau families with closed-form derivatives.

Every family provides the step S and its first derivative as vectorized
callables; S rises from 0 at t<=0 to 1 at t>=1.  Partition
construction, covering data and the curvature cutoff all differentiate
these analytically, so no finite differences enter any residual.
"""

from __future__ import annotations

import numpy as np


def _mollifier(t):
    t = np.asarray(t, dtype=float)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    s = np.zeros_like(t)
    d1 = np.zeros_like(t)
    s[hi] = 1.0
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    den = a + b
    s[mid] = a / den
    # a' = a/t^2, b' = -b/(1-t)^2
    d1[mid] = a * b * (1.0 / tm ** 2 + 1.0 / (1.0 - tm) ** 2) / den ** 2
    return s, d1


def _cos3(t):
    # S' = (2/5)(1 - cos 2 pi t)^3: C^6 join at the endpoints.
    t = np.asarray(t, dtype=float)
    tc = np.clip(t, 0.0, 1.0)
    w = 2.0 * np.pi * tc
    s = (tc - 3.0 / (4.0 * np.pi) * np.sin(w)
         + 3.0 / (20.0 * np.pi) * np.sin(2.0 * w)
         - 1.0 / (60.0 * np.pi) * np.sin(3.0 * w))
    inside = (t > 0.0) & (t < 1.0)
    d1 = np.where(inside, 0.4 * (1.0 - np.cos(w)) ** 3, 0.0)
    s = np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, s))
    return s, d1


def _poly7(t):
    # Degree-7 smoothstep, C^3 join.
    t = np.asarray(t, dtype=float)
    tc = np.clip(t, 0.0, 1.0)
    s = tc ** 4 * (35.0 - 84.0 * tc + 70.0 * tc ** 2 - 20.0 * tc ** 3)
    inside = (t > 0.0) & (t < 1.0)
    d1 = np.where(inside,
                  140.0 * tc ** 3 - 420.0 * tc ** 4 + 420.0 * tc ** 5
                  - 140.0 * tc ** 6, 0.0)
    s = np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, s))
    return s, d1


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
    return fn(t)


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
