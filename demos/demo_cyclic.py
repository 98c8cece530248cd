#!/usr/bin/env python3
"""Cyclic cochains: the dictionary with group cochains is an exact
isomorphism of complexes, and the cyclic character chains of a projection
pair with normalized cochains (not closed, so the pairings need not
vanish) exactly as the character form does, up to the (2 pi i)^m m!
normalization."""

import itertools

import numpy as np

from ncindex import (GroupSpec, b_transpose, c_to_tau, closed_cocycle_basis,
                     d_gamma, tau_to_c)
from ncindex.testing import (normalization_bridge, random_alternating_cocycle,
                             random_projection_matrix)

z5 = GroupSpec.cyclic(5)
rng = np.random.default_rng(3)

print("=== dictionary roundtrip and chain-map property on Z/5 ===")
tau = random_alternating_cocycle(z5, 2, rng)
back = c_to_tau(tau_to_c(tau))
worst = max(abs(tau(*t) - back(*t))
            for t in itertools.product(range(5), repeat=3))
print("roundtrip residual :", worst)
lhs = tau_to_c(d_gamma(tau))
rhs = b_transpose(tau_to_c(tau))
worst = max(abs(lhs(*t) - rhs(*t))
            for t in itertools.product(range(5), repeat=4))
print("chain-map residual :", worst)

print()
print("=== closed cocycles as the image of b^t ===")
for q in (2, 3, 4):
    print(f"  degree {q}: kernel dimension",
          len(closed_cocycle_basis(z5, q)))

print()
print("=== normalization bridge for a random projection "
      "(degree 0: the canonical trace) ===")
p = random_projection_matrix(z5, 2, rng)
for degree, lhs, rhs in normalization_bridge(p, 2, rng):
    print(f"degree {degree}: chain pairing {lhs:.6g}, scaled form pairing "
          f"{rhs:.6g}, difference {abs(lhs - rhs):.3g}")
