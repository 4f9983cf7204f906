"""
Weighted Gauss rules
====================

The quadrature module builds Gauss-Jacobi, Gauss-Legendre, and
Gauss-Laguerre rules from the classical recurrence coefficients, plus a
transplanted Jacobi rule for a finite interval with endpoint singularities.
"""

import math

import numpy as np

from fourierjacobi import (
    gauss_jacobi_rule,
    gauss_legendre_rule,
    gauss_laguerre_rule,
    mapped_jacobi_rule,
)

# Gauss-Jacobi: integrates f(x) (1-x)^a (1+x)^b over [-1, 1].
rule = gauss_jacobi_rule(12, 0.5, -0.25)
mass = float(np.sum(rule.weights))
print(f"Gauss-Jacobi(12; 0.5, -0.25) weight sum = {mass:.12f}")
print(f"  closed form 2^1.25 B(1.5, 0.75)      = "
      f"{2 ** 1.25 * math.gamma(1.5) * math.gamma(0.75) / math.gamma(2.25):.12f}")

# An n-point rule is exact through polynomial degree 2n-1.
rule20 = gauss_jacobi_rule(20, 0.0, 0.0)
print(f"\n20-point rule on x^38: {rule20.apply(lambda x: x ** 38):.15f}"
      f"  (exact 2/39 = {2 / 39:.15f})")

# Half-line: integrate x^3 against x^2 e^(-x), which is Gamma(6) = 120.
lag = gauss_laguerre_rule(15, 2.0)
print(f"\nGauss-Laguerre(15; 2) moment of x^3 = "
      f"{lag.apply(lambda x: x ** 3):.10f}")

# Legendre on [-1, 1], then transplanted to [2, 5] with a -1/2 singularity
# at the left endpoint: integral of (x-2)^(-1/2) cos x.
leg = gauss_legendre_rule(24)
print(f"\nGauss-Legendre(24) on cos: {leg.apply(np.cos):.12f}"
      f"  (2 sin 1 = {2 * math.sin(1):.12f})")

shifted = mapped_jacobi_rule(40, 0.0, -0.5, 2.0, 5.0)
print(f"singular endpoint integral on [2,5]: {shifted.apply(np.cos):.10f}")

# converge_doubling() grows a rule until two consecutive sizes agree.
from fourierjacobi import converge_doubling

value = converge_doubling(
    lambda n: gauss_jacobi_rule(n, 0.0, -0.5).apply(np.exp), n0=8)
print(f"\nintegral of e^x (1+x)^(-1/2) over [-1,1]: {value:.12f}")
