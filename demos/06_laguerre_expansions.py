"""
Laguerre expansions on the half line
====================================

The same coefficient-decay story holds for expansions in normalized
Laguerre polynomials R_k = L_k / L_k(0) against x^alpha e^(-x), with an
exact step-function identity usable as a built-in cross-check and the
uniform bound |e^(-x/2) R_k(x)| <= 1 for alpha >= 0 playing the role that
|R_k| <= 1 plays on the interval.
"""

import math

import numpy as np

from fourierjacobi import (
    LaguerreStep,
    LaguerreExpDamped,
    laguerre_coefficient,
    laguerre_coefficient_series,
    step_identity_check,
    laguerre_bound_profile,
    laguerre_decay,
)

# Indicator of [0, 1].  Its first coefficient at alpha = 0 is exactly 1/e.
step = LaguerreStep((1.0,), (1.0,))
print(f"hat f(1) of the unit step at alpha = 0: "
      f"{laguerre_coefficient(step, 1, 0.0):.12f}  (1/e = {math.exp(-1):.12f})")

# The exact identity behind that: the integral of R_k over [0, a] against
# the weight equals e^(-a) a^(alpha+1) R_(k-1) at shifted parameters.
print("\nstep identity, lhs vs rhs:")
for a, k, alpha in [(0.5, 3, 0.0), (2.5, 10, 0.5), (10.0, 40, 2.0)]:
    lhs, rhs = step_identity_check(a, k, alpha)
    print(f"  a = {a:4}, k = {k:2d}, alpha = {alpha}: "
          f"|lhs - rhs| = {abs(lhs - rhs):.2e}")

# The uniform bound: sup over x of |e^(-x/2) R_k(x)|, scanned over degrees.
profile = laguerre_bound_profile(200, 1.0)
print(f"\nmax over k <= 200 of sup |e^(-x/2) R_k| at alpha = 1: "
      f"{float(np.max(profile)):.12f}")

# Tail decay for the step function: decade maxima fall.
series = np.abs(laguerre_coefficient_series(step, 512, 1.0))
print("\ndecade maxima of |hat f(k)|, step at alpha = 1:")
for lo, hi in [(16, 32), (64, 128), (256, 512)]:
    print(f"  [{lo:3d}, {hi:3d}]: {series[lo:hi + 1].max():.3e}")

rep = laguerre_decay(step, 512, 1.0)
print(f"fitted slope {rep.slope:.3f} over k in "
      f"[{rep.window[0]}, {rep.window[1]}]")

# A smooth damped profile decays much faster than any step: for e^(-x) at
# alpha = 1, hat f(k) = Gamma(2) r^k / (1+r)^(k+2) with r = 1, i.e. 2^(-(k+2)).
# Rounding leaves about 1e-16 of hat f(0) in each value, so k stops at 32.
smooth = LaguerreExpDamped((1.0,), rate=1.0)
sm = laguerre_coefficient_series(smooth, 32, 1.0)
print("\nsmooth profile e^(-x) at alpha = 1, hat f(k) against 2^(-(k+2)):")
for k in (0, 8, 16, 32):
    print(f"  k = {k:2d}: {sm[k]:.3e}  (exact {2.0 ** -(k + 2):.3e})")
