"""
Coefficient decay for integrable functions
==========================================

Expansion coefficients of an integrable function against the normalized
Jacobi family die out as the degree grows, as long as the parameters stay
in the region where |R_k| <= 1.  Watch it happen for a step function and a
short cosine polynomial, then check Parseval.
"""

import math

from fourierjacobi import (
    JacobiParams,
    StepFunction,
    CosinePoly,
    coefficient_series,
    decay_fit,
    decade_max,
    parseval_check,
    synthesize,
)

params = JacobiParams(0.5, -0.25)

# The indicator of the theta-interval [pi/3, pi/2].
step = StepFunction((math.pi / 3, math.pi / 2), (0.0, 1.0, 0.0))
series = coefficient_series(step, 1024, params)

print("step function, (alpha, beta) = (0.5, -0.25)")
print("decade maxima of |hat f(k)|:")
for lo, hi in [(16, 32), (64, 128), (256, 512), (512, 1024)]:
    print(f"  [{lo:4d}, {hi:4d}]: {decade_max(abs(series.values), lo, hi):.3e}")

rep = decay_fit(series)
print(f"log-log slope over k in [{rep.window[0]}, {rep.window[1]}]: "
      f"{rep.slope:.3f} (r^2 = {rep.r_squared:.4f})")

# A cosine polynomial of degree d is a polynomial of degree d in cos theta,
# so R_k is orthogonal to it for every k > d: its expansion is finite at any
# parameters.  One (d+1)-point Gauss rule gives hat(k) for k <= d, and every
# entry past the degree is exactly 0.
cheb = JacobiParams(-0.5, -0.5)
poly = CosinePoly((1.0, 0.5, 0.0, 0.25))
pseries = coefficient_series(poly, 64, cheb)
print("\ncosine polynomial of degree 3 at (-1/2, -1/2):")
print("  |hat f(k)| for k = 0..5: "
      + " ".join(f"{abs(v):.2e}" for v in pseries.values[:6]))
print(f"  max |hat f(k)| past the degree: "
      f"{max(abs(v) for v in pseries.values[4:]):.2e}")

# Partial sums reproduce the function where it is smooth.
theta = 1.0
print(f"\nsynthesis of the cosine polynomial at theta = {theta}:")
print(f"  partial sum  = {synthesize(pseries, theta):.12f}")
print(f"  actual value = {poly(theta):.12f}")

# Parseval: sum of h_k hat(k)^2 approaches the squared norm from below.
print("\nParseval gap for the step function at (0, 0):")
for kmax in (128, 512):
    r = parseval_check(step, JacobiParams(0.0, 0.0), kmax)
    print(f"  kmax = {kmax:4d}: partial = {r.partial_sum:.10f}, "
          f"norm^2 = {r.norm_sq:.10f}, relative gap = {r.rel_gap:.2e}")
