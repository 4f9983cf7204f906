"""
The continuous Jacobi transform
===============================

The half-line analogue of the expansion story: the Jacobi function
phi_tau(t) generalizes cos(tau t), the transform integrates a profile
against it with the sinh/cosh weight, and the transform of an integrable
profile vanishes as the frequency tau grows.  At (-1/2, -1/2) the whole
machine collapses to the cosine transform, which makes for a sharp
end-to-end test.
"""

import math

import numpy as np

from fourierjacobi import (
    JacobiParams,
    Indicator,
    LaguerreExpDamped,
    jacobi_function,
    transform,
    transform_sweep,
    envelope_check,
)

params = JacobiParams(0.5, 0.0)

# phi_0(0) = 1; larger tau or t pushes the value down.
print("phi_tau(t) at (alpha, beta) = (0.5, 0):")
for tau in (0.0, 1.0, 5.0):
    row = " ".join(f"{jacobi_function(tau, t, params):+.6f}"
                   for t in (0.1, 1.0, 3.0))
    print(f"  tau = {tau:4}: {row}")

# Cosine reduction at (-1/2, -1/2).
cheb = JacobiParams(-0.5, -0.5)
print(f"\nphi_3(1.2) at (-1/2, -1/2) = "
      f"{jacobi_function(3.0, 1.2, cheb):+.12f}")
print(f"cos(3.6)                   = {math.cos(3.6):+.12f}")

# The transform of an indicator at the cosine parameters has a closed form.
f = Indicator(1.0, 2.0)
tau = 2.0
got = transform(f, tau, cheb)
want = math.sqrt(2 / math.pi) * (math.sin(2 * tau) - math.sin(tau)) / tau
print(f"\nindicator transform at (-1/2, -1/2), tau = 2:")
print(f"  computed    {got:+.12f}")
print(f"  closed form {want:+.12f}")

# Vanishing at infinity: sweep the indicator transform over tau and compare
# a low band with a high band.
taus_low = np.linspace(5.0, 10.0, 11)
taus_high = np.linspace(200.0, 220.0, 11)
low = np.abs(transform_sweep(f, taus_low, params))
high = np.abs(transform_sweep(f, taus_high, params))
print(f"\nindicator at (0.5, 0): max |J f| over tau in [5, 10]    = "
      f"{low.max():.3e}")
print(f"                       max |J f| over tau in [200, 220] = "
      f"{high.max():.3e}")

# A profile with enough exponential decay also has a transform at every
# frequency; the transform checks that rate exceeds 2(alpha + beta + 1).
g = LaguerreExpDamped((1.0,), rate=4.0)
print(f"\nexp-decay profile: J g(0) = {transform(g, 0.0, params):+.8f},"
      f" J g(3) = {transform(g, 3.0, params):+.8f}")

# The envelope |phi_tau(t)| <= C (1+t) e^(-(alpha+beta+1) t): calibrate the
# smallest C on a grid, then verify on a finer one.
rep = envelope_check(params, t_grid=np.linspace(0.0, 12.0, 25),
                     tau_grid=np.linspace(0.0, 30.0, 31))
print(f"\nenvelope constant at (0.5, 0): C* = {rep.c_star:.4f},"
      f" verified on the finer grid: {rep.verified}")
