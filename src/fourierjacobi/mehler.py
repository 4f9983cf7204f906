"""Integral-representation pathway for R_k(cos theta), independent of the recurrence.

Two formulas are implemented: the cosine-kernel integral with an algebraic
endpoint singularity for alpha > -1/2, and its alpha -> -1/2 limit, with a
separate non-integral leading term.  Both cross-check the recurrence values,
which share no code with this module.

The singular kernel is integrated in phi on two panels (_singular_rule): an
n-point Gauss-Legendre bulk on [0, (1 - _SPLIT) theta] and an n // 4-point
Gauss-Jacobi end panel that carries the end power.  The bulk, like the limit
form's Legendre rule on [0, theta], depends on no exponent, so every
parameter pair shares its cached sizes and builds only its small end rules.

Both formulas, like the kernel of the continuous transform in jtransform
(the hyperbolic form of the same integral), reduce to nodes S and amplitudes
A with value(lambda) = A @ cos(lambda S), where lambda = k + (alpha+beta+1)/2.
The kernel data is built once per parameter set, angle and rule size and
reused for every degree k; only the cosine factor is formed per degree.

One evaluator, _cosine_sum, sums every such kernel.  A single lambda (each
Mehler value), a short grid or an uneven one is summed directly,
cos(outer(lambdas, S)) @ A.  An evenly spaced grid of m frequencies, as the
transform sweeps take, is split by angle addition into blocks of
b = ceil(sqrt m) steps: about 4 sqrt(m) cosines and sines per node instead
of m, used whenever that count is below m.
"""

import math
from functools import lru_cache
from math import lgamma, exp, cos, sin

import numpy as np

from .specfun import JacobiParams, PolyValue, _check_degree, _hyp2f1_array
from .quadrature import _SPLIT, mapped_jacobi_rule, converge_doubling, ladder_size

__all__ = ["mehler_r", "mehler_limit_r", "kernel_mass_h"]

_THETA_MIN = 1e-6

# Kernel data kept per (parameters, theta, rule size).  A sweep over degrees
# at one angle touches only a few sizes, so this holds many angles' worth.
_KERNEL_CACHE_SIZE = 128

# A frequency grid counts as evenly spaced to within this fraction (8 ulps)
# of its largest value.
_GRID_RTOL = 8.0 * np.finfo(float).eps


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not _THETA_MIN < theta < math.pi - _THETA_MIN:
        raise ValueError(f"theta must lie in ({_THETA_MIN}, pi - {_THETA_MIN})")
    return theta


def _cosine_sum(s: np.ndarray, amp: np.ndarray, lams) -> np.ndarray:
    """A @ cos(lambda S) at every lambda in lams.

    An evenly spaced grid lambda_j = lambda_0 + j h of m values is summed by
    angle addition: with b = ceil(sqrt m), q = ceil(m / b) and j = i b + r,
        cos(lambda_j S) = cos(H_i S) cos(r h S) - sin(H_i S) sin(r h S),
    H_i = lambda_0 + i b h, so the sums are two (q x n) @ (n x b) products
    and each node needs 2 (b + q) cosines and sines instead of m.  The grid
    is taken as evenly spaced when every lambda is within 8 ulps of
    max|lambda| of lambda_0 + j h.  Any other input, and any grid too short
    for the split to save trig calls (2 (b + q) >= m, a single lambda
    included), is summed directly, cos(outer(lams, S)) @ A.
    """
    m = len(lams)
    b = math.isqrt(m - 1) + 1 if m else 1
    q = -(-m // b)
    if 2 * (b + q) < m:
        lams = np.asarray(lams, dtype=float)
        h = (lams[-1] - lams[0]) / (m - 1)
        off = np.max(np.abs(lams - (lams[0] + h * np.arange(m))))
        if off <= _GRID_RTOL * np.max(np.abs(lams)):
            hs = np.outer(lams[0] + h * np.arange(0, q * b, b), s)
            rs = np.outer(h * np.arange(b), s)
            out = (np.cos(hs) * amp) @ np.cos(rs).T - (np.sin(hs) * amp) @ np.sin(rs).T
            return out.ravel()[:m]
    return np.cos(np.outer(lams, s)) @ amp


def _singular_rule(theta: float, alpha: float, n: int):
    """Nodes phi in (0, theta), gaps cos phi - cos theta (a product of sines, to
    keep their low bits near theta) and weights against gap^(alpha - 1/2) dphi:
    a rule for (theta - phi)^(alpha - 1/2) times (gap / (theta - phi))^(alpha - 1/2).

    Two panels meet at theta_c = (1 - _SPLIT) theta.  The bulk [0, theta_c]
    takes n Gauss-Legendre nodes with (theta - phi)^(alpha - 1/2) multiplied
    in; it ends _SPLIT theta from the singular end, 1/7 of its own length.
    The end panel [theta_c, theta] takes n // 4 Gauss-Jacobi nodes that carry
    the end power.  The bulk depends on no exponent, so every alpha, and the
    alpha = -1/2 limit form, share its sizes; each alpha builds only end rules.
    """
    tc = (1.0 - _SPLIT) * theta
    bulk = mapped_jacobi_rule(n, 0.0, 0.0, 0.0, tc)
    end = mapped_jacobi_rule(n // 4, alpha - 0.5, 0.0, tc, theta)
    phi = np.concatenate((bulk.nodes, end.nodes))
    w = np.concatenate((bulk.weights * (theta - bulk.nodes) ** (alpha - 0.5), end.weights))
    gap = 2.0 * np.sin((theta + phi) / 2.0) * np.sin((theta - phi) / 2.0)
    return phi, gap, w * (gap / (theta - phi)) ** (alpha - 0.5)


@lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _kernel_data(alpha: float, beta: float, theta: float,
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes S and amplitudes A with R_k(cos theta) = A @ cos(lambda_k S) on n nodes.

    For alpha > -1/2 this encodes the singular-kernel integral; at
    alpha = -1/2 the exact leading cosine is node 0 and the correction nodes
    follow, with none when 1/4 - beta^2 is 0.  The arrays are read-only,
    since every caller shares them.
    """
    if alpha == -0.5:
        c = cos(theta)
        s, amp = np.array([theta]), np.array([cos(theta / 2.0) ** (-beta - 0.5)])
        scale = 0.25 * (beta * beta - 0.25) * sin(theta / 2.0)
        if scale != 0.0:
            rule = mapped_jacobi_rule(n, 0.0, 0.0, 0.0, theta)
            t = np.cos(rule.nodes)
            f21 = _hyp2f1_array(beta / 2.0 + 1.25, beta / 2.0 + 0.75, 2.0,
                                (t - c) / (1.0 + t))
            pw = np.cos(rule.nodes / 2.0) ** (-beta - 1.5)
            s = np.concatenate((s, rule.nodes))
            amp = np.concatenate((amp, scale * rule.weights * pw * f21))
    else:
        s, gap, w = _singular_rule(theta, alpha, n)
        t = np.cos(s)
        f21 = _hyp2f1_array((alpha + beta + 1.0) / 2.0, (alpha + beta) / 2.0,
                            alpha + 0.5, gap / (1.0 + t))
        # 1 - cos theta as 2 sin^2(theta/2), which keeps its low bits at small theta.
        pref = (2.0 ** ((alpha + beta + 1.0) / 2.0)
                * exp(lgamma(alpha + 1.0) - lgamma(0.5) - lgamma(alpha + 0.5))
                * (2.0 * sin(theta / 2.0) ** 2) ** -alpha)
        amp = pref * w * (1.0 + t) ** (-(alpha + beta) / 2.0) * f21
    s.setflags(write=False)
    amp.setflags(write=False)
    return s, amp


def _pathway_value(k: int, alpha: float, beta: float, theta: float,
                   rtol: float, pathway: str) -> PolyValue:
    lam = k + (alpha + beta + 1.0) / 2.0
    # Rounding up adds 16 on average, so starts still average k + 48 points.
    value = converge_doubling(
        lambda n: _cosine_sum(*_kernel_data(alpha, beta, theta, n), [lam]),
        ladder_size(k + 32), rtol)
    return PolyValue(k, float(value[0]), pathway)


def mehler_r(k: int, params: JacobiParams, theta: float,
             rtol: float = 1e-10) -> PolyValue:
    """R_k(cos theta) through the singular-kernel integral, for alpha > -1/2.

    The (cos phi - cos theta)^(alpha - 1/2) factor is absorbed by the
    two-panel rule of _singular_rule; the remaining integrand factor is
    smooth in phi and its node count doubles until two sizes agree.
    """
    k = _check_degree(k)
    a, b = float(params.alpha), float(params.beta)
    if a <= -0.5:
        raise ValueError("integral pathway needs alpha > -1/2")
    return _pathway_value(k, a, b, _check_theta(theta), rtol, "mehler-integral")


def mehler_limit_r(k: int, beta: float, theta: float,
                   rtol: float = 1e-10) -> PolyValue:
    """R_k(cos theta) at alpha = -1/2 through the limit formula, for beta < 0.

    The leading cosine term is exact; the correction integral has a smooth
    integrand (2F1 is finite at argument 1 since beta < 0)
    and is handled by a plain mapped Gauss rule with doubling.
    """
    k = _check_degree(k)
    if not -1.0 < beta < 0.0:
        raise ValueError("limit formula needs beta in (-1, 0)")
    return _pathway_value(k, -0.5, float(beta), _check_theta(theta), rtol,
                          "limit-formula")


def kernel_mass_h(theta: float, alpha: float) -> float:
    """(sin theta)^(-2 alpha) times the mass of the singular kernel on [0, theta].

    Stays bounded as theta -> 0+ whenever alpha > -1/2, which is what makes
    the interchange of integrals behind the coefficient estimates legitimate.
    """
    if not 1e-8 < theta <= math.pi / 2.0:
        raise ValueError("theta must lie in (1e-8, pi/2]")
    if alpha <= -0.5:
        raise ValueError("kernel mass needs alpha > -1/2")
    mass = converge_doubling(lambda n: float(np.sum(_singular_rule(theta, alpha, n)[2])),
                             ladder_size(16), 1e-12)
    return sin(theta) ** (-2.0 * alpha) * mass
