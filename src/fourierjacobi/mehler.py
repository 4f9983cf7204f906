"""Integral-representation pathway for R_k(cos theta), independent of the recurrence.

Two formulas are implemented: the cosine-kernel integral with an algebraic
endpoint singularity for alpha > -1/2, and its alpha -> -1/2 limit, which has
a separate non-integral leading term.  Both serve as cross-checks against the
recurrence values, so nothing here is shared with the recurrence code path.

Both formulas, like the kernel of the continuous transform in jtransform
(the hyperbolic form of the same integral), reduce to nodes S and amplitudes
A with value(lambda) = A @ cos(lambda S), where lambda = k + (alpha+beta+1)/2.
The kernel data is built once per parameter set, angle and rule size and
reused for every degree k; only the cosine factor is formed per degree.
"""

import math
from functools import lru_cache, partial
from math import lgamma, exp, cos, sin

import numpy as np

from .specfun import JacobiParams, PolyValue, _check_degree, _hyp2f1_array
from .quadrature import (mehler_inner_rule, mapped_jacobi_rule, converge_doubling,
                         ladder_size)

__all__ = ["mehler_r", "mehler_limit_r", "kernel_mass_h"]

_THETA_MIN = 1e-6

# Kernel data kept per (parameters, theta, rule size).  A sweep over degrees
# at one angle touches only a few sizes, so this holds many angles' worth.
_KERNEL_CACHE_SIZE = 128


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not _THETA_MIN < theta < math.pi - _THETA_MIN:
        raise ValueError(f"theta must lie in ({_THETA_MIN}, pi - {_THETA_MIN})")
    return theta


def _cosine_sum(s: np.ndarray, amp: np.ndarray, lams) -> np.ndarray:
    """A @ cos(lambda S) at every lambda in lams."""
    return np.cos(np.outer(lams, s)) @ amp


def _converge_cosine(kernel, lams, n0: int, rtol: float) -> np.ndarray:
    """A @ cos(lambda S) at every lambda in lams, with (S, A) = kernel(n) on
    doubling rule sizes n from n0 until two sizes agree."""
    return converge_doubling(lambda n: _cosine_sum(*kernel(n), lams), n0, rtol)


@lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _kernel_data(alpha: float, beta: float, theta: float,
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes S and amplitudes A with R_k(cos theta) = A @ cos(lambda_k S) on n nodes.

    For alpha > -1/2 this encodes the singular-kernel integral; at
    alpha = -1/2 the exact leading cosine is node 0 and the correction nodes
    follow, with none when 1/4 - beta^2 is 0.  The arrays are read-only,
    since every caller shares them.
    """
    c = cos(theta)
    if alpha == -0.5:
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
        rule = mehler_inner_rule(theta, alpha, n)
        t = np.cos(rule.nodes)
        f21 = _hyp2f1_array((alpha + beta + 1.0) / 2.0, (alpha + beta) / 2.0,
                            alpha + 0.5, (t - c) / (1.0 + t))
        pref = (2.0 ** ((alpha + beta + 1.0) / 2.0)
                * exp(lgamma(alpha + 1.0) - lgamma(0.5) - lgamma(alpha + 0.5))
                * (1.0 - c) ** -alpha)
        s = rule.nodes
        amp = pref * rule.weights * (1.0 + t) ** (-(alpha + beta) / 2.0) * f21
    s.setflags(write=False)
    amp.setflags(write=False)
    return s, amp


def _pathway_value(k: int, alpha: float, beta: float, theta: float,
                   rtol: float, pathway: str) -> PolyValue:
    lam = k + (alpha + beta + 1.0) / 2.0
    # Rounding up adds 16 on average, so starts still average k + 48 points.
    value = _converge_cosine(partial(_kernel_data, alpha, beta, theta), [lam],
                             ladder_size(k + 32), rtol)
    return PolyValue(k, float(value[0]), pathway)


def mehler_r(k: int, params: JacobiParams, theta: float,
             rtol: float = 1e-10) -> PolyValue:
    """R_k(cos theta) through the singular-kernel integral, for alpha > -1/2.

    The (cos phi - cos theta)^(alpha - 1/2) factor is absorbed by the
    dedicated inner rule; the remaining integrand factor is smooth in phi and
    its node count doubles until two sizes agree.
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
    if not 0.0 < theta <= math.pi / 2.0:
        raise ValueError("theta must lie in (0, pi/2]")
    if alpha <= -0.5:
        raise ValueError("kernel mass needs alpha > -1/2")

    def evaluate(n: int) -> float:
        rule = mehler_inner_rule(theta, alpha, n)
        return float(np.sum(rule.weights))

    mass = converge_doubling(evaluate, n0=ladder_size(16), rtol=1e-12)
    return sin(theta) ** (-2.0 * alpha) * mass
