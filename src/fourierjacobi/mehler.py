"""Integral-representation pathway for R_k(cos theta), independent of the recurrence.

Two formulas are implemented: the cosine-kernel integral with an algebraic
endpoint singularity for alpha > -1/2, and its alpha -> -1/2 limit, which has
a separate non-integral leading term.  Both serve as cross-checks against the
recurrence values, so nothing here is shared with the recurrence code path.

Each formula is a sum over rule nodes of a degree-independent amplitude times
cos(lambda_k phi).  The node data (nodes, weights, power factor and 2F1
values) is built once per parameter set, angle and rule size and reused for
every degree k; only the cosine factor is formed per degree.
"""

import math
from functools import lru_cache
from math import lgamma, exp, cos, sin

import numpy as np

from .specfun import JacobiParams, PolyValue, _check_degree, _hyp2f1_array
from .quadrature import (mehler_inner_rule, mapped_jacobi_rule, converge_doubling,
                         ladder_size)

__all__ = ["mehler_r", "mehler_limit_r", "kernel_mass_h"]

_THETA_MIN = 1e-6

# Node data kept per (parameters, theta, rule size).  A sweep over degrees at
# one angle touches only a few sizes, so this holds many angles' worth.
_NODE_CACHE_SIZE = 128


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not _THETA_MIN < theta < math.pi - _THETA_MIN:
        raise ValueError(f"theta must lie in ({_THETA_MIN}, pi - {_THETA_MIN})")
    return theta


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, read-only, since cached node data is shared by every caller."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=_NODE_CACHE_SIZE)
def _mehler_nodes(alpha: float, beta: float, theta: float, n: int):
    """Degree-independent node data of the singular form on n nodes.

    Returns (phi, weights, (1 + cos phi)^(-(alpha + beta)/2), 2F1 values).
    """
    rule = mehler_inner_rule(theta, alpha, n)
    t = np.cos(rule.nodes)
    z = (t - cos(theta)) / (1.0 + t)
    f21 = _hyp2f1_array((alpha + beta + 1.0) / 2.0, (alpha + beta) / 2.0,
                        alpha + 0.5, z)
    pw = (1.0 + t) ** (-(alpha + beta) / 2.0)
    return _frozen(rule.nodes, rule.weights, pw, f21)


@lru_cache(maxsize=_NODE_CACHE_SIZE)
def _limit_nodes(beta: float, theta: float, n: int):
    """Degree-independent node data of the limit form's correction on n nodes.

    Returns (phi, weights, cos(phi/2)^(-beta - 3/2), 2F1 values).
    """
    rule = mapped_jacobi_rule(n, 0.0, 0.0, 0.0, theta)
    phi = rule.nodes
    z = (np.cos(phi) - cos(theta)) / (1.0 + np.cos(phi))
    f21 = _hyp2f1_array(beta / 2.0 + 1.25, beta / 2.0 + 0.75, 2.0, z)
    pw = np.cos(phi / 2.0) ** (-beta - 1.5)
    return _frozen(phi, rule.weights, pw, f21)


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
    theta = _check_theta(theta)
    c = cos(theta)
    lam = k + (a + b + 1.0) / 2.0
    pref = (2.0 ** ((a + b + 1.0) / 2.0)
            * exp(lgamma(a + 1.0) - lgamma(0.5) - lgamma(a + 0.5))
            * (1.0 - c) ** -a)

    def evaluate(n: int) -> float:
        phi, weights, pw, f21 = _mehler_nodes(a, b, theta, n)
        return pref * float(weights @ (np.cos(lam * phi) * pw * f21))

    # Rounding up adds 16 on average, so starts still average k + 48 points.
    value = converge_doubling(evaluate, n0=ladder_size(k + 32), rtol=rtol)
    return PolyValue(k, value, "mehler-integral")


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
    beta = float(beta)
    theta = _check_theta(theta)
    nu = k + beta / 2.0 + 0.25
    first = cos(theta / 2.0) ** (-beta - 0.5) * cos(nu * theta)

    def correction(n: int) -> float:
        phi, weights, pw, f21 = _limit_nodes(beta, theta, n)
        return float(weights @ (pw * np.cos(nu * phi) * f21))

    integral = converge_doubling(correction, n0=ladder_size(k + 32),
                                  rtol=rtol)
    value = first + 0.25 * (beta * beta - 0.25) * sin(theta / 2.0) * integral
    return PolyValue(k, value, "limit-formula")


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
