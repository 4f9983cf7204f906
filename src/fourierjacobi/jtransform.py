"""The continuous transform on the half-line and its hypergeometric kernel.

The kernel phi_tau(t) is produced from its cosine-kernel integral
representation (an algebraic endpoint singularity absorbed by a weighted
rule), with a separate printed formula at alpha = -1/2.  Both reduce phi to
a finite cosine combination phi(tau) = sum_j A_j cos(tau S_j) whose nodes and
amplitudes do not depend on tau, which makes frequency sweeps cheap.  This is
the (S, A) form of the Mehler integrals, and mehler's evaluator and doubling
helper sum it here too.  All hyperbolic prefactors are assembled in log space
so large t cannot overflow.  The inputs are laguerre's half-line specs, split
by its piece builder; the piece that runs to infinity is a damped tail.
"""

import math
from dataclasses import dataclass
from functools import partial
from math import lgamma, log

import numpy as np

from .errors import AccuracyError
from .specfun import JacobiParams, _hyp2f1_array
from .quadrature import converge_doubling, ladder_size, mapped_jacobi_rule
from .mehler import _converge_cosine, _cosine_sum
from .laguerre import LaguerreExpDamped, LaguerreStep, _pieces

__all__ = [
    "Indicator",
    "jacobi_function",
    "transform",
    "transform_sweep",
    "EnvelopeReport",
    "envelope_check",
]


# ---------------------------------------------------------------------------
# half-line test functions: the specs of laguerre


def Indicator(a: float, b: float) -> LaguerreStep:
    """Characteristic function of a bounded interval [a, b) in (0, infinity)."""
    return LaguerreStep((a, b), (0.0, 1.0))


def _check_half_line(name: str, values) -> np.ndarray:
    """values as a 1-d array, or ValueError unless each is finite and >= 0."""
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if not np.all((0.0 <= arr) & (arr < math.inf)):
        raise ValueError(f"{name} must be finite and nonnegative")
    return arr


# ---------------------------------------------------------------------------
# the kernel phi

def _log_sinh(t):
    t = np.asarray(t, dtype=float)
    return t + np.log1p(-np.exp(-2.0 * t)) - log(2.0)


def _log_cosh(t):
    t = np.asarray(t, dtype=float)
    return t + np.log1p(np.exp(-2.0 * t)) - log(2.0)


def _check_params(params: JacobiParams):
    if params.alpha < -0.5:
        raise ValueError("kernel needs alpha >= -1/2")
    if params.alpha + params.beta < -1.0:
        raise ValueError("kernel needs alpha + beta >= -1")


def _cosine_data(t: float, params: JacobiParams,
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes S and amplitudes A with phi_tau(t) = A @ cos(tau * S).

    For alpha > -1/2 this encodes the singular-kernel integral; at
    alpha = -1/2 the exact leading cosine plus the correction integral.
    """
    a, b = params.alpha, params.beta
    lc_t = float(_log_cosh(t))
    if a == -0.5:
        scale = 0.25 - b * b
        if scale == 0.0:
            return np.array([t]), np.array([math.exp(-(b + 0.5) * lc_t)])
        rule = mapped_jacobi_rule(n, 0.0, 0.0, 0.0, t)
        s = rule.nodes
        q = np.exp(_log_cosh(s) - lc_t)
        z = 0.5 * (1.0 - q)
        f21 = _hyp2f1_array(0.5 + b, 0.5 - b, 2.0, z)
        amp = rule.weights * f21 / (1.0 + q)
        amp *= scale * math.exp(float(_log_sinh(t)) - (b + 1.5) * lc_t)
        first_amp = math.exp(-(b + 0.5) * lc_t)
        return (np.concatenate(([t], s)),
                np.concatenate(([first_amp], amp)))
    rule = mapped_jacobi_rule(n, a - 0.5, 0.0, 0.0, t)
    s = rule.nodes
    d = t - s
    psi = -np.expm1(-2.0 * (t + s)) * (-np.expm1(-2.0 * d)) / (2.0 * d)
    q = np.exp(_log_cosh(s) - lc_t)
    z = 0.5 * (1.0 - q)
    f21 = _hyp2f1_array(a + b, a - b, a + 0.5, z)
    lp = ((1.5 - a) * log(2.0) + lgamma(a + 1.0) - lgamma(a + 0.5)
          - lgamma(0.5) - 2.0 * a * float(_log_sinh(t)) - (a + b) * lc_t
          + (2.0 * a - 1.0) * t)
    amp = rule.weights * psi ** (a - 0.5) * f21 * math.exp(lp)
    return s, amp


def _phi_grid(params: JacobiParams, ts: np.ndarray, taus: np.ndarray,
              rtol: float = 1e-8) -> np.ndarray:
    """phi values on a (t, tau) product grid, shared data per t."""
    tau_max = float(np.max(taus)) if taus.size else 0.0
    out = np.empty((ts.size, taus.size))
    for i, t in enumerate(ts):
        if t < 1e-8:
            out[i] = 1.0
            continue
        out[i] = _converge_cosine(partial(_cosine_data, float(t), params), taus,
                                  ladder_size(int(tau_max * t / math.pi) + 40), rtol)
    return out


def jacobi_function(tau: float, t: float, params: JacobiParams,
                    rtol: float = 1e-9) -> float:
    """The kernel phi_tau(t), a uniformly bounded cosine-like eigenfunction.

    Evaluated through its integral representation with node doubling; exact
    values phi(0-argument) = 1 and the pure cosine at (-1/2, -1/2) fall out
    as special cases.
    """
    _check_params(params)
    return float(_phi_grid(params, _check_half_line("arguments", t),
                           _check_half_line("frequencies", tau), rtol)[0, 0])


# ---------------------------------------------------------------------------
# the transform


def _log_weight(t: np.ndarray, params: JacobiParams) -> np.ndarray:
    return ((2.0 * params.alpha + 1.0) * _log_sinh(t)
            + (2.0 * params.beta + 1.0) * _log_cosh(t))


def _transform_prefactor(params: JacobiParams) -> float:
    a, b = params.alpha, params.beta
    return 2.0 ** (2.0 * (a + b + 1.0) + 0.5) / math.exp(lgamma(a + 1.0))


def _sweep_piece(lo: float, hi: float, g, taus: np.ndarray,
                 params: JacobiParams, n_out: int, level: int) -> np.ndarray:
    # A piece at t = 0 puts the weight's t^(2a+1) into its rule.
    e = 2.0 * params.alpha + 1.0 if lo == 0.0 else 0.0
    rule = mapped_jacobi_rule(n_out, 0.0, e, lo, hi)
    t_nodes = rule.nodes
    u = rule.weights * np.asarray(g(t_nodes), dtype=float) * np.exp(
        _log_weight(t_nodes, params) - e * np.log(t_nodes))
    tau_max = float(np.max(taus))
    out = np.zeros(taus.size)
    for ti, ui in zip(t_nodes, u):
        if ui == 0.0:
            continue
        n_in = ladder_size(int(tau_max * ti / math.pi) + 40) << level
        out += ui * _cosine_sum(*_cosine_data(float(ti), params, n_in), taus)
    return out


def transform_sweep(f, taus, params: JacobiParams,
                    rtol: float = 1e-9) -> np.ndarray:
    """The transform of f at every frequency in taus, sharing kernel data.

    f is a laguerre half-line spec; a damped polynomial needs
    rate > 2 (alpha + beta + 1), since the weight grows like that exponent.
    The cosine-combination form of the kernel is built once per outer node
    and reused across the whole frequency grid; both rule sizes double
    together, at most twice, until the sweep settles.
    """
    _check_params(params)
    taus = _check_half_line("frequencies", taus)
    if taus.size == 0:
        return np.zeros(0)
    tau_max = float(np.max(taus))
    rho = params.alpha + params.beta + 1.0
    # The weight grows, so no edge counts as infinite (d = 0); the one piece
    # that can run to infinity is a damped polynomial's.
    pieces = _pieces(f, 0.0)
    for _, hi, _, rate in pieces:
        if hi == math.inf and rate <= 2.0 * rho:
            raise ValueError(f"rate {rate} gives an infinite norm for {params}")

    def evaluate(factor: int) -> np.ndarray:
        level = factor.bit_length() - 1

        def size(width: float) -> int:
            return ladder_size(int(tau_max * width / math.pi) + 32) << level

        total = np.zeros(taus.size)
        for lo, hi, p, rate in pieces:
            g = LaguerreExpDamped(p, rate)
            if hi < math.inf:
                total += _sweep_piece(lo, hi, g, taus, params, size(hi - lo), level)
                continue
            # Chunks of one width until one adds below 1e-12 of the first.
            width = (20.0 + 5.0 * len(p)) / (rate - rho)
            n_out = size(width)
            total += _sweep_piece(lo, lo + width, g, taus, params, n_out, level)
            acc = float(np.max(np.abs(total))) or 1.0
            while True:
                lo += width
                inc = _sweep_piece(lo, lo + width, g, taus, params, n_out, level)
                total += inc
                if float(np.max(np.abs(inc))) <= 1e-12 * acc:
                    break
                if lo > 400.0:
                    raise AccuracyError("tail truncation failed to settle",
                                        achieved=float(np.max(np.abs(inc))))
        return total

    # nmax=4 allows two doublings: size factors 1, 2, 4 are levels 0, 1, 2.
    return _transform_prefactor(params) * converge_doubling(evaluate, 1, rtol,
                                                            nmax=4)


def transform(f, tau: float, params: JacobiParams, rtol: float = 1e-9) -> float:
    """The weighted half-line integral of f against the kernel at one frequency."""
    return float(transform_sweep(f, [float(tau)], params, rtol)[0])


# ---------------------------------------------------------------------------
# the uniform envelope

# Verification allows the ratio on the finer grid this factor above c_star.
_ENVELOPE_SLACK = 1.05


@dataclass(frozen=True)
class EnvelopeReport:
    """Calibration and verification of |phi| <= C (1+t) e^(-(a+b+1) t)."""

    params: JacobiParams
    c_star: float          # smallest constant seen on the calibration grid
    slack: float           # verification allows slack * c_star
    worst_ratio: float     # max |phi| / (c_star (1+t) e^(-rho t)) when verifying
    verified: bool


def envelope_check(params: JacobiParams, t_grid=None, tau_grid=None) -> EnvelopeReport:
    """Calibrate the envelope constant, then verify it on a finer grid.

    The constant is the largest ratio |phi| / ((1+t) e^(-rho t)) over the
    calibration grid; verification doubles both grid densities and demands
    the ratio stay below _ENVELOPE_SLACK times that constant.  Failure is
    reported in the returned record rather than raised.
    """
    _check_params(params)
    ts = np.linspace(0.0, 20.0, 41) if t_grid is None \
        else _check_half_line("arguments", t_grid)
    taus = np.linspace(0.0, 50.0, 51) if tau_grid is None \
        else _check_half_line("frequencies", tau_grid)
    rho = params.alpha + params.beta + 1.0

    def ratios(tv: np.ndarray, tauv: np.ndarray) -> float:
        phi = _phi_grid(params, tv, tauv)
        env = (1.0 + tv) * np.exp(-rho * tv)
        return float(np.max(np.abs(phi) / env[:, None]))

    c_star = ratios(ts, taus)
    fine_t = np.linspace(float(ts[0]), float(ts[-1]), 2 * ts.size - 1)
    fine_tau = np.linspace(float(taus[0]), float(taus[-1]), 2 * taus.size - 1)
    worst = ratios(fine_t, fine_tau) / c_star
    return EnvelopeReport(params, c_star, _ENVELOPE_SLACK, worst, worst <= _ENVELOPE_SLACK)
