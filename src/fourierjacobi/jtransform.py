"""The continuous transform on the half-line and its hypergeometric kernel.

The kernel phi_tau(t) is produced from its cosine-kernel integral
representation (an algebraic endpoint singularity absorbed by a weighted
rule), with a separate printed formula at alpha = -1/2.  Both reduce phi to
a finite cosine combination phi(tau) = sum_j A_j cos(tau S_j) whose nodes and
amplitudes do not depend on tau, which makes frequency sweeps cheap.  This is
the (S, A) form of the Mehler integrals, and mehler's evaluator and doubling
helper sum it here too.  All hyperbolic prefactors are assembled in log space
so large t cannot overflow.
"""

import math
from dataclasses import dataclass
from functools import partial
from math import lgamma, log

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import AccuracyError
from .specfun import JacobiParams, _check_finite, _hyp2f1_array
from .quadrature import converge_doubling, ladder_size, mapped_jacobi_rule
from .mehler import _converge_cosine, _cosine_sum

__all__ = [
    "Indicator",
    "ExpDecay",
    "HalfLineGrid",
    "jacobi_function",
    "transform",
    "transform_sweep",
    "EnvelopeReport",
    "envelope_check",
]


# ---------------------------------------------------------------------------
# half-line test functions


@dataclass(frozen=True)
class Indicator:
    """Characteristic function of a bounded interval [a, b] in (0, infinity)."""

    a: float
    b: float

    def __post_init__(self):
        _check_finite(self.a, self.b)
        if not 0.0 < self.a < self.b:
            raise ValueError("need 0 < a < b")

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        out = ((arr >= self.a) & (arr <= self.b)).astype(float)
        return float(out) if np.isscalar(t) else out


@dataclass(frozen=True)
class ExpDecay:
    """f(t) = p(t) e^(-rate t), with the rate large enough for a finite norm.

    The weighted norm integrates |f| (sinh t)^(2a+1) (cosh t)^(2b+1), which
    grows like e^(2(a+b+1)t), so construction demands rate > 2 (a+b+1) for
    the parameter pair the function is meant to be used with.
    """

    coefficients: tuple[float, ...]
    rate: float
    params: JacobiParams

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coefficients)
        if not cs:
            raise ValueError("need at least one coefficient")
        _check_finite(*cs, self.rate)
        rho = self.params.alpha + self.params.beta + 1.0
        if self.rate <= 2.0 * rho:
            raise ValueError(
                f"rate {self.rate} too small: the weighted norm needs rate > {2.0 * rho}")
        object.__setattr__(self, "coefficients", cs)

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        out = polyval(arr, self.coefficients) * np.exp(-self.rate * arr)
        return float(out) if np.isscalar(t) else out


@dataclass(frozen=True)
class HalfLineGrid:
    """Piecewise-linear interpolant with compact support [first, last] abscissa."""

    abscissae: tuple[float, ...]
    ordinates: tuple[float, ...]

    def __post_init__(self):
        ts = tuple(float(t) for t in self.abscissae)
        ys = tuple(float(y) for y in self.ordinates)
        _check_finite(*ts, *ys)
        if len(ts) < 2 or len(ts) != len(ys):
            raise ValueError("need matching abscissae/ordinates, at least two")
        if ts[0] <= 0.0 or any(t1 <= t0 for t0, t1 in zip(ts, ts[1:])):
            raise ValueError("abscissae must be positive and strictly increasing")
        object.__setattr__(self, "abscissae", ts)
        object.__setattr__(self, "ordinates", ys)

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        out = np.interp(arr, self.abscissae, self.ordinates)
        out = np.where((arr < self.abscissae[0]) | (arr > self.abscissae[-1]),
                       0.0, out)
        return float(out) if np.isscalar(t) else out


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
    if tau < 0.0:
        raise ValueError("frequency must be nonnegative")
    if t < 0.0:
        raise ValueError("argument must be nonnegative")
    return float(_phi_grid(params, np.array([float(t)]), np.array([float(tau)]),
                           rtol)[0, 0])


# ---------------------------------------------------------------------------
# the transform


def _support_pieces(f, params: JacobiParams) -> list[tuple[float, float, object]]:
    """Finite intervals covering supp f, with the smooth factor on each."""
    if isinstance(f, Indicator):
        return [(f.a, f.b, lambda t: np.ones_like(t))]
    if isinstance(f, HalfLineGrid):
        ts = f.abscissae
        return [(t0, t1, f) for t0, t1 in zip(ts, ts[1:])]
    if isinstance(f, ExpDecay):
        rho = params.alpha + params.beta + 1.0
        if f.rate <= 2.0 * rho:
            raise ValueError(
                f"rate {f.rate} gives an infinite norm for {params}")
        width = (20.0 + 5.0 * len(f.coefficients)) / (f.rate - rho)
        return [(0.0, width, f), ("tail", width, f)]  # sentinel handled below
    raise TypeError(f"not a usable half-line function spec: {f!r}")


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

    The cosine-combination form of the kernel is built once per outer node
    and reused across the whole frequency grid; both rule sizes double
    together, at most twice, until the sweep settles.
    """
    _check_params(params)
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if taus.size == 0:
        return np.zeros(0)
    if float(np.min(taus)) < 0.0:
        raise ValueError("frequencies must be nonnegative")
    tau_max = float(np.max(taus))
    pieces = _support_pieces(f, params)

    def evaluate(factor: int) -> np.ndarray:
        level = factor.bit_length() - 1
        total = np.zeros(taus.size)
        for piece in pieces:
            if piece[0] == "tail":
                _, start, g = piece
                width = start
                acc = float(np.max(np.abs(total))) or 1.0
                lo = start
                while True:
                    n_out = ladder_size(int(tau_max * width / math.pi)
                                        + 32) << level
                    inc = _sweep_piece(lo, lo + width, g, taus, params, n_out,
                                       level)
                    total += inc
                    if float(np.max(np.abs(inc))) <= 1e-12 * acc:
                        break
                    if lo > 400.0:
                        raise AccuracyError("tail truncation failed to settle",
                                            achieved=float(np.max(np.abs(inc))))
                    lo += width
                continue
            lo, hi, g = piece
            n_out = ladder_size(int(tau_max * (hi - lo) / math.pi)
                                + 32) << level
            total += _sweep_piece(lo, hi, g, taus, params, n_out, level)
        return total

    # nmax=4 allows two doublings: size factors 1, 2, 4 are levels 0, 1, 2.
    return _transform_prefactor(params) * converge_doubling(evaluate, 1, rtol,
                                                            nmax=4)


def transform(f, tau: float, params: JacobiParams, rtol: float = 1e-9) -> float:
    """The weighted half-line integral of f against the kernel at one frequency."""
    return float(transform_sweep(f, [float(tau)], params, rtol)[0])


# ---------------------------------------------------------------------------
# the uniform envelope


@dataclass(frozen=True)
class EnvelopeReport:
    """Calibration and verification of |phi| <= C (1+t) e^(-(a+b+1) t)."""

    params: JacobiParams
    c_star: float          # smallest constant seen on the calibration grid
    slack: float           # verification allows slack * c_star
    worst_ratio: float     # max |phi| / (c_star (1+t) e^(-rho t)) when verifying
    verified: bool


def envelope_check(params: JacobiParams, t_grid=None, tau_grid=None,
                   slack: float = 1.05) -> EnvelopeReport:
    """Calibrate the envelope constant, then verify it on a finer grid.

    The constant is the largest ratio |phi| / ((1+t) e^(-rho t)) over the
    calibration grid; verification doubles both grid densities and demands
    the ratio stay below slack times that constant.  Failure is reported in
    the returned record rather than raised.
    """
    _check_params(params)
    ts = np.linspace(0.0, 20.0, 41) if t_grid is None \
        else np.asarray(t_grid, dtype=float)
    taus = np.linspace(0.0, 50.0, 51) if tau_grid is None \
        else np.asarray(tau_grid, dtype=float)
    rho = params.alpha + params.beta + 1.0

    def ratios(tv: np.ndarray, tauv: np.ndarray) -> float:
        phi = _phi_grid(params, tv, tauv)
        env = (1.0 + tv) * np.exp(-rho * tv)
        return float(np.max(np.abs(phi) / env[:, None]))

    c_star = ratios(ts, taus)
    fine_t = np.linspace(float(ts[0]), float(ts[-1]), 2 * ts.size - 1)
    fine_tau = np.linspace(float(taus[0]), float(taus[-1]), 2 * taus.size - 1)
    worst = ratios(fine_t, fine_tau) / c_star
    return EnvelopeReport(params, c_star, slack, worst, worst <= slack)
