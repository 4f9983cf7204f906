"""The continuous transform on the half-line and its hypergeometric kernel.

The kernel phi_tau(t) is produced from its cosine-kernel integral
representation (an algebraic endpoint singularity absorbed by a weighted
rule), with a separate printed formula at alpha = -1/2.  Both reduce phi to
a finite cosine combination phi(tau) = sum_j A_j cos(tau S_j) whose nodes and
amplitudes do not depend on tau, which makes frequency sweeps cheap.  This is
the (S, A) form of the Mehler integrals, summed by mehler's evaluator in one
row builder, _phi_rows, whose whole grid doubles at once.  All hyperbolic
prefactors are assembled in log space so large t cannot overflow.  The inputs
are laguerre's half-line specs, split by its piece builder.  A constant piece
needs no integral: its transform is a boundary term, one phi row at
(alpha + 1, beta + 1) per jump.  Linear pieces and the damped tail, the piece
that runs to infinity, are integrated against phi rows at outer nodes, whose
rule for the weight's t^(2 alpha + 1) comes from quadrature._anchored_rule.
"""

import math
from dataclasses import dataclass
from math import lgamma, log

import numpy as np

from .errors import AccuracyError
from .specfun import JacobiParams, _hyp2f1_array
from .quadrature import (_LOG_MAX, _anchored_rule, _check_rtol, _check_size, converge_doubling,
                         ladder_size, mapped_jacobi_rule)
from .mehler import _cosine_sum
from .laguerre import LaguerreExpDamped, LaguerreStep, _pieces

__all__ = [
    "Indicator",
    "jacobi_function",
    "transform",
    "transform_sweep",
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
    if arr.ndim > 1:
        raise ValueError(f"{name} must be a number or a 1-d sequence")
    if not np.all((0.0 <= arr) & (arr < math.inf)):
        raise ValueError(f"{name} must be finite and nonnegative")
    return arr


# ---------------------------------------------------------------------------
# the kernel phi

def _log_sinh(t):
    """log sinh t: t + log1p(-e^(-2t)) - log 2, which cannot overflow, but
    log(sinh t) below 2t = ln 2, where the sum would cancel digits as t
    falls to 0."""
    t = np.asarray(t, dtype=float)
    low = 2.0 * t < log(2.0)
    return np.where(low, np.log(np.sinh(np.where(low, t, 1.0))),
                    t + np.log1p(-np.exp(-2.0 * t)) - log(2.0))


def _log_cosh(t):
    t = np.asarray(t, dtype=float)
    return t + np.log1p(np.exp(-2.0 * t)) - log(2.0)


def _check_params(params: JacobiParams):
    if params.alpha < -0.5:
        raise ValueError("kernel needs alpha >= -1/2")
    if params.alpha + params.beta < -1.0:
        raise ValueError("kernel needs alpha + beta >= -1")


def _log_prefactor(t: float, params: JacobiParams) -> float:
    """Log of the factor that every amplitude of phi at t shares, alpha > -1/2."""
    a, b = params.alpha, params.beta
    return ((1.5 - a) * log(2.0) + lgamma(a + 1.0) - lgamma(a + 0.5)
            - lgamma(0.5) - 2.0 * a * float(_log_sinh(t)) - (a + b) * float(_log_cosh(t))
            + (2.0 * a - 1.0) * t)


def _cosine_data(t: float, params: JacobiParams, n: int,
                 log_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes S and amplitudes A with exp(log_scale) phi_tau(t) = A @ cos(tau * S).

    For alpha > -1/2 this encodes the singular-kernel integral; at
    alpha = -1/2 the exact leading cosine plus the correction integral.
    log_scale joins the log prefactors before they are exponentiated, so a
    large factor times a small phi stays finite.
    """
    a, b = params.alpha, params.beta
    lc_t = float(_log_cosh(t))
    if a == -0.5:
        scale = 0.25 - b * b
        first_amp = math.exp(-(b + 0.5) * lc_t + log_scale)
        if scale == 0.0:
            return np.array([t]), np.array([first_amp])
        rule = mapped_jacobi_rule(n, 0.0, 0.0, 0.0, t)
        s = rule.nodes
        q = np.exp(_log_cosh(s) - lc_t)
        z = 0.5 * (1.0 - q)
        f21 = _hyp2f1_array(0.5 + b, 0.5 - b, 2.0, z)
        amp = rule.weights * f21 / (1.0 + q)
        amp *= scale * math.exp(float(_log_sinh(t)) - (b + 1.5) * lc_t + log_scale)
        return (np.concatenate(([t], s)),
                np.concatenate(([first_amp], amp)))
    rule = mapped_jacobi_rule(n, a - 0.5, 0.0, 0.0, t)
    s = rule.nodes
    d = t - s
    psi = -np.expm1(-2.0 * (t + s)) * (-np.expm1(-2.0 * d)) / (2.0 * d)
    q = np.exp(_log_cosh(s) - lc_t)
    z = 0.5 * (1.0 - q)
    f21 = _hyp2f1_array(a + b, a - b, a + 0.5, z)
    amp = rule.weights * psi ** (a - 0.5) * f21 * math.exp(_log_prefactor(t, params)
                                                           + log_scale)
    return s, amp


def _kernel_size(t: float, tau_max: float, factor: int) -> int:
    """Size of the kernel rules for phi at arguments up to t, up to frequency tau_max."""
    return ladder_size(int(tau_max * t / math.pi) + 40) * factor


def _phi_rows(params: JacobiParams, ts: np.ndarray, taus: np.ndarray,
              factor: int, log_scales=None) -> np.ndarray:
    """phi on a (t, tau) product grid, one row per t, every row on the kernel
    size of the largest t: one Gauss-Jacobi rule per level.  Row i is scaled
    by exp(log_scales[i]) through _cosine_data; a row at t < 1e-8 is exactly that factor."""
    tau_max = float(np.max(taus, initial=0.0))
    n = _kernel_size(float(np.max(ts, initial=0.0)), tau_max, factor)
    scales = np.zeros(ts.size) if log_scales is None else log_scales
    out = np.empty((ts.size, taus.size))
    for i, (t, ls) in enumerate(zip(ts, scales)):
        if t >= 1e-8:
            out[i] = _cosine_sum(*_cosine_data(float(t), params, n, float(ls)), taus)
        else:
            out[i] = math.exp(ls)
    return out


def _phi_grid(params: JacobiParams, ts: np.ndarray, taus: np.ndarray,
              rtol: float = 1e-8) -> np.ndarray:
    """phi on a (t, tau) product grid; all rows double their rules together."""
    return converge_doubling(lambda f: _phi_rows(params, ts, taus, f), 1, rtol, nmax=4)


def jacobi_function(tau: float, t: float, params: JacobiParams,
                    rtol: float = 1e-9) -> float:
    """The kernel phi_tau(t), a uniformly bounded cosine-like eigenfunction.

    Evaluated through its integral representation with node doubling; exact
    values phi(0-argument) = 1 and the pure cosine at (-1/2, -1/2) fall out
    as special cases.
    """
    _check_params(params)
    if np.ndim(tau) or np.ndim(t):
        raise ValueError("jacobi_function takes one frequency and one argument")
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


# Most kernel nodes one sweep piece may ask for: its outer rule size times
# the kernel-rule size at its far edge.  A build costs O(n^2), so a far
# support edge at a high frequency would otherwise run for hours.
_MAX_KERNEL_WORK = 1 << 26


def _sweep_piece(lo: float, hi: float, g, taus: np.ndarray,
                 params: JacobiParams, n_out: int, factor: int) -> np.ndarray:
    n_in = _kernel_size(hi, float(np.max(taus)), factor)
    if _check_size(n_out) * n_in > _MAX_KERNEL_WORK:
        raise ValueError(f"the piece [{lo}, {hi}] needs {n_out} x {n_in} kernel nodes, "
                         f"over the budget of {_MAX_KERNEL_WORK}")
    if _log_weight(hi, params) > _LOG_MAX:
        raise ValueError(f"the weight overflows at t = {hi} for {params}")
    # The weight's t^(2a+1) goes to the rule, and the smooth rest to the nodes.
    t_nodes, w, l = _anchored_rule(n_out, lo, hi, 2.0 * params.alpha + 1.0)
    u = w * np.asarray(g(t_nodes), dtype=float) * np.exp(_log_weight(t_nodes, params) - l)
    out = np.zeros(taus.size)
    # Summed in node order: u @ rows would change the order and the bits.
    for ui, row in zip(u[u != 0.0], _phi_rows(params, t_nodes[u != 0.0], taus, factor)):
        out += ui * row
    return out


def transform_sweep(f, taus, params: JacobiParams,
                    rtol: float = 1e-9) -> np.ndarray:
    """The transform of f at every frequency in taus, sharing kernel data.

    f is a laguerre half-line spec; a damped polynomial needs
    rate > 2 (alpha + beta + 1), since the weight grows like that exponent.
    A constant piece (a step's, or a grid's flat segment) is a boundary term:
    with W the weight of _log_weight,
        integral_a^b W phi_tau dt
            = [sinh^(2a+2) t cosh^(2b+2) t phi_tau^(a+1,b+1)(t)]_a^b / (2 (a+1))
    (Koornwinder 1984, section 2), so the constant pieces cost one phi row at
    (alpha + 1, beta + 1) per jump, with the weight folded into the row's log
    prefactor; the row at t = 0 vanishes.  Linear pieces and the damped tail
    are integrated on outer rules, with the cosine-combination form of the
    kernel built once per outer node and reused across the frequency grid.
    All rule sizes double together, by factors 1, 2 and 4, until the sum
    settles.
    """
    _check_params(params)
    _check_rtol(rtol)
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
    # A constant piece c on [lo, hi) adds c to the jump at hi and takes it
    # from the jump at lo, so adjacent pieces share one row.
    jumps, swept = {}, []
    for lo, hi, p, rate in pieces:
        if hi < math.inf and not any(p[1:]):
            jumps[lo] = jumps.get(lo, 0.0) - p[0]
            jumps[hi] = jumps.get(hi, 0.0) + p[0]
        else:
            swept.append((lo, hi, p, rate))
    edges = np.array([e for e in sorted(jumps) if e > 0.0 and jumps[e] != 0.0])
    shifted = JacobiParams(params.alpha + 1.0, params.beta + 1.0)
    # The rows share the far edge's size; at factor 4, the last doubling.
    _check_size(_kernel_size(np.max(edges, initial=0.0), tau_max, 4))
    # log of sinh^(2a+2) t cosh^(2b+2) t / (2 (a+1)) at each edge.
    log_weights = (_log_weight(edges, params) + _log_sinh(edges) + _log_cosh(edges)
                   - log(2.0 * (params.alpha + 1.0)))
    for e, lw in zip(edges, log_weights):
        if _log_prefactor(e, shifted) + lw > _LOG_MAX:
            raise ValueError(f"the boundary term overflows at t = {e} for {params}")

    def evaluate(factor: int) -> np.ndarray:
        def size(width: float) -> int:
            return ladder_size(int(tau_max * width / math.pi) + 32) * factor

        total = np.zeros(taus.size)
        rows = _phi_rows(shifted, edges, taus, factor, log_weights)
        for e, row in zip(edges, rows):
            total += jumps[e] * row
        for lo, hi, p, rate in swept:
            g = LaguerreExpDamped(p, rate)
            if hi < math.inf:
                total += _sweep_piece(lo, hi, g, taus, params, size(hi - lo), factor)
                continue
            # Chunks of one width until one adds below 1e-12 of the first.
            width = (20.0 + 5.0 * len(p)) / (rate - rho)
            n_out = size(width)
            total += _sweep_piece(lo, lo + width, g, taus, params, n_out, factor)
            acc = float(np.max(np.abs(total))) or 1.0
            while True:
                lo += width
                inc = _sweep_piece(lo, lo + width, g, taus, params, n_out, factor)
                total += inc
                if float(np.max(np.abs(inc))) <= 1e-12 * acc:
                    break
                if lo > 400.0:
                    raise AccuracyError("tail truncation failed to settle",
                                        achieved=float(np.max(np.abs(inc))))
        return total

    # A boundary term that passes the test above can still be within a few
    # powers of e of the largest double; its overflow is refused, not
    # returned as inf.  nmax=4 allows two doublings: size factors 1, 2 and 4.
    with np.errstate(over="raise"):
        try:
            return _transform_prefactor(params) * converge_doubling(evaluate, 1, rtol,
                                                                    nmax=4)
        except FloatingPointError:
            raise ValueError(f"the transform overflows for {params}") from None


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
    calibration grid; verification inserts every midpoint into both grids (so
    an uneven grid is refined, not replaced) and demands the ratio stay below
    _ENVELOPE_SLACK times that constant.  phi is evaluated once, on the finer
    grid.  Failure is reported in the returned record rather than raised.
    """
    _check_params(params)
    ts = np.linspace(0.0, 20.0, 41) if t_grid is None \
        else _check_half_line("arguments", t_grid)
    taus = np.linspace(0.0, 50.0, 51) if tau_grid is None \
        else _check_half_line("frequencies", tau_grid)
    for name, grid in (("t_grid", ts), ("tau_grid", taus)):
        if grid.size == 0:
            raise ValueError(f"{name} is empty: the envelope needs at least one point")
    rho = params.alpha + params.beta + 1.0
    ts, taus = (np.insert(v, range(1, v.size), 0.5 * (v[:-1] + v[1:]))
                for v in (ts, taus))
    ratio = np.abs(_phi_grid(params, ts, taus)) / ((1.0 + ts) * np.exp(-rho * ts))[:, None]
    c_star = float(np.max(ratio[::2, ::2]))  # on the calibration grid
    worst = float(np.max(ratio)) / c_star
    return EnvelopeReport(params, c_star, _ENVELOPE_SLACK, worst, worst <= _ENVELOPE_SLACK)
