"""Fourier-Jacobi analysis on [0, pi]: coefficients, Parseval sums, decay fits.

The expansion weight is w(theta) = (sin theta/2)^(2a+1) (cos theta/2)^(2b+1).
Every integral is transformed to x = cos(theta), where the weight becomes
2^(-a-b-1) (1-x)^a (1+x)^b dx and Gauss-Jacobi rules absorb the endpoint
singularities exactly.  Step functions and the power weight have their
coefficients in closed form.  Other inputs are integrated piece by piece with
mapped rules, doubling the rule size until two sizes agree.  Sup norms of
R_k are maxima over its exact critical set.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import beta as beta_function, betainc

from .specfun import (JacobiParams, _binomial_ratios, _check_degree, _jacobi_p_table,
                      h_normalizer_table, jacobi_p_one, jacobi_r, jacobi_r_table)
from .quadrature import (converge_doubling, gauss_jacobi_rule, ladder_size,
                         mapped_jacobi_rule)

__all__ = [
    "StepFunction",
    "PowerWeight",
    "CosinePoly",
    "GridSampled",
    "CoefficientSeries",
    "DecayReport",
    "ParsevalReport",
    "CounterexampleReport",
    "coefficient",
    "coefficient_series",
    "norm_l",
    "synthesize",
    "parseval_check",
    "decay_fit",
    "counterexample_slope",
    "sup_norm_r",
    "sup_norm_slope",
    "decade_max",
]


# ---------------------------------------------------------------------------
# test-function family


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function on [0, pi].

    values[i] is taken on the i-th interval cut by the breakpoints, so there
    is one more value than breakpoints.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        bp = tuple(float(t) for t in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        if any(not 0.0 < t < math.pi for t in bp):
            raise ValueError("breakpoints must lie strictly inside (0, pi)")
        if any(t1 <= t0 for t0, t1 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(vals) != len(bp) + 1:
            raise ValueError("need exactly one more value than breakpoints")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __call__(self, theta):
        idx = np.searchsorted(self.breakpoints, np.asarray(theta, dtype=float),
                              side="right")
        out = np.asarray(self.values)[idx]
        return float(out) if np.isscalar(theta) else out


@dataclass(frozen=True)
class PowerWeight:
    """f(theta) = (1 + cos theta)^rho, the moment weight of the growth example."""

    rho: float

    def __call__(self, theta):
        return (1.0 + np.cos(theta)) ** self.rho


@dataclass(frozen=True)
class CosinePoly:
    """f(theta) = sum_m c_m cos(m theta); a polynomial in cos theta."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           tuple(float(c) for c in self.coefficients))
        if not self.coefficients:
            raise ValueError("need at least one coefficient")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, theta):
        th = np.asarray(theta, dtype=float)
        out = np.zeros_like(th)
        for m, c in enumerate(self.coefficients):
            if c != 0.0:
                out += c * np.cos(m * th)
        return float(out) if np.isscalar(theta) else out


@dataclass(frozen=True)
class GridSampled:
    """Piecewise-linear interpolant of samples at angles inside (0, pi).

    Outside the sampled range the end values extend as constants.
    """

    abscissae: tuple[float, ...]
    ordinates: tuple[float, ...]

    def __post_init__(self):
        ts = tuple(float(t) for t in self.abscissae)
        ys = tuple(float(y) for y in self.ordinates)
        if len(ts) < 2 or len(ts) != len(ys):
            raise ValueError("need matching abscissae/ordinates, at least two")
        if any(not 0.0 < t < math.pi for t in ts):
            raise ValueError("abscissae must lie strictly inside (0, pi)")
        if any(t1 <= t0 for t0, t1 in zip(ts, ts[1:])):
            raise ValueError("abscissae must be strictly increasing")
        object.__setattr__(self, "abscissae", ts)
        object.__setattr__(self, "ordinates", ys)

    def __call__(self, theta):
        out = np.interp(np.asarray(theta, dtype=float), self.abscissae,
                        self.ordinates)
        return float(out) if np.isscalar(theta) else out


# ---------------------------------------------------------------------------
# piecewise integration engine (x = cos theta space)


@dataclass(frozen=True)
class _XPiece:
    lo: float
    hi: float
    g: object        # vectorized callable of x, the smooth remainder
    exp_hi: float    # power of (hi - x) absorbed into the rule
    exp_lo: float    # power of (x - lo) absorbed into the rule
    w_alpha: bool    # remainder still carries (1-x)^alpha pointwise
    w_beta: bool     # remainder still carries (1+x)^beta pointwise


def _const(v: float):
    return lambda x: np.full(np.shape(x), v)


def _compose_arccos(h):
    return lambda x: h(np.arccos(np.clip(x, -1.0, 1.0)))


def _x_piece(t0: float, t1: float, h, params: JacobiParams) -> _XPiece:
    """Wrap a theta-interval [t0, t1] with smooth theta-callable h."""
    hi = 1.0 if t0 <= 0.0 else float(np.cos(t0))
    lo = -1.0 if t1 >= math.pi else float(np.cos(t1))
    g = _const(h) if isinstance(h, float) else _compose_arccos(h)
    return _XPiece(lo, hi, g,
                   exp_hi=params.alpha if hi == 1.0 else 0.0,
                   exp_lo=params.beta if lo == -1.0 else 0.0,
                   w_alpha=hi != 1.0, w_beta=lo != -1.0)


def _theta_pieces(f) -> list[tuple[float, float, object]]:
    """Split f into theta-intervals on which it is smooth.

    Entries are (t0, t1, h) where h is either a float (constant piece) or a
    vectorized callable; exactly-zero constant pieces are dropped.
    """
    if isinstance(f, StepFunction):
        cuts = (0.0, *f.breakpoints, math.pi)
        return [(a, b, v) for a, b, v in zip(cuts, cuts[1:], f.values)
                if v != 0.0]
    if isinstance(f, GridSampled):
        ts, ys = f.abscissae, f.ordinates
        out: list[tuple[float, float, object]] = []
        if ys[0] != 0.0:
            out.append((0.0, ts[0], ys[0]))
        for t0, t1, y0, y1 in zip(ts, ts[1:], ys, ys[1:]):
            if y0 == 0.0 and y1 == 0.0:
                continue
            slope = (y1 - y0) / (t1 - t0)
            out.append((t0, t1,
                        lambda th, y0=y0, t0=t0, slope=slope:
                        y0 + slope * (np.asarray(th) - t0)))
        if ys[-1] != 0.0:
            out.append((ts[-1], math.pi, ys[-1]))
        return out
    if not callable(f):
        raise TypeError(f"not a usable function spec: {f!r}")
    return [(0.0, math.pi, f)]


def _analysis_pieces(f, params: JacobiParams) -> list[_XPiece]:
    if isinstance(f, PowerWeight):
        if params.beta + f.rho <= -1.0:
            raise ValueError("need beta + rho > -1 for an integrable weight")
        return [_XPiece(-1.0, 1.0, _const(1.0), params.alpha,
                        params.beta + f.rho, False, False)]
    return [_x_piece(t0, t1, h, params) for t0, t1, h in _theta_pieces(f)]


def _bisect(h, a: float, b: float) -> float:
    """A zero of h in [a, b], where h(a) and h(b) differ in sign, to the last bit."""
    positive_at_a = float(h(a)) > 0.0
    while a < (m := 0.5 * (a + b)) < b:
        if (float(h(m)) > 0.0) == positive_at_a:
            a = m
        else:
            b = m
    return m


def _sign_change_cuts(h, t0: float, t1: float, samples: int) -> list[float]:
    """Interior zeros of h on (t0, t1), located by sampling plus bisection."""
    ts = np.linspace(t0, t1, samples)
    if t0 <= 0.0:
        ts[0] = min(1e-9, t1 / 2)
    if t1 >= math.pi:
        ts[-1] = math.pi - 1e-9
    vals = np.asarray(h(ts), dtype=float)
    roots = []
    for a, b, va, vb in zip(ts, ts[1:], vals, vals[1:]):
        if va == 0.0:
            roots.append(float(a))
        elif va * vb < 0.0:
            roots.append(_bisect(h, float(a), float(b)))
    return sorted(set(r for r in roots if t0 < r < t1))


def _abs_pieces(f, params: JacobiParams) -> list[_XPiece]:
    """Pieces of |f|, subdividing smooth pieces at their sign changes."""
    if isinstance(f, PowerWeight):
        return _analysis_pieces(f, params)  # already positive
    out = []
    for t0, t1, h in _theta_pieces(f):
        if isinstance(h, float):
            out.append(_x_piece(t0, t1, abs(h), params))
            continue
        if isinstance(f, GridSampled):
            cuts = _sign_change_cuts(h, t0, t1, 3)
        else:
            deg = f.degree if isinstance(f, CosinePoly) else 32
            cuts = _sign_change_cuts(h, t0, t1, max(256, 16 * (deg + 2)))
        edges = [t0, *cuts, t1]
        for a, b in zip(edges, edges[1:]):
            piece = _x_piece(a, b, lambda th, h=h: np.abs(h(th)), params)
            # Cuts closer together than the resolution of cos() produce an
            # empty x-interval; those carry no mass.
            if piece.lo < piece.hi:
                out.append(piece)
    return out


def _sq_pieces(f, params: JacobiParams) -> list[_XPiece]:
    if isinstance(f, PowerWeight):
        if params.beta + 2.0 * f.rho <= -1.0:
            raise ValueError("need beta + 2 rho > -1 for a square-integrable weight")
        return [_XPiece(-1.0, 1.0, _const(1.0), params.alpha,
                        params.beta + 2.0 * f.rho, False, False)]
    return [_x_piece(t0, t1,
                     h * h if isinstance(h, float)
                     else (lambda th, h=h: np.asarray(h(th)) ** 2),
                     params)
            for t0, t1, h in _theta_pieces(f)]


def _weighted_nodes(p: _XPiece, params: JacobiParams,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the n-point rule on a piece, and its weights times the rest."""
    rule = mapped_jacobi_rule(n, p.exp_hi, p.exp_lo, p.lo, p.hi)
    x = rule.nodes
    g = np.asarray(p.g(x), dtype=float)
    if p.w_alpha:
        g = g * (1.0 - x) ** params.alpha
    if p.w_beta:
        g = g * (1.0 + x) ** params.beta
    return x, rule.weights * g


def _integrate_pieces(pieces: list[_XPiece], params: JacobiParams,
                      kmax: int, n: int) -> np.ndarray:
    """Hat-coefficient vector over k = 0..kmax from one fixed rule size."""
    total = np.zeros(kmax + 1)
    for p in pieces:
        x, u = _weighted_nodes(p, params, n)
        total += jacobi_r_table(kmax, params, x) @ u
    return total * 2.0 ** (-params.alpha - params.beta - 1.0)


def _converged_values(pieces, params, kmax, n0=None,
                      rtol=1e-10) -> np.ndarray:
    if not pieces:
        return np.zeros(kmax + 1)
    n = ladder_size(n0 if n0 is not None else max(kmax + 32, 48))
    return converge_doubling(
        lambda m: _integrate_pieces(pieces, params, kmax, m), n, rtol)


def _step_values(f: StepFunction, params: JacobiParams, kmax: int) -> np.ndarray:
    """Hat coefficients of a step function for k = 0..kmax, in closed form.

    With u = cos^2(theta/2) the weight is u^b (1-u)^a du, so hat(0) sums
    regularized incomplete beta masses of the pieces.  For k >= 1,
    -(1-x)^(a+1) (1+x)^(b+1) P_(k-1)^(a+1,b+1)(x) / (2k) is an antiderivative
    of (1-x)^a (1+x)^b P_k(x) (DLMF 18.9.16), so summing by parts leaves its
    jumps dv_j at the breakpoints t_j:
        hat(k) = -sum_j dv_j sin^(2a+2)(t_j/2) cos^(2b+2)(t_j/2)
                 P_(k-1)^(a+1,b+1)(cos t_j) / ((a+1) binom(k+a, k-1)).
    1 - x and 1 + x come from the half angles, so that a breakpoint near 0
    or pi keeps its mass.
    """
    a, b = params.alpha, params.beta
    half = 0.5 * np.array((0.0, *f.breakpoints, math.pi))
    sin_h, cos_h = np.sin(half), np.cos(half)
    cos_h[-1] = 0.0  # cos(pi/2) rounds to 6e-17
    # Regularized masses of [0, t] and of [t, pi].  Each piece takes the
    # difference of whichever is smaller, so a thin piece at an end does not
    # cancel against the whole mass.
    head = betainc(a + 1.0, b + 1.0, sin_h ** 2).tolist()
    tail = betainc(b + 1.0, a + 1.0, cos_h ** 2).tolist()
    masses = [h1 - h0 if h1 <= t0 else t0 - t1
              for h0, h1, t0, t1 in zip(head, head[1:], tail, tail[1:])]
    out = np.zeros(kmax + 1)
    out[0] = beta_function(a + 1.0, b + 1.0) * sum(v * m for v, m in zip(f.values, masses))
    if kmax >= 1:
        jumps = (-np.diff(f.values) * sin_h[1:-1] ** (2.0 * a + 2.0)
                 * cos_h[1:-1] ** (2.0 * b + 2.0)).tolist()
        # Unnormalized rows and a running-product binomial: the log-gamma
        # normalizer of R_k tables is up to 5e-13 relative off by k = 300.
        rows = _jacobi_p_table(kmax - 1, JacobiParams(a + 1.0, b + 1.0),
                               np.cos(f.breakpoints))
        # Column by column in breakpoint order: the bits of hat(k) do not
        # depend on kmax or on a BLAS thread count.
        for j, w in enumerate(jumps):
            out[1:] += rows[:, j] * w
        out[1:] /= (a + 1.0) * _binomial_ratios(kmax - 1, a + 1.0, 0.0)
    return out


def _power_values(rho: float, params: JacobiParams, kmax: int) -> np.ndarray:
    """Hat coefficients of (1 + cos theta)^rho for k = 0..kmax, in closed form.

    hat(0) = 2^rho B(a+1, b+rho+1) is a Beta integral, and the Rodrigues
    formula integrated by parts k times (cf. DLMF 18.17) gives
    hat(k) = hat(k-1) (rho+1-k) / (a+b+rho+1+k).
    """
    a, b = params.alpha, params.beta
    if b + rho <= -1.0:
        raise ValueError("need beta + rho > -1 for an integrable weight")
    head = 2.0 ** rho * math.exp(math.lgamma(a + 1.0) + math.lgamma(b + rho + 1.0)
                                 - math.lgamma(a + b + rho + 2.0))
    ks = np.arange(1.0, kmax + 1.0)
    return np.cumprod(np.concatenate(([head], (rho + 1.0 - ks) / (a + b + rho + 1.0 + ks))))


def _hat_values(f, params: JacobiParams, kmax: int, rtol: float) -> np.ndarray:
    """Hat coefficients for k = 0..kmax: in closed form for step functions and
    the power weight, else by the doubling quadrature to rtol."""
    if isinstance(f, StepFunction):
        return _step_values(f, params, kmax)
    if isinstance(f, PowerWeight):
        return _power_values(f.rho, params, kmax)
    return _converged_values(_analysis_pieces(f, params), params, kmax, rtol=rtol)


# ---------------------------------------------------------------------------
# public coefficient surface


@dataclass(frozen=True)
class CoefficientSeries:
    """Expansion coefficients for k = 0..kmax at one parameter pair.

    normalization is "hat" (coefficients against R_k) or "unnormalized"
    (against P_k, i.e. hat values scaled by P_k(1)).
    """

    params: JacobiParams
    kmax: int
    values: np.ndarray
    normalization: str = "hat"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.kmax + 1,):
            raise ValueError("values must have length kmax + 1")
        if self.normalization not in ("hat", "unnormalized"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def to_csv(self) -> str:
        lines = ["k,value"]
        lines += [f"{k},{float(v)!r}" for k, v in enumerate(self.values)]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.params.alpha,
            "beta": self.params.beta,
            "kmax": self.kmax,
            "normalization": self.normalization,
            "values": [float(v) for v in self.values],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def coefficient(f, k: int, params: JacobiParams, rtol: float = 1e-10) -> float:
    """k-th hat coefficient: the weighted integral of f against R_k.

    Entry k of the same sweep coefficient_series(f, k) takes, so it has the
    bits of that series' entry k: in closed form for step functions and the
    power weight, by the doubling quadrature otherwise.
    """
    k = _check_degree(k)
    return float(_hat_values(f, params, k, rtol)[k])


def coefficient_series(f, kmax: int, params: JacobiParams,
                       normalization: str = "hat",
                       rtol: float = 1e-10) -> CoefficientSeries:
    """All hat coefficients up to kmax in one sweep of the recurrence.

    Step functions and the power weight are summed in closed form (see
    _step_values and _power_values), exact up to rounding: against 40-digit
    mpmath they agree to within about 1e-14 of max(1, max|hat|) at kmax 1024.
    Every other input is integrated with Gauss rules, doubling the rule size
    until two sizes agree to rtol relative to max(1, max|hat|); rtol governs
    only this quadrature pathway.
    """
    if _check_degree(kmax) < 1:
        raise ValueError("kmax must be at least 1")
    vals = _hat_values(f, params, kmax, rtol)
    if normalization == "unnormalized":
        ones = np.array([jacobi_p_one(k, params) for k in range(kmax + 1)])
        vals = vals * ones
    elif normalization != "hat":
        raise ValueError(f"unknown normalization {normalization!r}")
    return CoefficientSeries(params, kmax, vals, normalization)


def _step_integral(f: StepFunction, params: JacobiParams, g) -> float:
    """The weighted integral of g(f), as hat(0) of a step in closed form.

    hat(0) takes each piece's mass from the half angles, so a breakpoint
    next to 0 or pi, where the quadrature pieces would be empty, keeps it.
    """
    values = tuple(g(v) for v in f.values)
    return float(_step_values(StepFunction(f.breakpoints, values), params, 0)[0])


def norm_l(f, params: JacobiParams) -> float:
    """Weighted L1 norm of f: the integral of |f| against the expansion weight."""
    if isinstance(f, StepFunction):
        return _step_integral(f, params, abs)
    pieces = _abs_pieces(f, params)
    return float(_converged_values(pieces, params, 0, n0=64)[0])


def synthesize(series: CoefficientSeries, theta):
    """Partial expansion sum_(k<=kmax) hat(k) h_k R_k(cos theta)."""
    if series.normalization != "hat":
        raise ValueError("synthesis needs hat-normalized coefficients")
    h = h_normalizer_table(series.kmax, series.params)
    x = np.cos(np.atleast_1d(np.asarray(theta, dtype=float)))
    tab = jacobi_r_table(series.kmax, series.params, x)
    out = (series.values * h) @ tab
    return float(out[0]) if np.isscalar(theta) else out


@dataclass(frozen=True)
class ParsevalReport:
    """Bessel partial sum against the true squared norm."""

    kmax: int
    partial_sum: float   # sum of h_k * hat(k)^2
    norm_sq: float       # integral of f^2 against the weight
    gap: float           # norm_sq - partial_sum, nonnegative up to tolerance

    @property
    def rel_gap(self) -> float:
        return self.gap / self.norm_sq if self.norm_sq > 0.0 else 0.0


def parseval_check(f, params: JacobiParams, kmax: int) -> ParsevalReport:
    """Compare the Bessel sum of squared coefficients with the squared norm."""
    series = coefficient_series(f, kmax, params)
    h = h_normalizer_table(kmax, params)
    partial = float(h @ series.values ** 2)
    if isinstance(f, StepFunction):
        norm_sq = _step_integral(f, params, lambda v: v * v)
    else:
        norm_sq = float(_converged_values(_sq_pieces(f, params), params, 0,
                                          n0=64)[0])
    return ParsevalReport(kmax, partial, norm_sq, norm_sq - partial)


# ---------------------------------------------------------------------------
# decay / growth analysis

@dataclass(frozen=True)
class DecayReport:
    """Least-squares slope of log|values| against log(k+1) over a window."""

    window: tuple[int, int]
    slope: float
    intercept: float
    r_squared: float
    max_abs_tail: float   # max |value| over the top dyadic block of the window
    skipped: int = 0      # zero entries excluded from the fit

    def __post_init__(self):
        k0, k1 = self.window
        if k1 < 2 * k0:
            raise ValueError("window must span at least one doubling (k1 >= 2 k0)")
        if not math.isfinite(self.slope):
            raise ValueError("fitted slope must be finite")


def decade_max(values: np.ndarray, lo: int, hi: int) -> float:
    """Largest |values[k]| for k in [lo, hi]."""
    if not 0 <= lo <= hi < len(values):
        raise ValueError(f"block [{lo}, {hi}] outside the series")
    return float(np.max(np.abs(values[lo:hi + 1])))


def _fit_loglog(ks: np.ndarray, vals: np.ndarray) -> tuple[float, float, float, int]:
    keep = vals != 0.0
    skipped = int(np.sum(~keep))
    if int(np.sum(keep)) < 8:
        raise ValueError("fewer than 8 nonzero points in the fit window")
    lx = np.log(ks[keep] + 1.0)
    ly = np.log(np.abs(vals[keep]))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-28 else 0.0
    else:
        r2 = max(0.0, 1.0 - ss_res / ss_tot)
    return float(slope), float(intercept), r2, skipped


def _decay_report(values: np.ndarray,
                  window: tuple[int, int] | None) -> DecayReport:
    """Log-log fit of |values[k]| over a checked window, by default (kmax/8, kmax)."""
    kmax = len(values) - 1
    if window is None:
        window = (max(kmax // 8, 1), kmax)
    k0, k1 = int(window[0]), int(window[1])
    if not 0 <= k0 < k1 <= kmax:
        raise ValueError(f"window {window} outside the series range")
    if k1 < 2 * k0:
        raise ValueError("window must span at least one doubling (k1 >= 2 k0)")
    ks = np.arange(k0, k1 + 1)
    slope, intercept, r2, skipped = _fit_loglog(ks, np.asarray(values[k0:k1 + 1]))
    tail = decade_max(values, max(k0, k1 // 2), k1)
    return DecayReport((k0, k1), slope, intercept, r2, tail, skipped)


def decay_fit(series: CoefficientSeries,
              window: tuple[int, int] | None = None) -> DecayReport:
    """Fit the decay (or growth) exponent of |coefficients| over a degree window."""
    return _decay_report(series.values, window)


@dataclass(frozen=True)
class CounterexampleReport:
    """Fitted vs predicted exponent for the power-weight moment sequence."""

    params: JacobiParams
    rho: float
    fit: DecayReport
    predicted_slope: float         # -2 rho - alpha - beta - 2
    divergence_regime: bool        # 0 < beta+rho+1 < (beta-alpha)/2
    decade_maxima: tuple[float, ...]
    series: CoefficientSeries


def counterexample_slope(params: JacobiParams, rho: float,
                         kmax: int = 1024) -> CounterexampleReport:
    """Measure the growth exponent of the (1+x)^rho moment coefficients.

    Fits |hat(k)| of the PowerWeight function over [kmax/8, kmax] and reports
    it against the predicted exponent -2 rho - alpha - beta - 2.  Nonnegative
    integer rho is rejected: the weight is then a polynomial and orthogonality
    kills every coefficient past its degree.
    """
    if rho >= 0.0 and float(rho).is_integer():
        raise ValueError("rho must not be a nonnegative integer")
    if kmax < 256:
        raise ValueError("need kmax >= 256 for a stable exponent fit")
    series = coefficient_series(PowerWeight(rho), kmax, params)
    fit = decay_fit(series, (kmax // 8, kmax))
    predicted = -2.0 * rho - params.alpha - params.beta - 2.0
    margin = params.beta + rho + 1.0
    regime = 0.0 < margin < (params.beta - params.alpha) / 2.0
    blocks = [(kmax // 8, kmax // 4), (kmax // 4, kmax // 2), (kmax // 2, kmax)]
    maxima = tuple(decade_max(series.values, lo, hi) for lo, hi in blocks)
    return CounterexampleReport(params, rho, fit, predicted, regime, maxima,
                                series)


def sup_norm_r(k: int, params: JacobiParams, region: str = "full") -> float:
    """Max of |R_k(cos theta)| over a theta region, from its exact critical set.

    region is "full" ([0, pi], x in [-1, 1]) or "right" ([pi/2, pi], x in [-1, 0]).
    The extrema lie at the region ends or at the zeros of R_k', proportional to
    P_(k-1)^(alpha+1, beta+1) (DLMF 18.9.15): the nodes of that Gauss-Jacobi
    rule of k-1 points.  Degrees above 65535 are refused.
    """
    k = _check_degree(k)
    if k > 65535:
        raise ValueError(f"degree {k} above the sup-norm limit 65535")
    if region not in ("full", "right"):
        raise ValueError(f"unknown region {region!r}")
    x_hi = 1.0 if region == "full" else 0.0
    x = np.array([-1.0, x_hi])
    if k >= 2:  # the rule's nodes lie strictly inside (-1, 1)
        nodes = gauss_jacobi_rule(k - 1, params.alpha + 1.0, params.beta + 1.0).nodes
        x = np.concatenate((x, nodes[nodes < x_hi]))
    return float(np.max(np.abs(jacobi_r(k, params, x))))


def sup_norm_slope(params: JacobiParams, ks=None,
                   region: str = "full") -> DecayReport:
    """Growth exponent of the sup norms over a geometric ladder of degrees."""
    if ks is None:
        ks = np.unique(np.rint(np.geomspace(64, 1024, 9)).astype(int))
    ks = np.asarray(ks, dtype=int)
    sups = np.array([sup_norm_r(int(k), params, region) for k in ks])
    slope, intercept, r2, skipped = _fit_loglog(ks.astype(float), sups)
    k0, k1 = int(ks[0]), int(ks[-1])
    tail = float(np.max(sups[ks >= k1 // 2]))
    return DecayReport((k0, k1), slope, intercept, r2, tail, skipped)
