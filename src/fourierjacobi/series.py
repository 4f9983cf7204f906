"""Fourier-Jacobi analysis on [0, pi]: coefficients, Parseval sums, decay fits.

The expansion weight is w(theta) = (sin theta/2)^(2a+1) (cos theta/2)^(2b+1).
Every integral is transformed to x = cos(theta), where the weight becomes
2^(-a-b-1) (1-x)^a (1+x)^b dx and Gauss-Jacobi rules absorb the endpoint
singularities exactly.  Coefficients, L1 norms and squared norms are the hat
values of f, |f| and f^2, split by one piece builder (_pieces) and summed by
one dispatcher (_values).  Step functions, the power weight and the constant
end pieces of a grid have their coefficients in closed form.  Other inputs
are integrated piece by piece with mapped rules, doubling the rule size from
the size that is exact for R_k times a polynomial of degree below 64 until
two sizes agree.  Sup norms of R_k are maxima over the few critical points
that Sonin's function leaves as candidates.
"""

import math
from dataclasses import dataclass
from itertools import pairwise

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import beta as beta_function, betainc

from .specfun import (JacobiParams, _binomial_ratios, _check_degree, _check_finite,
                      _jacobi_p_table, _jacobi_r_sums, h_normalizer_table, jacobi_p_one,
                      jacobi_r, jacobi_r_table)
from .quadrature import (_jacobi_coeffs, converge_doubling, ladder_size,
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
        _check_finite(*bp, *vals)
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

    def __post_init__(self):
        _check_finite(self.rho)

    def __call__(self, theta):
        return (1.0 + np.cos(theta)) ** self.rho


@dataclass(frozen=True)
class CosinePoly:
    """f(theta) = sum_m c_m cos(m theta); a polynomial in cos theta."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           tuple(float(c) for c in self.coefficients))
        _check_finite(*self.coefficients)
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

    Outside the sampled range the end values extend as constants.  Those end
    pieces are summed in closed form, as a step function (see _grid_ends).
    """

    abscissae: tuple[float, ...]
    ordinates: tuple[float, ...]

    def __post_init__(self):
        ts = tuple(float(t) for t in self.abscissae)
        ys = tuple(float(y) for y in self.ordinates)
        _check_finite(*ts, *ys)
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
    g: object         # vectorized callable of x, the smooth remainder
    rho: float = 0.0  # power of (1+x) beyond beta, for the power weight


def _pieces(f, params: JacobiParams, g=None) -> list[_XPiece]:
    """g(f) as x-pieces on which it is smooth; g is None (f), abs or np.square.

    Zero pieces are dropped, and a grid gives its linear interior pieces only
    (_values sums its constant ends in closed form).  abs cuts the pieces at
    sign changes of f and drops those empty in x: cuts closer than the
    resolution of cos() carry no mass.  np.square doubles the power weight's
    exponent.
    """
    if isinstance(f, PowerWeight):
        rho = 2.0 * f.rho if g is np.square else f.rho
        if params.beta + rho <= -1.0:
            raise ValueError("need beta + 2 rho > -1 for a square-integrable weight"
                             if g is np.square else
                             "need beta + rho > -1 for an integrable weight")
        return [_XPiece(-1.0, 1.0, np.ones_like, rho)]
    if isinstance(f, StepFunction):
        cuts = (0.0, *f.breakpoints, math.pi)
        parts = [(a, b, lambda th, v=v: np.full_like(th, v))
                 for a, b, v in zip(cuts, cuts[1:], f.values) if v != 0.0]
    elif isinstance(f, GridSampled):
        ts, ys = f.abscissae, f.ordinates
        parts = [(t0, t1, lambda th, y0=y0, t0=t0, slope=(y1 - y0) / (t1 - t0):
                  y0 + slope * (np.asarray(th) - t0))
                 for t0, t1, y0, y1 in zip(ts, ts[1:], ys, ys[1:])
                 if y0 != 0.0 or y1 != 0.0]
    elif callable(f):
        parts = [(0.0, math.pi, f)]
    else:
        raise TypeError(f"not a usable function spec: {f!r}")
    if g is abs:
        deg = f.degree if isinstance(f, CosinePoly) else 32
        samples = 3 if isinstance(f, GridSampled) else max(256, 16 * (deg + 2))
        parts = [(a, b, h) for t0, t1, h in parts
                 for a, b in pairwise([t0, *_sign_change_cuts(h, t0, t1, samples), t1])]
    if g is not None:
        parts = [(a, b, lambda th, h=h: g(h(th))) for a, b, h in parts]
    out = []
    for t0, t1, h in parts:
        hi = 1.0 if t0 <= 0.0 else float(np.cos(t0))
        lo = -1.0 if t1 >= math.pi else float(np.cos(t1))
        if g is not abs or lo < hi:
            out.append(_XPiece(lo, hi, lambda x, h=h: h(np.arccos(np.clip(x, -1.0, 1.0)))))
    return out


def _grid_ends(f: GridSampled) -> StepFunction:
    """The constant end pieces [0, t_0] and [t_last, pi] of a grid, as a step.

    An end whose x interval rounds to empty is left out: the interior piece
    next to it then reaches x = +-1 in _pieces and carries that mass.
    """
    t0, t1 = f.abscissae[0], f.abscissae[-1]
    return StepFunction((t0, t1), (f.ordinates[0] if np.cos(t0) < 1.0 else 0.0, 0.0,
                                   f.ordinates[-1] if np.cos(t1) > -1.0 else 0.0))


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


def _weighted_nodes(p: _XPiece, params: JacobiParams,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the n-point rule on a piece, and its weights times the rest.

    An end at x = 1 puts (1-x)^alpha into the rule and an end at x = -1 puts
    (1+x)^(beta+rho) there; at any other end the factor is multiplied in at
    the nodes.
    """
    a, b = params.alpha, params.beta
    rule = mapped_jacobi_rule(n, a if p.hi == 1.0 else 0.0,
                              b + p.rho if p.lo == -1.0 else 0.0, p.lo, p.hi)
    x = rule.nodes
    g = np.asarray(p.g(x), dtype=float)
    if p.hi != 1.0:
        g = g * (1.0 - x) ** a
    if p.lo != -1.0:
        g = g * (1.0 + x) ** b
    return x, rule.weights * g


def _integrate_pieces(pieces: list[_XPiece], params: JacobiParams,
                      kmax: int, n: int) -> np.ndarray:
    """Hat-coefficient vector over k = 0..kmax from one fixed rule size.

    One recurrence runs over the nodes of all pieces and sums R_k against
    their weights degree by degree, so no (kmax+1) x n table is built.
    """
    x, u = zip(*(_weighted_nodes(p, params, n) for p in pieces))
    return (_jacobi_r_sums(kmax, params, np.concatenate(x), np.concatenate(u))
            * 2.0 ** (-params.alpha - params.beta - 1.0))


def _converged_values(pieces, params, kmax, n0=None,
                      rtol=1e-10) -> np.ndarray:
    """Hat coefficients of the pieces for k = 0..kmax, by doubling to rtol.

    The first size n is the ladder size at or above (kmax + 1) // 2 + 32, so
    its rule is exact for R_k times any polynomial of degree below 64: the
    first comparison, n against 2n, already settles a polynomial input.
    """
    if not pieces:
        return np.zeros(kmax + 1)
    n = ladder_size(n0 if n0 is not None else (kmax + 1) // 2 + 32)
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


def _values(f, params: JacobiParams, kmax: int, g=None, rtol: float = 1e-10,
            n0: int | None = None) -> np.ndarray:
    """Hat coefficients of g(f) for k = 0..kmax, g as in _pieces; entry 0 is
    the weighted integral of g(f).

    Steps, a grid's constant ends and the power weight itself are summed in
    closed form.  A step's masses come from the half angles, so a breakpoint
    next to 0 or pi, where quadrature pieces would be empty, keeps its mass.
    Everything else takes the doubling quadrature to rtol, from n0 if given.
    """
    if isinstance(f, StepFunction):
        if g is not None:
            f = StepFunction(f.breakpoints, tuple(g(v) for v in f.values))
        return _step_values(f, params, kmax)
    if isinstance(f, PowerWeight) and g is None:
        return _power_values(f.rho, params, kmax)
    vals = _converged_values(_pieces(f, params, g), params, kmax, n0, rtol)
    if isinstance(f, GridSampled):
        vals = _values(_grid_ends(f), params, kmax, g) + vals
    return vals


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


def coefficient(f, k: int, params: JacobiParams, rtol: float = 1e-10) -> float:
    """k-th hat coefficient: the weighted integral of f against R_k.

    Entry k of the same sweep coefficient_series(f, k) takes, so it has the
    bits of that series' entry k: in closed form for step functions and the
    power weight, by the doubling quadrature otherwise.
    """
    k = _check_degree(k)
    return float(_values(f, params, k, rtol=rtol)[k])


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
    vals = _values(f, params, kmax, rtol=rtol)
    if normalization == "unnormalized":
        ones = np.array([jacobi_p_one(k, params) for k in range(kmax + 1)])
        vals = vals * ones
    elif normalization != "hat":
        raise ValueError(f"unknown normalization {normalization!r}")
    return CoefficientSeries(params, kmax, vals, normalization)


def norm_l(f, params: JacobiParams) -> float:
    """Weighted L1 norm of f: the integral of |f| against the expansion weight."""
    return float(_values(f, params, 0, abs, n0=64)[0])


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
    norm_sq = float(_values(f, params, 0, np.square, n0=64)[0])
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


def _count_below(d: list, e2: list, sigma: float) -> int:
    """Eigenvalues below sigma of the Jacobi matrix with diagonal d and squared
    off-diagonal e2[1:]: the negative pivots of the LDL^T factorization of
    J - sigma I (Sturm's count)."""
    count, q = 0, 1.0
    for a, b in zip(d, [0.0, *e2[1:]]):
        q = (a - sigma) - b / q
        if q < 0.0:
            count += 1
        elif q == 0.0:
            q = 5e-324
    return count


def sup_norm_r(k: int, params: JacobiParams, region: str = "full") -> float:
    """Max of |R_k(cos theta)| over a theta region, from at most four candidates.

    region is "full" ([0, pi], x in [-1, 1]) or "right" ([pi/2, pi], x in [-1, 0]).
    The critical points of R_k are the zeros of P_(k-1)^(alpha+1, beta+1)
    (DLMF 18.9.15), where R_k^2 equals the Sonin function
    f = R_k^2 + (1 - x^2) R_k'^2 / (k (k + alpha + beta + 1)).  f' has the sign
    of s(x) = (alpha - beta) + (alpha + beta + 1) x (Szego Thm 7.32.1,
    DLMF 18.14(iii)), so the critical values rise where s > 0 and fall where
    s < 0.  Besides the region ends -1 and x_hi, only the zero just below x_hi
    (when x_hi < 1 and s(x_hi) >= 0) and the zeros on either side of
    x0 = (beta - alpha) / (alpha + beta + 1) (when alpha + beta + 1 < 0 and x0
    lies inside) can hold the max.  Each such zero is one eigenvalue of the
    Jacobi matrix, found by bisection with its index from a Sturm count, so no
    rule is built.  Degrees above 65535 are refused.
    """
    k = _check_degree(k)
    if k > 65535:
        raise ValueError(f"degree {k} above the sup-norm limit 65535")
    if region not in ("full", "right"):
        raise ValueError(f"unknown region {region!r}")
    a, b = params.alpha, params.beta
    x_hi = 1.0 if region == "full" else 0.0
    x = [-1.0, x_hi]
    c = a + b + 1.0
    at_end = x_hi < 1.0 and (a - b) + c * x_hi >= 0.0
    x0 = (b - a) / c if c < 0.0 else math.inf
    if k >= 2 and (at_end or -1.0 < x0 < x_hi):
        d, e2 = _jacobi_coeffs(k - 1, a + 1.0, b + 1.0)
        m = _count_below(d.tolist(), e2.tolist(), x_hi if at_end else x0)
        # zeros m - 1 and m lie on either side of x0; zero m - 1 just below x_hi
        first, last = max(m - 1, 0), (m - 1 if at_end else min(m, k - 2))
        if first <= last:
            zeros = eigvalsh_tridiagonal(d, np.sqrt(e2[1:]), select="i",
                                         select_range=(first, last))
            x += [t for t in zeros.tolist() if t < x_hi]
    return max(abs(jacobi_r(k, params, t)) for t in x)


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
