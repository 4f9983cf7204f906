"""Fourier-Jacobi analysis on [0, pi]: coefficients, Parseval sums, decay fits.

The expansion weight is w(theta) = (sin theta/2)^(2a+1) (cos theta/2)^(2b+1).
In x = cos(theta) it becomes 2^(-a-b-1) (1-x)^a (1+x)^b dx.  Coefficients,
L1 norms and squared norms are the hat values of f, |f| and f^2, split by
one piece builder (_pieces) and summed by one dispatcher (_values).  Step
functions, the power weight and the constant end pieces of a grid have their
coefficients in closed form.  A cosine polynomial of degree d, and its square,
are polynomials in x: their hat(k) are exactly 0 past the degree and come from
one Gauss-Jacobi rule in x of degree + 1 points below it.  Other inputs are
integrated piece by piece in theta, all pieces doubling together until two
sizes agree; each piece takes its rule for the end powers theta^(2a+1) and
(pi - theta)^(2b+1) of the weight from quadrature._anchored_rule.  Each
piece starts from a rule sized by the angle it spans.  Sup norms of R_k are
maxima over the few critical points that Sonin's function leaves as
candidates.
"""

import math
from dataclasses import dataclass
from itertools import pairwise

import numpy as np
from numpy.polynomial.chebyshev import chebmul, chebval
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import beta as beta_function, betainc

from .specfun import (JacobiParams, _binomial_ratios, _check_degree, _check_finite,
                      _check_knots, _jacobi_p_table, _jacobi_r_sums, h_normalizer_table,
                      jacobi_r, jacobi_r_table)
from .quadrature import (_anchored_rule, _check_rtol, _jacobi_coeffs, converge_doubling,
                         ladder_size, mapped_jacobi_rule)

__all__ = [
    "StepFunction",
    "PowerWeight",
    "CosinePoly",
    "GridSampled",
    "CoefficientSeries",
    "DecayReport",
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
        bp, vals = _check_knots("breakpoints", self.breakpoints, self.values,
                                math.pi, least=0, extra=1)
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
        ts, ys = _check_knots("abscissae", self.abscissae, self.ordinates, math.pi, least=2)
        object.__setattr__(self, "abscissae", ts)
        object.__setattr__(self, "ordinates", ys)

    def __call__(self, theta):
        out = np.interp(np.asarray(theta, dtype=float), self.abscissae,
                        self.ordinates)
        return float(out) if np.isscalar(theta) else out


# ---------------------------------------------------------------------------
# piecewise integration engine, in theta


@dataclass(frozen=True)
class _ThetaPiece:
    """A piece [t0, t1] of [0, pi], integrated in theta (see _weighted_nodes)."""

    t0: float
    t1: float
    h: object         # vectorized callable of theta
    rho: float = 0.0  # power of (1 + cos theta) beyond beta, for the power weight

    @property
    def span(self) -> float:
        return self.t1 - self.t0


def _pieces(f, g=None) -> list[_ThetaPiece]:
    """g(f) as pieces on which it is smooth; g is None (f), abs or np.square.

    Zero pieces are dropped, and a grid gives its linear interior pieces only
    (_values sums its constant ends in closed form).  abs cuts the pieces at
    sign changes of f and keeps f on each, not |f|: a piece next to an end
    may be integrated as a difference of two pieces from that end (see
    _weighted_nodes), so h must continue smoothly past the piece, and
    _converged_values sums the magnitudes of the pieces' integrals.  The power
    weight, which _values sums in closed form, gives one reference piece,
    for f itself.
    """
    if isinstance(f, PowerWeight):
        return [_ThetaPiece(0.0, math.pi, np.ones_like, f.rho)]
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
    elif g is not None:
        parts = [(a, b, lambda th, h=h: g(h(th))) for a, b, h in parts]
    return [_ThetaPiece(t0, t1, h) for t0, t1, h in parts]


def _grid_ends(f: GridSampled) -> StepFunction:
    """The constant end pieces [0, t_0] and [t_last, pi] of a grid, as a step."""
    return StepFunction((f.abscissae[0], f.abscissae[-1]),
                        (f.ordinates[0], 0.0, f.ordinates[-1]))


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


def _weighted_nodes(p: _ThetaPiece, params: JacobiParams,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x = cos theta of the n-point rule on a piece, and its weights
    times the rest of the integrand.

    The rule is in theta, where R_k oscillates evenly and the input of a
    grid is linear.  With s = sin(theta/2) and c = sin((pi - theta)/2),
    (1-x)^alpha (1+x)^beta dx = 2^(alpha+beta+1) s^(2 alpha+1) c^(2 beta+1)
    dtheta, so 1 - x and 1 + x keep full precision next to both ends
    (cos(theta/2) would keep only an absolute one next to pi, where at beta
    near -1 the nodes carry most of the mass).  hat(k) carries the factor
    2^(-alpha-beta-1), so the weight taken here is s^(2 alpha+1)
    c^(2 beta+1), and 2^rho s^(2 alpha+1) c^(2 beta+2 rho+1) for the power
    weight, whose b below is beta + rho.  Its end powers
    theta^(2 alpha+1) and (pi - theta)^(2 beta+1) go to
    quadrature._anchored_rule, and the weight is divided by those the rule
    carries in log space, so it stays finite at any exponents.
    """
    a, b = params.alpha, params.beta + p.rho
    t, w, l = _anchored_rule(n, p.t0, p.t1, 2.0 * a + 1.0, 2.0 * b + 1.0, math.pi)
    s, c = np.sin(0.5 * t), np.sin(0.5 * (math.pi - t))
    w = w * 2.0 ** p.rho * np.exp((2.0 * a + 1.0) * np.log(s)
                                  + (2.0 * b + 1.0) * np.log(c) - l)
    return np.cos(t), w * np.asarray(p.h(t), dtype=float)


def _integrate_pieces(pieces: list, params: JacobiParams,
                      kmax: int, sizes: list[int]) -> np.ndarray:
    """Hat-coefficient vector over k = 0..kmax from one fixed rule size per piece.

    One recurrence runs over the nodes of all pieces and sums R_k against
    their weights degree by degree, so no (kmax+1) x n table is built.
    """
    x, u = zip(*(_weighted_nodes(p, params, n) for p, n in zip(pieces, sizes)))
    return _jacobi_r_sums(kmax, params, np.concatenate(x), np.concatenate(u))


def _converged_values(pieces, params, kmax, rtol=1e-10,
                      magnitudes: bool = False, ends=None) -> np.ndarray:
    """Hat coefficients of the pieces for k = 0..kmax, by doubling to rtol;
    with magnitudes, the sum of their magnitudes over the pieces.  ends, a
    grid's closed-form end pieces, are added before each comparison, so the
    stop test sees the whole series, as coefficient_series states it.

    R_k has about k dtheta / pi half-oscillations on a piece that spans the
    angle dtheta, so each piece starts at the ladder size at or above
    1.5 ((kmax + 1) // 2) dtheta / pi + 32, capped at N, the ladder size at
    or above (kmax + 1) // 2 + 32.  The cap bounds only the first rung: past
    kmax ~ 100, N nodes in theta do not yet resolve R_kmax on [0, pi], which
    takes about pi kmax / 4, so a piece spanning [0, pi], every callable
    among them, settles at 2N against 4N.  All pieces double together, and
    converge_doubling caps the largest.  The magnitudes give |f| from the
    sign-definite pieces of _pieces(f, abs), as laguerre_norm does: a piece
    that _anchored_rule splits has negative weights, so |h| node by node
    would be wrong.
    """
    if not pieces:
        return np.zeros(kmax + 1)  # a grid with no interior pieces is 0, ends too
    half = (kmax + 1) // 2
    cap = ladder_size(half + 32)
    base = [min(cap, ladder_size(math.ceil(1.5 * half * p.span / math.pi) + 32))
            for p in pieces]
    top = max(base)

    def evaluate(m: int) -> np.ndarray:
        sizes = [n * m // top for n in base]
        if magnitudes:
            vals = sum(np.abs(_integrate_pieces([p], params, kmax, [n]))
                       for p, n in zip(pieces, sizes))
        else:
            vals = _integrate_pieces(pieces, params, kmax, sizes)
        return vals if ends is None else ends + vals

    return converge_doubling(evaluate, top, rtol)


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
    # cancel against the whole mass.  Where sin^2(t/2) > 3/4 the head is
    # 1 - tail, and where cos^2(t/2) > 3/4 the tail is 1 - head: an argument
    # near 1 keeps only an absolute precision in its distance from 1, which
    # a thin piece at the far end would lose.  The switch is off pi/2, where
    # both are accurate, so a breakpoint there keeps its direct values.
    s2, c2 = sin_h ** 2, cos_h ** 2
    head, tail = betainc(a + 1.0, b + 1.0, s2), betainc(b + 1.0, a + 1.0, c2)
    head, tail = (np.where(s2 > 0.75, 1.0 - tail, head).tolist(),
                  np.where(c2 > 0.75, 1.0 - head, tail).tolist())
    masses = [h1 - h0 if h1 <= t0 else t0 - t1
              for h0, h1, t0, t1 in zip(head, head[1:], tail, tail[1:])]
    out = np.zeros(kmax + 1)
    out[0] = beta_function(a + 1.0, b + 1.0) * sum(v * m for v, m in zip(f.values, masses))
    if kmax >= 1:
        jumps = (-np.diff(f.values) * sin_h[1:-1] ** (2.0 * a + 2.0)
                 * cos_h[1:-1] ** (2.0 * b + 2.0)).tolist()
        # Unnormalized rows, divided by their binomial after the sum: rows of
        # jacobi_r_table would give the same values in other last bits.
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


def _cospoly_values(c: np.ndarray, params: JacobiParams, kmax: int) -> np.ndarray:
    """Hat coefficients of sum_m c_m T_m(x) for k = 0..kmax, exactly.

    cos(m theta) = T_m(x), so the input is a polynomial of degree D in x.
    R_k is orthogonal to every polynomial of lower degree, so hat(k) = 0 for
    k > D, and the (D+1)-point Gauss-Jacobi rule integrates R_k times the
    input, of degree at most 2D, exactly for k <= D (Szego 1975; DLMF 18.2).
    """
    a, b = params.alpha, params.beta
    top = min(len(c) - 1, kmax)
    rule = mapped_jacobi_rule(len(c), a, b, -1.0, 1.0)
    vals = _jacobi_r_sums(top, params, rule.nodes, rule.weights * chebval(rule.nodes, c))
    return np.pad(vals * 2.0 ** (-a - b - 1.0), (0, kmax - top))


def _values(f, params: JacobiParams, kmax: int, g=None, rtol: float = 1e-10) -> np.ndarray:
    """Hat coefficients of g(f) for k = 0..kmax, g as in _pieces; entry 0 is
    the weighted integral of g(f).

    Steps, a grid's constant ends and the power weight (|f| = f, and f^2 is
    the power weight of exponent 2 rho) are summed in closed form.  A step's
    masses come from the half angles, so a breakpoint next to 0 or pi, where
    quadrature pieces would be empty, keeps its mass.
    A cosine polynomial and its square take one rule of the exact size.
    Everything else, |cosine polynomial| included, takes the doubling
    quadrature to rtol.
    """
    _check_rtol(rtol)
    if isinstance(f, StepFunction):
        if g is not None:
            f = StepFunction(f.breakpoints, tuple(g(v) for v in f.values))
        return _step_values(f, params, kmax)
    if isinstance(f, PowerWeight):
        if g is np.square and params.beta + 2.0 * f.rho <= -1.0:
            raise ValueError("need beta + 2 rho > -1 for a square-integrable weight")
        return _power_values(2.0 * f.rho if g is np.square else f.rho, params, kmax)
    if isinstance(f, CosinePoly) and g in (None, np.square):
        c = np.array(f.coefficients)
        return _cospoly_values(c if g is None else chebmul(c, c), params, kmax)
    ends = _values(_grid_ends(f), params, kmax, g) if isinstance(f, GridSampled) else None
    return _converged_values(_pieces(f, g), params, kmax, rtol, g is abs, ends)


# ---------------------------------------------------------------------------
# public coefficient surface


def _check_normalization(normalization: str) -> None:
    if normalization not in ("hat", "unnormalized"):
        raise ValueError(f"unknown normalization {normalization!r}")


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
        _check_normalization(self.normalization)
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def coefficient(f, k: int, params: JacobiParams, rtol: float = 1e-10) -> float:
    """k-th hat coefficient: the weighted integral of f against R_k.

    Entry k of the same sweep coefficient_series(f, k) takes, so it has the
    bits of that series' entry k: in closed form for step functions and the
    power weight, from one exact rule for a cosine polynomial, by the
    doubling quadrature otherwise.
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
    A cosine polynomial of degree d takes one (d+1)-point Gauss-Jacobi rule,
    exact up to rounding, and exact zeros past d (see _cospoly_values).
    Every other input is integrated with Gauss rules, doubling the rule size
    until two sizes agree to rtol relative to max(1, max|hat|); rtol governs
    only this quadrature pathway, but a NaN or negative rtol is refused on
    every pathway.
    """
    if _check_degree(kmax) < 1:
        raise ValueError("kmax must be at least 1")
    _check_normalization(normalization)
    vals = _values(f, params, kmax, rtol=rtol)
    if normalization == "unnormalized":
        vals = vals * _binomial_ratios(kmax, params.alpha, 0.0)
    return CoefficientSeries(params, kmax, vals, normalization)


def norm_l(f, params: JacobiParams) -> float:
    """Weighted L1 norm of f: the integral of |f| against the expansion weight."""
    return float(_values(f, params, 0, abs)[0])


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
    norm_sq = float(_values(f, params, 0, np.square)[0])
    return ParsevalReport(kmax, partial, norm_sq, norm_sq - partial)


# ---------------------------------------------------------------------------
# decay / growth analysis

@dataclass(frozen=True)
class DecayReport:
    """Least-squares slope of log|values| against log(k+1) over a window.

    Zero entries are left out of the fit.  When every entry in the window is
    0, as past the degree of a polynomial input, the fit is that of an
    empty system, the minimum-norm least-squares solution np.linalg.lstsq
    gives for zero rows: slope, intercept, r_squared and max_abs_tail are
    0.0, and skipped is the window length.
    """

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


def _fit(ks: np.ndarray, values: np.ndarray) -> DecayReport:
    """Log-log fit of |values| against ks + 1, over the window (ks[0], ks[-1]).

    Zero entries are skipped: 1 to 7 nonzero entries are too few for a slope,
    and none at all give the empty fit.  max_abs_tail is taken over
    ks >= ks[-1] // 2.
    """
    if ks.size < 2:
        raise ValueError(f"a fit window needs at least two degrees, got {ks.size}")
    keep = values != 0.0
    window, skipped = (int(ks[0]), int(ks[-1])), int(np.sum(~keep))
    tail = float(np.max(np.abs(values[ks >= ks[-1] // 2])))
    if not keep.any():
        return DecayReport(window, 0.0, 0.0, 0.0, tail, skipped)
    if int(np.sum(keep)) < 8:
        raise ValueError("fewer than 8 nonzero points in the fit window")
    lx = np.log(ks[keep] + 1.0)
    ly = np.log(np.abs(values[keep]))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-28 else 0.0
    else:
        r2 = max(0.0, 1.0 - ss_res / ss_tot)
    return DecayReport(window, float(slope), float(intercept), r2, tail, skipped)


def _decay_report(values: np.ndarray) -> DecayReport:
    """Log-log fit of |values[k]| over the window (max(kmax/8, 1), kmax)."""
    k0 = max((len(values) - 1) // 8, 1)
    return _fit(np.arange(k0, len(values)), values[k0:])


def decay_fit(series: CoefficientSeries) -> DecayReport:
    """Fit the decay (or growth) exponent of |coefficients| over (kmax/8, kmax)."""
    return _decay_report(series.values)


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
    fit = decay_fit(series)
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


# Degrees of the sup-norm fit: nine rungs of a geometric ladder from 64 to 1024.
_SUP_DEGREES = (64, 91, 128, 181, 256, 362, 512, 724, 1024)


def sup_norm_slope(params: JacobiParams, region: str = "full") -> DecayReport:
    """Growth exponent of the sup norms over the degree ladder _SUP_DEGREES."""
    sups = np.array([sup_norm_r(k, params, region) for k in _SUP_DEGREES])
    return _fit(np.array(_SUP_DEGREES), sups)
