"""Special-function kernels: Jacobi and Laguerre polynomials, Gauss 2F1, norm constants.

Each family has one forward three-term recurrence, shared by its scalar,
array and table variants and by the weighted sums sum_j R_k(x_j) u_j that
the coefficient quadrature takes without a table.  The normalized variants
divide by the value at the right endpoint (x = 1 for Jacobi, x = 0 for
Laguerre), binom(k + alpha, k) in both families, so that every family starts
at exactly 1 there.  That binomial and the norm constants h_k are running
products (_binomial_ratios, h_normalizer_table), never log-gamma
differences.  At x = -1, where the first Jacobi step cancels and the
recurrence amplifies it, the Jacobi variants take the closed-form endpoint
value instead.

Gauss 2F1 is SciPy's ufunc, kept to the arguments the integral formulas
need: [0, 1) for arrays, and z = 1 through the Gauss sum when c - a - b > 0.
"""

from dataclasses import dataclass
from itertools import pairwise
from math import exp, isfinite

import numpy as np
from scipy.special import beta as beta_function, gammaln, gammasgn, hyp2f1 as _scipy_hyp2f1

from .errors import AccuracyError

__all__ = [
    "JacobiParams",
    "jacobi_p",
    "jacobi_r",
    "jacobi_p_one",
    "jacobi_r_table",
    "laguerre_l",
    "laguerre_r",
    "laguerre_r_table",
    "hyp2f1",
    "h_normalizer_table",
]

_X_SLACK = 1e-12  # quadrature nodes may stick out of [-1, 1] by roundoff


@dataclass(frozen=True)
class JacobiParams:
    """Exponent pair (alpha, beta) of a Jacobi weight, both finite and > -1."""

    alpha: float
    beta: float

    def __post_init__(self):
        _check_exponent(self.alpha)
        _check_exponent(self.beta)

    @property
    def in_s(self) -> bool:
        """True when alpha >= beta and alpha >= -1/2 (the bounded-polynomial region)."""
        return self.alpha >= self.beta and self.alpha >= -0.5


@dataclass(frozen=True)
class PolyValue:
    """A polynomial value together with the pathway that produced it."""

    degree: int
    value: float
    pathway: str  # "recurrence", "mehler-integral", or "limit-formula"


def _check_finite(*values: float) -> None:
    """Raise ValueError unless every number of a function spec is finite."""
    if not all(isfinite(v) for v in values):
        raise ValueError("function spec parameters must be finite")


def _check_knots(name: str, knots, values, top: float, least: int,
                 extra: int = 0) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The knots and values of a piecewise spec, as float tuples.

    Raises ValueError unless every number is finite, there are at least
    `least` knots and `extra` more values than knots, and the knots
    increase strictly inside (0, top).
    """
    ks, vs = tuple(float(t) for t in knots), tuple(float(v) for v in values)
    _check_finite(*ks, *vs)
    if len(ks) < least:
        raise ValueError(f"{name}: need at least {least}, got {len(ks)}")
    if len(vs) != len(ks) + extra:
        raise ValueError(f"values: need {len(ks) + extra} for {len(ks)} {name}, got {len(vs)}")
    if not all(t0 < t1 for t0, t1 in pairwise((0.0, *ks, top))):
        raise ValueError(f"{name} must increase strictly inside (0, {top:g}), got {ks}")
    return ks, vs


def _check_exponent(e: float) -> float:
    """e as a float, or ValueError unless it is a weight exponent: > -1 and finite."""
    if not -1.0 < e < np.inf:
        raise ValueError(f"exponent must be > -1 and finite, got {e}")
    return float(e)


def _check_degree(k) -> int:
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {k!r}")
    return int(k)


def _recurrence(k: int, x, p1, c1, c2, c3, c4, rows=None, weights=None):
    """P_k(x) from P_0 = 1, P_1 = p1 and P_m = ((c2 + c3 x) P_{m-1} - c4 P_{m-2}) / c1.

    c1..c4 hold the constants for m = 2..k.  A 0-d x runs on Python floats;
    an array x runs in place, P_m going to row m % len(rows) of rows: a full
    table, or two buffers (one freed 2-row block raises malloc's mmap threshold).
    With weights (an array like x), the sums sum_j P_m(x_j) weights_j for
    m = 0..k are returned instead: each row is reduced by numpy's pairwise sum
    as soon as it is made, so only the two buffers are kept and no BLAS
    product is taken.
    """
    steps = zip(c1.tolist(), c2.tolist(), c3.tolist(), c4.tolist())
    if rows is None and x.ndim == 0:
        x, p, pm1 = float(x), float(p1), 1.0
        for d1, d2, d3, d4 in steps:
            p, pm1 = ((d2 + d3 * x) * p - d4 * pm1) / d1, p
        return p if k else pm1
    if rows is None:
        rows = [np.ones_like(x), p1]
    else:
        rows[0], rows[1:2] = 1.0, p1
    n, pm1, p, tmp = len(rows), rows[0], rows[min(k, 1)], np.empty_like(x)
    if weights is not None:
        sums = np.empty(k + 1)
        sums[0] = weights.sum()
        if k:
            sums[1] = np.multiply(p1, weights, tmp).sum()
    for m, (d1, d2, d3, d4) in enumerate(steps, start=2):
        nxt = rows[m % n]  # with two buffers this is P_{m-2}, already read
        np.multiply(d4, pm1, tmp)
        if d3 == -1.0:  # Laguerre: d2 - x has the bits of d2 + (-1) x, in one pass
            np.subtract(d2, x, nxt)
        else:
            np.multiply(d3, x, nxt)
            nxt += d2
        nxt *= p
        nxt -= tmp
        nxt /= d1
        pm1, p = p, nxt
        if weights is not None:
            sums[m] = np.multiply(nxt, weights, tmp).sum()
    return rows[k % n] if weights is None else sums


def _jacobi(k: int, params: JacobiParams, x, rows=None, weights=None):
    """P_k(x) by the Jacobi step, for x (0-d or array of floats) in [-1, 1]."""
    if not np.all(np.abs(x) <= 1.0 + _X_SLACK):  # also rejects NaN
        raise ValueError("argument outside [-1, 1] or NaN")
    a, b = params.alpha, params.beta
    m = np.arange(2.0, k + 1.0)
    s = 2.0 * m + a + b
    c1 = 2.0 * m * (m + a + b) * (s - 2.0)
    if not np.all(c1):
        raise ValueError("alpha + beta within rounding of -2: the Jacobi step divides by 0")
    return _recurrence(k, x, (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0,
                       c1, (s - 1.0) * (a * a - b * b),
                       (s - 1.0) * s * (s - 2.0), 2.0 * (m + a - 1.0) * (m + b - 1.0) * s,
                       rows, weights)


def _laguerre(k: int, alpha: float, x, rows=None, weights=None):
    """L_k^alpha(x) by the Laguerre step, for x (0-d or array of floats) >= 0."""
    _check_exponent(alpha)
    if not np.all((x >= 0.0) & (x < np.inf)):
        raise ValueError("Laguerre argument must be finite and nonnegative")
    m = np.arange(2.0, k + 1.0)
    return _recurrence(k, x, 1.0 + alpha - x, m, 2.0 * m - 1.0 + alpha,
                       -np.ones_like(m), m - 1.0 + alpha, rows, weights)


def _normalized(vals, one, at_end):
    """vals / one, with the entries flagged by at_end set to exactly 1."""
    if isinstance(vals, float):
        return 1.0 if at_end else vals / one
    vals /= one
    vals[..., at_end] = 1.0
    return vals


def _pinned_at_minus_one(vals, x, ends):
    """vals with the entries at x = -1 set to ends(): a value, or a column of a table."""
    at = x == -1.0
    if not np.any(at):
        return vals
    if isinstance(vals, float):
        return float(ends())
    vals[..., at] = ends()
    return vals


def _binomial_ratios(kmax: int, top: float, bottom: float) -> np.ndarray:
    """binom(k + top, k) / binom(k + bottom, k) for every k = 0..kmax.

    A running product of (m + top) / (m + bottom): binom(k + a, k) is within
    about 1e-13 relative of 40-digit mpmath for k <= 4096 (a from -0.999 to
    3.7), where exp of log-gamma differences is about 1e-11 off.
    """
    m = np.arange(1.0, kmax + 1.0)
    return np.cumprod(np.concatenate(([1.0], (m + top) / (m + bottom))))


def _at_minus_one(kmax: int, top: float, bottom: float) -> np.ndarray:
    """(-1)^k binom(k + top, k) / binom(k + bottom, k) for every k = 0..kmax.

    P_k^(a,b)(-1) is this with (top, bottom) = (b, 0), and R_k^(a,b)(-1) with (b, a).
    """
    vals = _binomial_ratios(kmax, top, bottom)
    vals[1::2] *= -1.0
    return vals


def _p_table(family, kmax: int, params, x) -> tuple[np.ndarray, np.ndarray]:
    """Rows k = 0..kmax of family(kmax, params, x), and x as a 1-d array."""
    kmax, arr = _check_degree(kmax), np.atleast_1d(np.asarray(x, dtype=float))
    tab = np.empty((kmax + 1, arr.size))
    family(kmax, params, arr, tab)
    return tab, arr


def _r_table(family, kmax: int, params, a: float, x, end: float) -> np.ndarray:
    """Rows k = 0..kmax of family(kmax, params, x) divided by binom(k + a, k)."""
    tab, arr = _p_table(family, kmax, params, x)
    return _normalized(tab, _binomial_ratios(kmax, a, 0.0)[:, None], arr == end)


def _r_sums(family, kmax: int, params, a: float, x, u, end: float) -> np.ndarray:
    """sum_j R_k(x_j) u_j for every k = 0..kmax, with R_k = family / binom(k + a, k).

    The recurrence reduces each row against u as it goes (see _recurrence),
    so memory is O(len(x)) and the bits do not depend on the BLAS thread
    count.  The binomial is the running product; nodes at `end`, where
    R_k = 1, add their weights exactly.
    """
    kmax = _check_degree(kmax)
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    at = x == end
    sums = family(kmax, params, x[~at], weights=u[~at])
    return sums / _binomial_ratios(kmax, a, 0.0) + u[at].sum()


def _jacobi_r_sums(kmax: int, params: JacobiParams, x, u) -> np.ndarray:
    """jacobi_r_table(kmax, params, x) @ u without the table, exact at x = +-1."""
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    at = x == -1.0
    sums = _r_sums(_jacobi, kmax, params, params.alpha, x[~at], u[~at], 1.0)
    if np.any(at):
        sums += _at_minus_one(kmax, params.beta, params.alpha) * u[at].sum()
    return sums


def _laguerre_r_sums(kmax: int, alpha: float, x, u) -> np.ndarray:
    """laguerre_r_table(kmax, alpha, x) @ u without the table."""
    return _r_sums(_laguerre, kmax, alpha, alpha, x, u, 0.0)


def jacobi_p(k: int, params: JacobiParams, x):
    """Jacobi polynomial P_k at x, for x in [-1, 1] (scalar or array).

    P_k(-1) = (-1)^k binom(k + beta, k) is exact up to rounding.
    """
    k, arr = _check_degree(k), np.asarray(x, dtype=float)
    return _pinned_at_minus_one(_jacobi(k, params, arr), arr,
                                lambda: _at_minus_one(k, params.beta, 0.0)[k])


def _jacobi_p_table(kmax: int, params: JacobiParams, x: np.ndarray) -> np.ndarray:
    """P_k(x) for every k = 0..kmax as a (kmax+1, len(x)) array, exact at x = -1."""
    tab, arr = _p_table(_jacobi, kmax, params, x)
    return _pinned_at_minus_one(tab, arr, lambda: _at_minus_one(kmax, params.beta, 0.0)[:, None])


def jacobi_p_one(k: int, params: JacobiParams) -> float:
    """P_k(1) = binom(k + alpha, k) = L_k^alpha(0), as a running product."""
    return float(_binomial_ratios(_check_degree(k), params.alpha, 0.0)[k])


def jacobi_r(k: int, params: JacobiParams, x):
    """Normalized Jacobi polynomial R_k = P_k / P_k(1), with R_k(1) = 1 exactly.

    R_k(-1) = (-1)^k binom(k + beta, k) / binom(k + alpha, k) is exact up to
    rounding; a scalar x = +-1 takes these end values without the recurrence.
    """
    k, arr = _check_degree(k), np.asarray(x, dtype=float)
    if arr.ndim == 0 and abs(arr) == 1.0:
        return 1.0 if arr == 1.0 else float(_at_minus_one(k, params.beta, params.alpha)[k])
    vals = _normalized(_jacobi(k, params, arr), jacobi_p_one(k, params), arr == 1.0)
    return _pinned_at_minus_one(vals, arr,
                                lambda: _at_minus_one(k, params.beta, params.alpha)[k])


def jacobi_r_table(kmax: int, params: JacobiParams, x: np.ndarray) -> np.ndarray:
    """R_k(x) for every k = 0..kmax as a (kmax+1, len(x)) array, exact at x = +-1."""
    return _pinned_at_minus_one(_r_table(_jacobi, kmax, params, params.alpha, x, 1.0),
                                np.atleast_1d(np.asarray(x, dtype=float)),
                                lambda: _at_minus_one(kmax, params.beta, params.alpha)[:, None])


def laguerre_l(k: int, alpha: float, x):
    """Generalized Laguerre polynomial L_k^alpha at x >= 0 (scalar or array)."""
    return _laguerre(_check_degree(k), alpha, np.asarray(x, dtype=float))


def laguerre_r(k: int, alpha: float, x):
    """Normalized Laguerre polynomial R_k = L_k / L_k(0), with R_k(0) = 1 exactly."""
    k, arr = _check_degree(k), np.asarray(x, dtype=float)
    return _normalized(_laguerre(k, alpha, arr), float(_binomial_ratios(k, alpha, 0.0)[k]),
                       arr == 0.0)


def laguerre_r_table(kmax: int, alpha: float, x: np.ndarray) -> np.ndarray:
    """R_k^alpha(x) for every k = 0..kmax as a (kmax+1, len(x)) array."""
    return _r_table(_laguerre, kmax, alpha, alpha, x, 0.0)


def _hyp2f1_array(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """2F1(a, b; c; z) elementwise over an array of arguments in [0, 1).

    SciPy's ufunc, which takes z near 1 through the connection formulas of
    DLMF 15.8, log cases (c - a - b an integer) included.  A value that is
    not finite raises AccuracyError.
    """
    z = np.asarray(z, dtype=float)
    if z.size and not (float(np.min(z)) >= 0.0 and float(np.max(z)) < 1.0):
        raise AccuracyError("hypergeometric argument left [0, 1) at a node",
                            achieved=float(np.max(z)))
    f = _scipy_hyp2f1(a, b, c, z)
    if not np.all(np.isfinite(f)):
        raise AccuracyError(f"2F1({a}, {b}; {c}; z) is not finite at a node")
    return f


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) by SciPy's ufunc.

    Valid for z in [0, 1); z = 1 is accepted when c - a - b > 0, where the
    Gauss sum gives the value.  Returns exactly 1.0 when z = 0 or when a or
    b is zero.  Inputs must be finite (ValueError), and a value that is not
    finite raises AccuracyError.
    """
    if not all(isfinite(v) for v in (a, b, c, z)):
        raise ValueError("2F1 parameters and argument must be finite")
    if c <= 0.0 and c == int(c):
        raise ValueError("2F1 parameter c must not be a nonpositive integer")
    if z < 0.0 or z > 1.0:
        raise ValueError(f"2F1 argument must lie in [0, 1], got {z}")
    if z == 0.0 or a == 0.0 or b == 0.0:
        return 1.0
    if z == 1.0:
        s = c - a - b
        if s <= 0.0:
            raise ValueError("2F1 series diverges at z = 1 unless c - a - b > 0")
        sign = (gammasgn(c) * gammasgn(s) * gammasgn(c - a) * gammasgn(c - b))
        return sign * exp(gammaln(c) + gammaln(s)
                          - gammaln(c - a) - gammaln(c - b))
    return float(_hyp2f1_array(a, b, c, np.array([z]))[0])


def h_normalizer_table(kmax: int, params: JacobiParams) -> np.ndarray:
    """Reciprocal squared norms h_k of R_k in the weighted L2 space, k = 0..kmax.

    h_0 = G(a+b+2) / (G(a+1) G(b+1)) = 1 / B(a+1, b+1), and for k >= 1
    h_k = h_0 (2k+a+b+1) Q_k with the running product Q_1 = (a+1)/(b+1),
    Q_k = Q_(k-1) (k+a)(k+a+b) / ((k+b) k), regular at a + b = -1.
    Satisfies h_k * ||R_k||^2 = 1 and h_k ~ (k+1)^(2a+1) for large k.
    """
    kmax, a, b = _check_degree(kmax), params.alpha, params.beta
    h0 = 1.0 / beta_function(a + 1.0, b + 1.0)
    ks = np.arange(1.0, kmax + 1.0)
    q = (ks + a) * (ks + a + b) / ((ks + b) * ks)
    q[:1] = (a + 1.0) / (b + 1.0)  # Q_1: the k = 1 factor without its a + b + 1
    return np.concatenate(([h0], h0 * (2.0 * ks + a + b + 1.0) * np.cumprod(q)))
