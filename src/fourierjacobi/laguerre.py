"""Fourier-Laguerre coefficients and the half-exponent machinery around them.

Coefficients integrate f R_k^a x^a e^(-x); the space norm integrates
|f| x^a e^(-x/2), the split that makes |e^(-x/2) R_k| <= 1 usable.  Both
split f once into pieces p(x) e^(-rate x) on [lo, hi) and take their nodes
from one builder for the weight x^a e^(-d x), with d = 1 and d = 1/2.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval, polyroots

from .specfun import _check_finite, _laguerre_r_sums, laguerre_r, laguerre_r_table
from .quadrature import (converge_doubling, gauss_laguerre_rule, ladder_size,
                         mapped_jacobi_rule)
from .series import DecayReport, _decay_report

__all__ = [
    "LaguerreStep",
    "LaguerreExpDamped",
    "laguerre_coefficient",
    "laguerre_coefficient_series",
    "laguerre_norm",
    "step_identity_check",
    "laguerre_bound_profile",
    "laguerre_decay",
]


@dataclass(frozen=True)
class LaguerreStep:
    """Piecewise-constant function with compact support in [0, infinity).

    values[i] is taken on [edge_i, edge_{i+1}) with edge_0 = 0; the function
    is zero past the last breakpoint.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        bp = tuple(float(t) for t in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        _check_finite(*bp, *vals)
        if not bp or len(vals) != len(bp):
            raise ValueError("need one value per breakpoint")
        if bp[0] <= 0.0 or any(t1 <= t0 for t0, t1 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be positive and strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breakpoints, arr, side="right")
        vals = np.asarray(self.values + (0.0,))
        out = np.where(arr < 0.0, 0.0, vals[idx])
        return float(out) if np.isscalar(x) else out


@dataclass(frozen=True)
class LaguerreExpDamped:
    """f(x) = p(x) e^(-rate x) with rate >= 0; rate 0 is the polynomial p."""

    coefficients: tuple[float, ...]
    rate: float = 0.0

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coefficients)
        if not cs:
            raise ValueError("need at least one coefficient")
        _check_finite(*cs, self.rate)
        if self.rate < 0.0:
            raise ValueError("damping rate must be nonnegative")
        object.__setattr__(self, "coefficients", cs)

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        return polyval(arr, self.coefficients) * np.exp(-self.rate * arr)


def _check_alpha(alpha: float) -> float:
    if not -1.0 < alpha < math.inf:
        raise ValueError("Laguerre exponent must be > -1 and finite")
    return float(alpha)


def _pieces(f) -> list[tuple[float, float, tuple[float, ...], float]]:
    """f as pieces (lo, hi, p, rate) with f = p(x) e^(-rate x) on [lo, hi).

    Zero pieces of a step are dropped; a damped polynomial is one piece
    running to hi = infinity.  A step edge e with e^(-e) = 0 in double
    precision counts as infinity, so pieces that start there are dropped:
    no Gauss-Jacobi rule on [0, e] has a node where e^(-x) lives.  For
    a >= 0, |e^(-x/2) R_k| <= 1 puts what is cut off below about e^(-372)
    of the Gamma(a+1) scale.
    """
    if isinstance(f, LaguerreStep):
        edges = (0.0, *(e if math.exp(-e) > 0.0 else math.inf for e in f.breakpoints))
        return [(lo, hi, (v,), 0.0) for lo, hi, v in zip(edges, edges[1:], f.values)
                if v != 0.0 and lo < math.inf]
    if isinstance(f, LaguerreExpDamped):
        return [(0.0, math.inf, f.coefficients, f.rate)]
    raise TypeError(f"not a usable half-line function spec: {f!r}")


def _weighted_nodes(pieces, n: int, alpha: float,
                    d: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and values u with u @ h(x) ~ the integral of f h x^a e^(-d x).

    A piece that starts at 0 puts x^a into its Gauss-Jacobi rule; any other
    piece multiplies it in at the nodes.  A piece that runs to infinity
    takes a Gauss-Laguerre rule, which also absorbs the exponential.  Nodes
    whose weighted value underflows to 0 are dropped: R_k can overflow at
    the far Gauss-Laguerre nodes, and 0 * inf would be NaN.
    """
    xs, us = [], []
    for lo, hi, p, rate in pieces:
        s = rate + d
        a = alpha if lo == 0.0 else 0.0
        if hi == math.inf:
            rule = gauss_laguerre_rule(n, a)
            x = lo + rule.nodes / s
            w = rule.weights * (math.exp(-s * lo) / s ** (a + 1.0))
            g = polyval(x, p)
        else:
            rule = mapped_jacobi_rule(n, 0.0, a, lo, hi)
            x, w = rule.nodes, rule.weights
            g = polyval(x, p) * np.exp(-s * x)
        if lo != 0.0:
            g = g * x ** alpha
        xs.append(x)
        us.append(w * g)
    x, u = np.concatenate(xs), np.concatenate(us)
    keep = u != 0.0
    return x[keep], u[keep]


def _coefficient_values(f, kmax: int, alpha: float,
                        rtol: float = 1e-10) -> np.ndarray:
    """hat(k) for k = 0..kmax against the x^a e^(-x) weight.

    Each pass sums R_k against the weighted nodes degree by degree
    (specfun._laguerre_r_sums), over the nodes of all pieces at once.
    """
    alpha = _check_alpha(alpha)
    pieces = _pieces(f)
    if not pieces:
        return np.zeros(kmax + 1)
    if isinstance(f, LaguerreStep):
        # Exact for R_k times a polynomial of degree below 64, as in series.
        n0 = (kmax + 1) // 2 + 32
    else:
        n0 = (kmax + len(f.coefficients)) // 2 + 8

    def one(n: int) -> np.ndarray:
        return _laguerre_r_sums(kmax, alpha, *_weighted_nodes(pieces, n, alpha, 1.0))

    return converge_doubling(one, ladder_size(n0), rtol)


def laguerre_coefficient(f, k: int, alpha: float) -> float:
    """k-th coefficient: integral of f R_k^a x^a e^(-x) over the half-line."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return float(_coefficient_values(f, k, alpha)[k])


def laguerre_coefficient_series(f, kmax: int, alpha: float) -> np.ndarray:
    """Coefficients for k = 0..kmax in one recurrence sweep."""
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    return _coefficient_values(f, kmax, alpha)


def laguerre_norm(f, alpha: float) -> float:
    """Space norm of f: the integral of |f| x^a e^(-x/2).

    Pieces are cut at the positive real roots of p, so |p| is smooth on each.
    """
    alpha = _check_alpha(alpha)
    pieces = []
    for lo, hi, p, rate in _pieces(f):
        cuts = sorted({float(r.real) for r in polyroots(p)
                       if abs(r.imag) < 1e-10 and max(lo, 1e-12) < r.real < hi})
        edges = [lo, *cuts, hi]
        pieces += [(a, b, p, rate) for a, b in zip(edges, edges[1:])]
    if not pieces:
        return 0.0
    n0 = 48 if isinstance(f, LaguerreStep) else max(24, len(f.coefficients) + 8)

    def one(n: int) -> float:
        return float(np.sum(np.abs(_weighted_nodes(pieces, n, alpha, 0.5)[1])))

    return converge_doubling(one, ladder_size(n0), 1e-11)


def step_identity_check(a: float, k: int, alpha: float) -> tuple[float, float]:
    """Both sides of the closed form for the [0, a] indicator coefficient.

    lhs integrates R_k^a x^a e^(-x) over [0, a] by quadrature; rhs is
    e^(-a) a^(a+1) R_{k-1}^{a+1}(a) / (a+1), entirely recurrence-based.
    """
    if a <= 0.0:
        raise ValueError("endpoint must be positive")
    if k < 1:
        raise ValueError("the identity needs degree k >= 1")
    alpha = _check_alpha(alpha)

    def one(n: int) -> float:
        rule = mapped_jacobi_rule(n, 0.0, alpha, 0.0, a)
        x = rule.nodes
        return float(rule.weights @ (laguerre_r(k, alpha, x) * np.exp(-x)))

    lhs = converge_doubling(one, ladder_size(k + 24), 1e-12)
    rhs = (math.exp(-a) * a ** (alpha + 1.0)
           * laguerre_r(k - 1, alpha + 1.0, a) / (alpha + 1.0))
    return lhs, rhs


_DEFAULT_BOUND_GRID = np.concatenate(([0.0], np.geomspace(1e-3, 200.0, 2000)))
_DEFAULT_BOUND_GRID.setflags(write=False)


def laguerre_bound_profile(kmax: int, alpha: float, grid=None) -> np.ndarray:
    """Max of |e^(-x/2) R_k^a(x)| over a grid for every k = 0..kmax.

    At most 1 when a >= 0; for a < 0 the value is still computed and
    returned, it just is not covered by the bound.  One table sweep.
    """
    grid = _DEFAULT_BOUND_GRID if grid is None else np.asarray(grid, dtype=float)
    tab = laguerre_r_table(kmax, alpha, grid)
    return np.max(np.abs(tab * np.exp(-grid / 2.0)), axis=1)


def laguerre_decay(f, kmax: int, alpha: float,
                   window: tuple[int, int] | None = None) -> DecayReport:
    """Decay-exponent fit of the coefficient magnitudes, for alpha >= 0."""
    if alpha < 0.0:
        raise ValueError("the decay statement needs alpha >= 0")
    return _decay_report(laguerre_coefficient_series(f, kmax, alpha), window)
