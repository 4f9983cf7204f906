"""Fourier-Laguerre coefficients and the half-exponent machinery around them.

Coefficients integrate f R_k^a x^a e^(-x); the space norm integrates
|f| x^a e^(-x/2).  The two weights are deliberately kept in separate code
paths, because the e^(-x/2) split is what makes |e^(-x/2) R_k| <= 1 usable.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval, polyroots

from .specfun import _laguerre_r_sums, laguerre_r, laguerre_r_table
from .quadrature import (converge_doubling, gauss_laguerre_rule, ladder_size,
                         mapped_jacobi_rule)
from .series import DecayReport, _decay_report

__all__ = [
    "LaguerreStep",
    "LaguerrePolynomial",
    "LaguerreExpDamped",
    "laguerre_coefficient",
    "laguerre_coefficient_series",
    "laguerre_norm",
    "step_identity_check",
    "laguerre_bound_check",
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
class LaguerrePolynomial:
    """f(x) = sum_i c_i x^i with ascending coefficients."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coefficients)
        if not cs:
            raise ValueError("need at least one coefficient")
        object.__setattr__(self, "coefficients", cs)

    def __call__(self, x):
        return polyval(np.asarray(x, dtype=float), self.coefficients)


@dataclass(frozen=True)
class LaguerreExpDamped:
    """f(x) = p(x) e^(-rate x) with rate >= 0."""

    coefficients: tuple[float, ...]
    rate: float

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coefficients)
        if not cs:
            raise ValueError("need at least one coefficient")
        if self.rate < 0.0:
            raise ValueError("damping rate must be nonnegative")
        object.__setattr__(self, "coefficients", cs)

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        return polyval(arr, self.coefficients) * np.exp(-self.rate * arr)


def _check_alpha(alpha: float) -> float:
    if alpha <= -1.0:
        raise ValueError("Laguerre exponent must be > -1")
    return float(alpha)


def _poly_parts(f) -> tuple[tuple[float, ...], float]:
    if isinstance(f, LaguerrePolynomial):
        return f.coefficients, 0.0
    if isinstance(f, LaguerreExpDamped):
        return f.coefficients, f.rate
    raise TypeError(f"not a usable half-line function spec: {f!r}")


def _coefficient_values(f, kmax: int, alpha: float,
                        rtol: float = 1e-10) -> np.ndarray:
    """hat(k) for k = 0..kmax against the x^a e^(-x) weight.

    Each pass sums R_k against the weighted nodes degree by degree
    (specfun._laguerre_r_sums), over the nodes of all pieces at once.
    """
    alpha = _check_alpha(alpha)

    if isinstance(f, LaguerreStep):
        edges = (0.0, *f.breakpoints)
        pieces = [(lo, hi, v) for lo, hi, v in zip(edges, edges[1:], f.values)
                  if v != 0.0]
        if not pieces:
            return np.zeros(kmax + 1)

        def one(n: int) -> np.ndarray:
            xs, us = [], []
            for lo, hi, v in pieces:
                exp_lo = alpha if lo == 0.0 else 0.0
                rule = mapped_jacobi_rule(n, 0.0, exp_lo, lo, hi)
                x = rule.nodes
                g = v * np.exp(-x)
                if lo != 0.0:
                    g = g * x ** alpha
                xs.append(x)
                us.append(rule.weights * g)
            return _laguerre_r_sums(kmax, alpha, np.concatenate(xs), np.concatenate(us))

        # Exact for R_k times a polynomial of degree below 64, as in series.
        n0 = ladder_size((kmax + 1) // 2 + 32)
    else:
        coeffs, rate = _poly_parts(f)
        scale = (1.0 + rate) ** (-(alpha + 1.0))

        def one(n: int) -> np.ndarray:
            rule = gauss_laguerre_rule(n, alpha)
            x = rule.nodes / (1.0 + rate)
            g = polyval(x, coeffs)
            return scale * _laguerre_r_sums(kmax, alpha, x, rule.weights * g)

        n0 = ladder_size((kmax + len(coeffs)) // 2 + 8)

    return converge_doubling(one, n0, rtol)


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
    """Space norm of f: the integral of |f| x^a e^(-x/2)."""
    alpha = _check_alpha(alpha)

    if isinstance(f, LaguerreStep):
        edges = (0.0, *f.breakpoints)

        def one(n: int) -> float:
            total = 0.0
            for lo, hi, v in zip(edges, edges[1:], f.values):
                if v == 0.0:
                    continue
                exp_lo = alpha if lo == 0.0 else 0.0
                rule = mapped_jacobi_rule(n, 0.0, exp_lo, lo, hi)
                x = rule.nodes
                g = abs(v) * np.exp(-x / 2.0)
                if lo != 0.0:
                    g = g * x ** alpha
                total += float(rule.weights @ g)
            return total

        n0 = ladder_size(48)
    else:
        coeffs, rate = _poly_parts(f)
        s = rate + 0.5
        cuts: list[float] = []
        if len(coeffs) > 1:
            rts = np.atleast_1d(polyroots(coeffs))
            cuts = sorted({float(r.real) for r in rts.astype(complex)
                           if abs(r.imag) < 1e-10 and r.real > 1e-12})

        def one(n: int) -> float:
            total = 0.0
            edges = [0.0, *cuts]
            for lo, hi in zip(edges, edges[1:]):
                exp_lo = alpha if lo == 0.0 else 0.0
                rule = mapped_jacobi_rule(n, 0.0, exp_lo, lo, hi)
                x = rule.nodes
                g = np.abs(polyval(x, coeffs)) * np.exp(-s * x)
                if lo != 0.0:
                    g = g * x ** alpha
                total += float(rule.weights @ g)
            r = edges[-1]
            if r == 0.0:
                rule = gauss_laguerre_rule(n, alpha)
                y = rule.nodes / s
                total += s ** (-(alpha + 1.0)) * float(
                    rule.weights @ np.abs(polyval(y, coeffs)))
            else:
                rule = gauss_laguerre_rule(n, 0.0)
                y = r + rule.nodes / s
                g = np.abs(polyval(y, coeffs)) * y ** alpha
                total += math.exp(-s * r) / s * float(rule.weights @ g)
            return total

        n0 = ladder_size(max(24, len(coeffs) + 8))

    return converge_doubling(one, n0, 1e-11)


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


_DEFAULT_BOUND_GRID = None


def _bound_grid() -> np.ndarray:
    global _DEFAULT_BOUND_GRID
    if _DEFAULT_BOUND_GRID is None:
        g = np.concatenate(([0.0], np.geomspace(1e-3, 200.0, 2000)))
        g.setflags(write=False)
        _DEFAULT_BOUND_GRID = g
    return _DEFAULT_BOUND_GRID


def laguerre_bound_check(k: int, alpha: float, grid=None) -> float:
    """Max of |e^(-x/2) R_k^a(x)| over a grid; at most 1 when a >= 0.

    For a < 0 the value is still computed and returned, it just is not
    covered by the bound.
    """
    grid = _bound_grid() if grid is None else np.asarray(grid, dtype=float)
    vals = np.exp(-grid / 2.0) * laguerre_r(k, alpha, grid)
    return float(np.max(np.abs(vals)))


def laguerre_bound_profile(kmax: int, alpha: float, grid=None) -> np.ndarray:
    """laguerre_bound_check for every k = 0..kmax via one table sweep."""
    grid = _bound_grid() if grid is None else np.asarray(grid, dtype=float)
    tab = laguerre_r_table(kmax, alpha, grid)
    return np.max(np.abs(tab * np.exp(-grid / 2.0)), axis=1)


def laguerre_decay(f, kmax: int, alpha: float,
                   window: tuple[int, int] | None = None) -> DecayReport:
    """Decay-exponent fit of the coefficient magnitudes, for alpha >= 0."""
    if alpha < 0.0:
        raise ValueError("the decay statement needs alpha >= 0")
    return _decay_report(laguerre_coefficient_series(f, kmax, alpha), window)
