"""Half-line function specs, and Fourier-Laguerre coefficients of them.

The specs (steps, piecewise-linear grids and damped polynomials) serve both
half-line expansions: these Laguerre series and the Jacobi transform.  Each
splits once into pieces p(x) e^(-rate x) on [lo, hi) (_pieces).
Coefficients integrate f R_k^a x^a e^(-x); the space norm integrates
|f| x^a e^(-x/2), the split that makes |e^(-x/2) R_k| <= 1 usable.  Both
take their nodes from one builder for the weight x^a e^(-d x), with d = 1
and d = 1/2: a finite piece takes its rule for x^a from
quadrature._anchored_rule, and the piece that runs to infinity a
Gauss-Laguerre rule, and one doubling loop (_converged_values) serves grid
series, norms and the step identity.  A step needs no nodes: its
coefficients are a closed form summed over its jumps (_step_values), its
norm a sum of incomplete gamma masses (_step_masses); the step identity
checks that closed form against the quadrature of the [0, a] indicator.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyval, polyroots

from .specfun import (_check_degree, _check_exponent, _check_finite, _check_knots,
                      _laguerre_r_sums, laguerre_r_table)
from .quadrature import (_LOG_MAX, _anchored_rule, converge_doubling, gauss_laguerre_rule,
                         ladder_size)
from .series import DecayReport, _decay_report

__all__ = [
    "LaguerreStep",
    "LaguerreExpDamped",
    "HalfLineGrid",
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
        bp, vals = _check_knots("breakpoints", self.breakpoints, self.values, math.inf,
                                least=1)
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


@dataclass(frozen=True)
class HalfLineGrid:
    """Piecewise-linear interpolant with compact support [first, last] abscissa."""

    abscissae: tuple[float, ...]
    ordinates: tuple[float, ...]

    def __post_init__(self):
        ts, ys = _check_knots("abscissae", self.abscissae, self.ordinates, math.inf,
                              least=2)
        object.__setattr__(self, "abscissae", ts)
        object.__setattr__(self, "ordinates", ys)

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        out = np.interp(arr, self.abscissae, self.ordinates)
        out = np.where((arr < self.abscissae[0]) | (arr > self.abscissae[-1]),
                       0.0, out)
        return float(out) if np.isscalar(t) else out


def _pieces(f, d: float) -> list[tuple[float, float, tuple[float, ...], float]]:
    """f as pieces (lo, hi, p, rate) with f = p(x) e^(-rate x) on [lo, hi),
    for integrals against the weight x^a e^(-d x).

    A damped polynomial is one piece running to hi = infinity; a step gives
    constant pieces and a grid linear ones, and their zero pieces are
    dropped.  An edge e with e^(-d e) = 0 in double precision counts as
    infinity, so pieces that start there are dropped: no Gauss-Jacobi rule
    on [lo, e] has a node where e^(-d x) lives.  For the coefficients
    (d = 1) and a >= 0, |e^(-x/2) R_k| <= 1 puts what is cut off below about
    e^(-372) of the Gamma(a+1) scale.  With d = 0 no edge is infinite.
    """
    if isinstance(f, LaguerreExpDamped):
        return [(0.0, math.inf, f.coefficients, f.rate)]
    if isinstance(f, LaguerreStep):
        edges, polys = (0.0, *f.breakpoints), [(v,) for v in f.values]
    elif isinstance(f, HalfLineGrid):
        edges, ys = f.abscissae, f.ordinates
        slopes = [(y1 - y0) / (t1 - t0)
                  for t0, t1, y0, y1 in zip(edges, edges[1:], ys, ys[1:])]
        polys = [(y0 - s * t0, s) for t0, y0, s in zip(edges, ys, slopes)]
    else:
        raise TypeError(f"not a usable half-line function spec: {f!r}")
    edges = [e if math.exp(-d * e) > 0.0 else math.inf for e in edges]
    return [(lo, hi, p, 0.0) for lo, hi, p in zip(edges, edges[1:], polys)
            if any(p) and lo < math.inf]


def _weighted_nodes(pieces, n: int, alpha: float,
                    d: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and values u with u @ h(x) ~ the integral of f h x^a e^(-d x).

    A finite piece takes its rule for x^a from quadrature._anchored_rule,
    and p e^(-rate x) continues smoothly onto [0, lo] if that splits it.  A
    piece that runs to infinity takes a Gauss-Laguerre rule, which also
    absorbs the exponential, and x^a when it starts at 0.  Nodes whose
    weighted value underflows to 0 are dropped: R_k can overflow at the far
    Gauss-Laguerre nodes, and 0 * inf would be NaN.
    """
    xs, us = [], []
    for lo, hi, p, rate in pieces:
        s = rate + d
        if hi == math.inf:
            a = alpha if lo == 0.0 else 0.0
            rule = gauss_laguerre_rule(n, a)
            x = lo + rule.nodes / s
            w = rule.weights * (math.exp(-s * lo) / s ** (a + 1.0))
            g = polyval(x, p)
            if lo != 0.0:
                g = g * x ** alpha
        else:
            x, w, l = _anchored_rule(n, lo, hi, alpha)
            g = polyval(x, p) * np.exp(alpha * np.log(x) - l - s * x)
        xs.append(x)
        us.append(w * g)
    x, u = np.concatenate(xs), np.concatenate(us)
    keep = u != 0.0
    return x[keep], u[keep]


def _sums(pieces, top: int, alpha: float, n: int, d: float = 1.0,
          magnitudes: bool = False) -> np.ndarray:
    """hat(k) for k = 0..top against x^a e^(-d x) from n-point rules on the
    pieces, summed against R_k degree by degree (specfun._laguerre_r_sums)
    with no table; with magnitudes, the sum of their magnitudes over the
    pieces."""
    if magnitudes:
        return sum(np.abs(_laguerre_r_sums(top, alpha, *_weighted_nodes([p], n, alpha, d)))
                   for p in pieces)
    return _laguerre_r_sums(top, alpha, *_weighted_nodes(pieces, n, alpha, d))


def _converged_values(pieces, kmax: int, alpha: float, d: float = 1.0,
                      rtol: float = 1e-10, magnitudes: bool = False) -> np.ndarray:
    """_sums for k = 0..kmax, doubling the rule size until two sizes agree
    to rtol.  The first rule, of ladder_size((kmax + 1) // 2 + 32) points,
    is exact for R_kmax times a polynomial of degree below 64, as in series.
    """
    return converge_doubling(lambda n: _sums(pieces, kmax, alpha, n, d, magnitudes),
                             ladder_size((kmax + 1) // 2 + 32), rtol)


def _power_exp(s: float, x: float, r: float = 1.0) -> float:
    """(r x)^s e^(-x) for x > 0, through logarithms where (r x)^s alone
    overflows."""
    try:
        return (r * x) ** s * math.exp(-x)
    except OverflowError:
        return math.exp(s * math.log(r * x) - x)


def _incomplete_gammas(s: float, x: float, r: float = 1.0) -> tuple[float, float]:
    """r^s times the lower and upper incomplete gamma functions
    (gamma(s, x), Gamma(s, x)), for s > 0, x in [0, infinity] and r >= 1.

    Below x = s + 1 the lower one is the series of positive terms
    x^s e^(-x) sum_n x^n / (s (s+1) ... (s+n)) (DLMF 8.7.1); from there on the
    upper one is x^s e^(-x) times the continued fraction of DLMF 8.9.2 in its
    even form, 1 / (x + 1 - s - 1 (1 - s) / (x + 3 - s - 2 (2 - s) / ...)).
    The other one is Gamma(s) minus it, infinite once Gamma(s) overflows.
    r^s rides in the front factor, (r x)^s e^(-x), so that it cannot overflow
    on its own where the product is finite.
    """
    whole = math.gamma(s) * r ** s if s < 171.0 else math.inf
    if x == 0.0:
        return 0.0, whole
    if x == math.inf:
        return whole, 0.0
    front = _power_exp(s, x, r)
    if x < s + 1.0:
        term = total = 1.0 / s
        m = s
        while term > 1e-17 * total:
            m += 1.0
            term *= x / m
            total += term
        lower = front * total
        return lower, whole - lower
    # Lentz's method for the denominator b_0 + a_1 / (b_1 + a_2 / (b_2 + ...)),
    # whose b_i are at least 2 here.
    den = c = b = x + 1.0 - s
    d = 0.0
    for i in range(1, 10_000):
        a = i * (s - i)
        b += 2.0
        d = 1.0 / (b + a * d)
        c = b + a / c
        den *= c * d
        if abs(c * d - 1.0) <= 3e-16:
            break
    upper = front / den
    return whole - upper, upper


def _step_masses(s: float, edges, d: float = 1.0) -> list[float]:
    """The masses of [e_i, e_(i+1)) against x^(s-1) e^(-d x) dx for
    ascending edges: d^(-s) times incomplete gamma masses between the edges
    d e_i, for d = 1 or 1/2.

    An edge e with e^(-d e) = 0 in double precision counts as infinity, as in
    _pieces.  An edge where e^s e^(-d e) overflows a double raises
    ValueError.  From the masses of [0, e] and of [e, infinity), each piece
    takes the difference of whichever is smaller, so a thin piece at either
    end does not cancel against the whole mass; a piece past infinity has
    mass 0.
    """
    ys = [d * e if math.exp(-d * e) > 0.0 else math.inf for e in edges]
    for e, y in zip(edges, ys):
        if 0.0 < y < math.inf and s * math.log(y / d) - y > _LOG_MAX:
            raise ValueError(f"the step mass overflows at the edge {e} for alpha = {s - 1.0}")
    head, tail = zip(*(_incomplete_gammas(s, y, 1.0 / d) for y in ys))
    return [h1 - h0 if h1 <= t0 else t0 - t1
            for h0, h1, t0, t1 in zip(head, head[1:], tail, tail[1:])]


def _step_values(f: LaguerreStep, kmax: int, alpha: float) -> np.ndarray:
    """hat(k) of a step for k = 0..kmax, in closed form.

    hat(0) sums the incomplete gamma masses of the pieces.  For k >= 1,
    F_k(x) = e^(-x) x^(a+1) R_(k-1)^(a+1)(x) / (a+1) is the antiderivative
    of R_k x^a e^(-x) that vanishes at 0 and at infinity, so summing by
    parts leaves the drops dv_i = v_(i-1) - v_i at the breakpoints e_i:
        hat(k) = sum_i dv_i F_k(e_i).
    An edge e with e^(-e) = 0 in double precision counts as infinity, as in
    _pieces: the pieces past it are dropped and it adds no jump.
    """
    s = alpha + 1.0
    out = np.zeros(kmax + 1)
    out[0] = sum(v * m for v, m in zip(f.values, _step_masses(s, (0.0, *f.breakpoints))))
    if kmax >= 1:
        e = [x for x in f.breakpoints if math.exp(-x) > 0.0]
        drops = [v0 - v1 for v0, v1 in zip(f.values, f.values[1:] + (0.0,))]
        jumps = [dv * _power_exp(s, x) / s for dv, x in zip(drops, e)]
        # The jumps are summed divided by a power of two near the largest,
        # which is exact, so a jump near the largest double cannot overflow
        # the sum where hat(k) itself is finite.
        shift = math.frexp(max(map(abs, jumps), default=0.0))[1]
        out[1:] = np.ldexp(_laguerre_r_sums(kmax - 1, s, e, [math.ldexp(j, -shift)
                                                             for j in jumps]), shift)
    return out


def _coefficient_values(f, kmax: int, alpha: float) -> np.ndarray:
    """hat(k) for k = 0..kmax against the x^a e^(-x) weight.

    A step is summed in closed form (_step_values).  A damped polynomial
    p e^(-rate x), p of degree d, takes one pass: its Gauss-Laguerre rule in
    (1 + rate) x absorbs the exponential, and n nodes with 2n - 1 >= k + d
    integrate R_k p exactly.  At rate 0, R_k is orthogonal to p for k > d,
    so hat(k) = 0 there and d + 1 nodes suffice.  Anything else takes the
    doubling quadrature (_converged_values).
    """
    kmax, alpha = _check_degree(kmax), _check_exponent(alpha)
    if isinstance(f, LaguerreStep):
        return _step_values(f, kmax, alpha)
    pieces = _pieces(f, 1.0)
    if not pieces:
        return np.zeros(kmax + 1)
    if isinstance(f, LaguerreExpDamped):
        m = len(f.coefficients) - 1
        top = kmax if f.rate > 0.0 else min(m, kmax)
        return np.pad(_sums(pieces, top, alpha, max(m + 1, (top + m) // 2 + 1)),
                      (0, kmax - top))
    return _converged_values(pieces, kmax, alpha)


def laguerre_coefficient(f, k: int, alpha: float) -> float:
    """k-th coefficient: integral of f R_k^a x^a e^(-x) over the half-line."""
    return float(_coefficient_values(f, k, alpha)[-1])


def laguerre_coefficient_series(f, kmax: int, alpha: float) -> np.ndarray:
    """Coefficients for k = 0..kmax in one recurrence sweep.

    A step's series is a closed form: incomplete gamma masses at k = 0, and
    one sum over its jumps for k >= 1; an edge e where e^(a+1) e^(-e)
    overflows a double raises ValueError.  Other inputs take Gauss rules.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    return _coefficient_values(f, kmax, alpha)


def laguerre_norm(f, alpha: float) -> float:
    """Space norm of f: the integral of |f| x^a e^(-x/2).

    Pieces are cut at the positive real roots of p, so p has one sign on
    each, and the norm sums the magnitudes of the pieces' signed integrals:
    a piece that _anchored_rule splits has negative weights, so |u| node by
    node would be wrong.
    A damped polynomial p e^(-rate x) with no positive root has |p| = +-p, so
    one Gauss-Laguerre rule in (rate + 1/2) x of ceil((d + 1) / 2) points, d
    the degree of p, is exact.  A step needs no nodes: x = 2 y turns each
    piece's integral into 2^(a+1) times an incomplete gamma mass at the
    halved edges, and _step_masses carries that factor inside the powers
    e^(a+1) e^(-e/2), so a finite norm comes back at any alpha.  An edge
    where that power overflows a double, or a norm that does, raises
    ValueError.  Any other input takes the doubling quadrature
    (_converged_values) at kmax 0.
    """
    alpha = _check_exponent(alpha)
    if isinstance(f, LaguerreStep):
        masses = _step_masses(alpha + 1.0, (0.0, *f.breakpoints), 0.5)
        norm = sum(abs(v) * m for v, m in zip(f.values, masses) if v)
        if norm == math.inf:
            raise ValueError(f"the step norm overflows a double for alpha = {alpha}")
        return norm
    pieces = []
    for lo, hi, p, rate in _pieces(f, 0.5):
        cuts = sorted({float(r.real) for r in polyroots(p)
                       if abs(r.imag) < 1e-10 and max(lo, 1e-12) < r.real < hi})
        edges = [lo, *cuts, hi]
        pieces += [(a, b, p, rate) for a, b in zip(edges, edges[1:])]
    if not pieces:
        return 0.0
    if isinstance(f, LaguerreExpDamped) and len(pieces) == 1:
        return float(_sums(pieces, 0, alpha, (len(f.coefficients) + 1) // 2, 0.5, True)[0])
    return float(_converged_values(pieces, 0, alpha, 0.5, 1e-11, True)[0])


def step_identity_check(a: float, k: int, alpha: float) -> tuple[float, float]:
    """Both sides of the closed form for the [0, a] indicator coefficient.

    lhs integrates R_k^a x^a e^(-x) over [0, a] by the doubling quadrature;
    rhs is e^(-a) a^(a+1) R_(k-1)^(a+1)(a) / (a+1), the closed form that
    laguerre_coefficient_series takes for the step (_step_values).  Both come
    from one sweep up to k's rung, the highest degree whose doubling loop
    starts on k's first rule: 64 for k <= 64, 128 for k <= 128, and so on.
    Sweeps are cached per (a, rung, alpha), so a loop over k costs one sweep
    per 64 degrees.  The values depend on (a, k, alpha) alone.
    """
    if not 0.0 < a < math.inf:
        raise ValueError(f"endpoint must be positive and finite, got {a}")
    if _check_degree(k) < 1:
        raise ValueError("the identity needs degree k >= 1")
    top = 2 * ladder_size((k + 1) // 2 + 32) - 64
    lhs, rhs = _identity_sides(float(a), top, _check_exponent(alpha))
    return float(lhs[k]), float(rhs[k])


@lru_cache(maxsize=64)
def _identity_sides(a: float, top: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the step identity for k = 0..top, as read-only arrays.

    The quadrature takes the piece [0, a] itself rather than _pieces, so an
    endpoint past the underflow of e^(-a) stays a finite interval.
    """
    lhs = _converged_values([(0.0, a, (1.0,), 0.0)], top, alpha, rtol=1e-12)
    rhs = _step_values(LaguerreStep((a,), (1.0,)), top, alpha)
    for side in (lhs, rhs):
        side.setflags(write=False)
    return lhs, rhs


_BOUND_GRID = np.concatenate(([0.0], np.geomspace(1e-3, 200.0, 2000)))
_BOUND_GRID.setflags(write=False)


def laguerre_bound_profile(kmax: int, alpha: float) -> np.ndarray:
    """Max of |e^(-x/2) R_k^a(x)| over _BOUND_GRID for every k = 0..kmax.

    At most 1 when a >= 0; for a < 0 the value is still computed and
    returned, it just is not covered by the bound.  One table sweep.
    """
    tab = laguerre_r_table(kmax, alpha, _BOUND_GRID)
    return np.max(np.abs(tab * np.exp(-_BOUND_GRID / 2.0)), axis=1)


def laguerre_decay(f, kmax: int, alpha: float) -> DecayReport:
    """Decay-exponent fit of the coefficient magnitudes over (kmax/8, kmax),
    for alpha >= 0."""
    if alpha < 0.0:
        raise ValueError("the decay statement needs alpha >= 0")
    return _decay_report(laguerre_coefficient_series(f, kmax, alpha))
