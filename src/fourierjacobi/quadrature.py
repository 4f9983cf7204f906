"""Gaussian quadrature rules built from closed-form recurrence coefficients.

Nodes are the eigenvalues of the symmetric tridiagonal (Jacobi) matrix of the
three-term recurrence, polished by one Newton step on the recurrence; weights
are the Christoffel numbers summed in the same recurrence pass, at the
unrounded Newton iterate.  No eigenvector is formed, so a rule costs O(n)
memory and O(n^2) time.  Rules are cached per (n, exponents), and the
node/weight arrays are frozen so cached rules cannot be mutated by callers.
Mapped rules carry the endpoint exponents to a finite interval; every singular
cosine kernel takes its rules from them.  The transform's kernel in s is one
Gauss-Jacobi rule with the end power; the Mehler kernel in phi is a
Gauss-Legendre bulk, shared by every exponent, that stops _SPLIT of the
interval short of the singular end, plus a quarter-size Gauss-Jacobi end panel.
_anchored_rule is the one place that decides how a piece of a coefficient,
norm or transform integral gets its rule next to an end power such as
theta^(2a+1) or x^a: series, laguerre and jtransform all call it.
converge_doubling is the package's one doubling loop; callers start it from
ladder_size(n), a multiple of 32, so that the sizes they request repeat and
hit that cache.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import inf, lgamma, exp, log
from numbers import Real

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .errors import AccuracyError
from .specfun import _check_exponent

__all__ = [
    "QuadratureRule",
    "gauss_jacobi_rule",
    "gauss_laguerre_rule",
    "gauss_legendre_rule",
    "mapped_jacobi_rule",
    "converge_doubling",
]


@dataclass(frozen=True)
class QuadratureRule:
    """A fixed quadrature rule: sum(weights * f(nodes)) approximates the integral."""

    nodes: np.ndarray
    weights: np.ndarray

    def apply(self, f) -> float:
        return float(self.weights @ f(self.nodes))


# Sum over the nodes of the squared recurrence values above which the nodes
# are rescaled: leaves room for one step's growth and for the summed squares.
_RESCALE = 1e128

# Log of the largest double: exp(t) overflows exactly when t exceeds it.
_LOG_MAX = log(np.finfo(float).max)

# Largest rule a caller may request: a build costs O(n^2) time, so a larger
# request (a far support edge at a high frequency, say) raises at once.
_MAX_NODES = 1 << 16


def _freeze(rule: QuadratureRule) -> QuadratureRule:
    rule.nodes.setflags(write=False)
    rule.weights.setflags(write=False)
    return rule


def _golub_welsch(d: np.ndarray, e2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights from monic recurrence diagonals (a_i) and (b_i).

    d holds a_0..a_{n-1}; e2 holds b_0..b_{n-1} with b_0 the total weight mass.
    The nodes are the eigenvalues x of the Jacobi matrix (Golub & Welsch,
    1969), polished by one Newton step dx = -p_n / p_n'.  The weights are the
    Christoffel numbers b_0 / sum_{k<n} p_k^2 (Gautschi, 2004), with p_0 = 1
    and p_k orthonormal up to that factor, at the unrounded iterate x + dx:
    the same pass sums S = sum p_k^2 and C = sum p_k p_k' at x, and the sum
    at x + dx is S + 2 dx C to first order.  The pass runs over all nodes at
    once, so memory is O(n).  Once the values pass _RESCALE they are divided
    down node by node and the factors kept in log space, so Laguerre rules,
    whose polynomials grow like e^(x/2), cannot overflow.
    """
    n = d.size
    if n == 1:
        return d.copy(), e2[:1].copy()
    sb = np.sqrt(e2)
    x = eigvalsh_tridiagonal(d, sb[1:])
    a, s = d.tolist(), sb.tolist()
    # p_n needs b_n, which is not given; Newton only uses p_n / p_n', so the
    # last step is left unnormalized.
    r = (1.0 / sb[1:]).tolist() + [1.0]

    # Rows hold p_k and p_k'; acc sums p_k times each row, giving S and C.
    v0 = np.zeros((2, n))
    v1 = np.zeros((2, n))
    v1[0] = 1.0
    acc, log_scale = np.zeros((2, n)), np.zeros(n)
    for k in range(n):
        acc += v1[0] * v1
        v2 = (x - a[k]) * v1
        v2[1] += v1[0]
        v2 -= s[k] * v0
        v2 *= r[k]
        v0, v1 = v1, v2
        if np.dot(v1[0], v1[0]) > _RESCALE:
            m = np.maximum(np.maximum(np.abs(v0[0]), np.abs(v1[0])), 1.0)
            v0 /= m
            v1 /= m
            acc /= m * m
            log_scale += np.log(m)
    dx = -v1[0] / v1[1]
    return x + dx, e2[0] * np.exp(-2.0 * log_scale) / (acc[0] + 2.0 * dx * acc[1])


def _mass(log_mass: float, exponents: str) -> float:
    """exp(log_mass), the total mass of a rule's weight, or ValueError
    naming the exponents where it overflows a double."""
    if log_mass > _LOG_MAX:
        raise ValueError(f"the rule's mass overflows a double for {exponents}")
    return exp(log_mass)


def _jacobi_log_mass(a: float, b: float) -> float:
    """log of 2^(a+b+1) B(a+1, b+1), the mass of (1-x)^a (1+x)^b on [-1, 1]."""
    return (a + b + 1.0) * log(2.0) + lgamma(a + 1.0) + lgamma(b + 1.0) - lgamma(a + b + 2.0)


def _jacobi_coeffs(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    i = np.arange(n, dtype=float)
    s = 2.0 * i + a + b
    d = np.empty(n)
    e2 = np.empty(n)
    d[0] = (b - a) / (a + b + 2.0)
    e2[0] = _mass(_jacobi_log_mass(a, b), f"alpha = {a}, beta = {b}")
    if n > 1:
        d[1:] = (b * b - a * a) / (s[1:] * (s[1:] + 2.0))
        e2[1] = 4.0 * (a + 1.0) * (b + 1.0) / ((a + b + 2.0) ** 2 * (a + b + 3.0))
    if n > 2:
        ii, ss = i[2:], s[2:]
        e2[2:] = (4.0 * ii * (ii + a) * (ii + b) * (ii + a + b)
                  / (ss * ss * (ss + 1.0) * (ss - 1.0)))
    return d, e2


@lru_cache(maxsize=256)
def _gauss_jacobi_cached(n: int, a: float, b: float) -> QuadratureRule:
    d, e2 = _jacobi_coeffs(n, a, b)
    x, w = _golub_welsch(d, e2)
    return _freeze(QuadratureRule(x, w))


def _check_size(n) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"rule size must be an integer, got {n!r}")
    if not 1 <= n <= _MAX_NODES:
        raise ValueError(f"rule size must be between 1 and {_MAX_NODES}, got {n}")
    return int(n)


def gauss_jacobi_rule(n: int, alpha: float, beta: float) -> QuadratureRule:
    """n-point rule for integrals of f(x) (1-x)^alpha (1+x)^beta over [-1, 1].

    Exact for polynomial f up to degree 2n - 1.
    """
    n = _check_size(n)
    return _gauss_jacobi_cached(n, _check_exponent(alpha), _check_exponent(beta))


def gauss_legendre_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1, 1]."""
    return gauss_jacobi_rule(n, 0.0, 0.0)


@lru_cache(maxsize=64)
def _gauss_laguerre_cached(n: int, a: float) -> QuadratureRule:
    i = np.arange(n, dtype=float)
    d = 2.0 * i + a + 1.0
    e2 = np.empty(n)
    e2[0] = _mass(lgamma(a + 1.0), f"alpha = {a}")
    if n > 1:
        e2[1:] = i[1:] * (i[1:] + a)
    x, w = _golub_welsch(d, e2)
    return _freeze(QuadratureRule(x, w))


def gauss_laguerre_rule(n: int, alpha: float) -> QuadratureRule:
    """n-point rule for integrals of f(x) x^alpha e^(-x) over [0, inf)."""
    n = _check_size(n)
    return _gauss_laguerre_cached(n, _check_exponent(alpha))


def mapped_jacobi_rule(n: int, alpha: float, beta: float,
                       lo: float, hi: float) -> QuadratureRule:
    """Gauss-Jacobi rule transplanted to [lo, hi].

    Integrates f(x) (hi-x)^alpha (x-lo)^beta dx; the endpoint factors are
    absorbed into the weights, so callers supply only the smooth part f.
    Where the weights, or the scale h^(alpha+beta+1) on its own, would
    overflow a double, ValueError names the exponents.
    """
    if not -np.inf < lo < hi < np.inf:
        raise ValueError("interval must be finite with positive length")
    base = gauss_jacobi_rule(n, alpha, beta)
    h = 0.5 * (hi - lo)
    if (alpha + beta + 1.0) * log(h) + max(_jacobi_log_mass(alpha, beta), 0.0) > _LOG_MAX:
        raise ValueError(f"the weights on [{lo}, {hi}] overflow a double for "
                         f"alpha = {alpha}, beta = {beta}")
    x = lo + (base.nodes + 1.0) * h
    w = base.weights * h ** (alpha + beta + 1.0)
    return _freeze(QuadratureRule(x, w))


# A piece that starts closer to a singular end than _SPLIT times its length
# is split (see _anchored_rule).  Unsplit, the end lies 1 + 2 r out on the
# piece's [-1, 1], so the Gauss-Legendre error falls like rho^(-2n) with
# rho = 1 + 2 r + 2 sqrt(r + r^2): 1.64, 2.0 and 2.62 at r = 1/16, 1/8 and
# 1/4.  Measured on (cos 3x + x) x^e over [r, 1 + r], 32 nodes miss by
# 1.3e-14 and 2.8e-14 relative at r = 1/16 (e = -0.8 and -0.98), but by at
# most 6.5e-16 at 1/8 and 1/4; the split pieces just inside r stay within
# 2.6e-15 at all three.  1/8 is the smallest of the three at which the first
# rung is at rounding level; 1/4 splits pieces twice as far out, each at the
# cost of a second rule, for no digit.  The Mehler kernel's Gauss-Legendre
# bulk stops _SPLIT theta short of its singular end, at r = 1/7.
_SPLIT = 0.125


def _anchored_rule(n: int, lo: float, hi: float, e_lo: float, e_hi: float = 0.0,
                   top: float = inf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes x, weights w and logs l with w @ (F(x) e^(-l)) ~ the integral of
    F(x) = g(x) x^e_lo (top - x)^e_hi over [lo, hi], for 0 <= lo < hi <= top.

    l is the log of the end powers that w carries at each node.  A piece
    that reaches 0 (or top) puts that end's power into its Gauss-Jacobi
    rule, and l is e_lo log x (or e_hi log(top - x)) there.  A piece with
    0 < lo < _SPLIT (hi - lo) is [0, hi] - [0, lo], the second with negative
    weights, and its mirror at top is [lo, top] - [hi, top]; so g must
    continue smoothly onto the end piece.  Any other piece is Gauss-Legendre,
    with l = 0.  A zero power is no singularity, and its end splits nothing.
    The caller forms F e^(-l) in log space, so a power that overflows on its
    own, like theta^(2 alpha + 1) at large alpha, is never formed.
    """
    if e_lo and 0.0 < lo < _SPLIT * (hi - lo):
        parts = ((0.0, hi), (0.0, lo))
    elif e_hi and hi < top and top - hi < _SPLIT * (hi - lo):
        parts = ((lo, top), (hi, top))
    else:
        at_lo, at_hi = lo == 0.0, hi == top
        rule = mapped_jacobi_rule(n, e_hi if at_hi else 0.0, e_lo if at_lo else 0.0, lo, hi)
        x = rule.nodes
        l = np.zeros(n)
        if at_lo:
            l = l + e_lo * np.log(x)
        if at_hi:
            l = l + e_hi * np.log(top - x)
        return x, rule.weights, l
    (x0, w0, l0), (x1, w1, l1) = (_anchored_rule(n, a, b, e_lo, e_hi, top) for a, b in parts)
    return np.concatenate((x0, x1)), np.concatenate((w0, -w1)), np.concatenate((l0, l1))


def ladder_size(n: int) -> int:
    """The smallest multiple of 32 that is at least n.

    Doubling loops start from a ladder size and doubling keeps them on the
    ladder, so nearby requests share cached rules instead of each building
    its own.
    """
    return -(-int(n) // 32) * 32


def _check_rtol(rtol: float) -> None:
    if not rtol >= 0.0:
        raise ValueError(f"rtol must be a nonnegative number, got {rtol}")


def converge_doubling(evaluate, n0: int, rtol: float = 1e-10,
                      nmax: int = 4096):
    """Evaluate at doubling rule sizes until two consecutive sizes agree.

    evaluate(n) returns the quantity, a float or an array, computed with
    n-point rules.  Sizes n0, 2 n0, 4 n0, ... are tried up to
    max(nmax, 4 n0), so at least two comparisons are made.  The loop stops
    at the first size 2n with max|v(2n) - v(n)| <= rtol * max(1, max|v(2n)|)
    and returns v(2n) unchanged.  Otherwise it raises AccuracyError with the
    last relative difference as `achieved`; a NaN never counts as converged.
    A NaN or negative rtol, or an nmax that is not a finite number >= 1,
    raises ValueError before the first evaluation.
    """
    _check_rtol(rtol)
    if not (isinstance(nmax, Real) and 1 <= nmax < inf):
        raise ValueError(f"nmax must be a finite number >= 1, got {nmax!r}")
    n = max(int(n0), 1)
    limit = max(nmax, 4 * n)
    prev = evaluate(n)
    while 2 * n <= limit:
        n *= 2
        cur = evaluate(n)
        diff = float(np.max(np.abs(cur - prev)))
        scale = max(1.0, float(np.max(np.abs(cur))))
        if diff <= rtol * scale:
            return cur
        prev = cur
    raise AccuracyError(f"quadrature failed to settle by n = {n}",
                        achieved=diff / scale)
