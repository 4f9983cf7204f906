"""Gauss rules: exactness degrees, scipy agreement, singular-endpoint rules."""

import math
import time

import numpy as np
import pytest
import scipy.special as sp
from scipy.integrate import quad

from fourierjacobi import (
    AccuracyError,
    CosinePoly,
    GridSampled,
    HalfLineGrid,
    Indicator,
    JacobiParams,
    LaguerreExpDamped,
    LaguerreStep,
    PowerWeight,
    StepFunction,
    coefficient,
    coefficient_series,
    jacobi_function,
    kernel_mass_h,
    laguerre_coefficient_series,
    laguerre_norm,
    mehler_limit_r,
    mehler_r,
    norm_l,
    parseval_check,
    step_identity_check,
    transform,
    transform_sweep,
    gauss_jacobi_rule,
    gauss_legendre_rule,
    gauss_laguerre_rule,
    mapped_jacobi_rule,
    converge_doubling,
)
from fourierjacobi import laguerre, mehler, quadrature
from fourierjacobi.jtransform import _phi_grid
from fourierjacobi.quadrature import _anchored_rule, _jacobi_coeffs, ladder_size


class TestGaussJacobi:
    def test_weight_mass(self):
        """Total weight is 2^(a+b+1) B(a+1, b+1); frozen at (0.5, -0.25)."""
        rule = gauss_jacobi_rule(12, 0.5, -0.25)
        np.testing.assert_allclose(float(np.sum(rule.weights)),
                                   2.279739027069754, rtol=1e-13)
        np.testing.assert_allclose(float(np.sum(rule.weights)),
                                   2.0 ** 1.25 * sp.beta(1.5, 0.75),
                                   rtol=1e-13)

    def test_polynomial_exactness(self):
        """An n-point rule integrates monomials up to degree 2n-1."""
        rule = gauss_jacobi_rule(20, 0.0, 0.0)
        got = float(rule.weights @ rule.nodes ** 38)
        np.testing.assert_allclose(got, 2.0 / 39.0, rtol=1e-13)
        assert abs(float(rule.weights @ rule.nodes ** 37)) < 1e-14

    def test_against_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            n = int(rng.integers(2, 50))
            a = float(rng.uniform(-0.9, 3.0))
            b = float(rng.uniform(-0.9, 3.0))
            rule = gauss_jacobi_rule(n, a, b)
            ref_x, ref_w = sp.roots_jacobi(n, a, b)
            np.testing.assert_allclose(rule.nodes, ref_x, atol=1e-12)
            np.testing.assert_allclose(rule.weights, ref_w,
                                       rtol=1e-10, atol=1e-14)

    def test_single_node(self):
        rule = gauss_jacobi_rule(1, 0.5, -0.5)
        assert rule.nodes.shape == (1,)
        np.testing.assert_allclose(float(np.sum(rule.weights)),
                                   2.0 * sp.beta(1.5, 0.5), rtol=1e-13)

    def test_structure(self):
        rule = gauss_jacobi_rule(8, 1.0, 0.0)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert not rule.nodes.flags.writeable
        with pytest.raises(ValueError):
            gauss_jacobi_rule(0, 0.0, 0.0)


@pytest.mark.parametrize("build", [
    lambda e: gauss_jacobi_rule(4, e, 0.0),
    lambda e: gauss_jacobi_rule(4, 0.0, e),
    lambda e: gauss_laguerre_rule(4, e),
])
@pytest.mark.parametrize("exponent", [math.inf, math.nan])
def test_non_finite_exponent_rejected(build, exponent):
    with pytest.raises(ValueError, match="finite"):
        build(exponent)


class TestSizeBudget:
    """A rule request past quadrature._MAX_NODES (2^16) raises before any
    array is allocated: a build costs O(n^2) time."""

    BUILDERS = [lambda n: gauss_jacobi_rule(n, 0.5, 0.0), lambda n: gauss_laguerre_rule(n, 0.5)]

    @pytest.mark.parametrize("build", BUILDERS, ids=["jacobi", "laguerre"])
    def test_largest_size_passes_and_one_more_raises(self, build, monkeypatch):
        for name in ("_gauss_jacobi_cached", "_gauss_laguerre_cached"):
            monkeypatch.setattr(quadrature, name, lambda n, *ab: n)  # records, builds nothing
        assert build(1 << 16) == 1 << 16
        with pytest.raises(ValueError, match="rule size"):
            build((1 << 16) + 1)

    @pytest.mark.parametrize("build", BUILDERS, ids=["jacobi", "laguerre"])
    def test_size_must_be_an_integer(self, build):
        """A fractional or boolean size is refused, not truncated to int."""
        for n in (8.5, 8.0, True, "8"):
            with pytest.raises(ValueError, match="integer"):
                build(n)
        assert build(np.int64(8)).nodes.shape == (8,)

    def test_far_transform_edge_raises_at_once(self):
        """The outer rule on [1, 1e6] at tau 50 would have 15,915,520 nodes."""
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="rule size must be between 1 and 65536"):
            transform_sweep(Indicator(1.0, 1e6), [0.0, 50.0], JacobiParams(0.5, 0.0))
        assert time.perf_counter() - t0 < 1.0


class TestGaussLegendreAndLaguerre:
    def test_legendre_matches_numpy(self):
        rule = gauss_legendre_rule(17)
        x, w = np.polynomial.legendre.leggauss(17)
        np.testing.assert_allclose(rule.nodes, x, atol=1e-13)
        np.testing.assert_allclose(rule.weights, w, rtol=1e-12)

    def test_laguerre_moment(self):
        """Third moment of x^2 e^(-x) is Gamma(6) = 120; frozen."""
        rule = gauss_laguerre_rule(15, 2.0)
        np.testing.assert_allclose(float(rule.weights @ rule.nodes ** 3),
                                   120.0, rtol=1e-12)

    def test_laguerre_against_scipy(self):
        rule = gauss_laguerre_rule(25, 0.5)
        ref_x, ref_w = sp.roots_genlaguerre(25, 0.5)
        np.testing.assert_allclose(rule.nodes, ref_x, rtol=1e-10)
        np.testing.assert_allclose(rule.weights, ref_w, rtol=1e-9, atol=1e-16)


class TestMappedRule:
    def test_beta_integral(self):
        """Mapped rule reproduces B(p, q) integrals on [0, 1]."""
        rule = mapped_jacobi_rule(10, -0.5, 0.25, 0.0, 1.0)
        got = float(np.sum(rule.weights))
        np.testing.assert_allclose(got, sp.beta(0.5, 1.25), rtol=1e-13)

    def test_plain_interval(self):
        """Zero exponents give ordinary Gauss-Legendre on [lo, hi]."""
        rule = mapped_jacobi_rule(12, 0.0, 0.0, 1.0, 4.0)
        got = rule.apply(np.exp)
        np.testing.assert_allclose(got, math.exp(4.0) - math.exp(1.0),
                                   rtol=1e-13)
        assert np.all((rule.nodes > 1.0) & (rule.nodes < 4.0))

    def test_shifted_singularity(self):
        """Absorbed (x-lo)^(-1/2) on [2, 3] against adaptive quadrature."""
        rule = mapped_jacobi_rule(20, 0.0, -0.5, 2.0, 3.0)
        got = float(rule.weights @ np.cos(rule.nodes))
        ref, _ = quad(lambda x: math.cos(x) / math.sqrt(x - 2.0), 2.0, 3.0,
                      points=[2.0])
        np.testing.assert_allclose(got, ref, rtol=1e-10)

    @pytest.mark.parametrize("lo,hi", [(0.0, math.inf), (-math.inf, 0.0)])
    def test_infinite_end_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            mapped_jacobi_rule(8, 0.0, 0.0, lo, hi)


@pytest.mark.parametrize("call, match", [
    (lambda: gauss_jacobi_rule(32, 1100.0, 0.0), r"mass overflows .* alpha = 1100\.0, beta = 0\.0"),
    (lambda: gauss_laguerre_rule(8, 200.0), r"mass overflows .* alpha = 200\.0"),
    (lambda: laguerre_coefficient_series(LaguerreExpDamped((1.0,), 1.0), 8, 200.0),
     r"mass overflows .* alpha = 200\.0"),
    (lambda: laguerre_norm(LaguerreExpDamped((1.0,), 1.0), 200.0),
     r"mass overflows .* alpha = 200\.0"),
    (lambda: coefficient_series(GridSampled((1e-5, 2.0), (1.0, 1.0)), 8,
                                JacobiParams(520.0, 0.0)),
     r"mass overflows .* alpha = 0\.0, beta = 1041\.0"),
    (lambda: coefficient_series(np.ones_like, 8, JacobiParams(400.0, 0.0)),
     r"weights on \[0\.0, 3\.14\d*\] overflow .* alpha = 1\.0, beta = 801\.0"),
], ids=["jacobi", "laguerre", "laguerre-series", "laguerre-norm", "grid-series",
        "callable-series"])
def test_overflowing_rule_is_refused(call, match):
    """A rule's mass, Gamma(201) or 2^1101 / 1101, or its weights mapped to
    [0, pi] at the exponent 801, overflow a double: the rule names the
    exponents instead of raising a bare OverflowError, or returning inf
    weights that the doubling loop turns into AccuracyError."""
    with pytest.raises(ValueError, match=match):
        call()


def test_anchored_rule_integrates_monomials():
    """quadrature._anchored_rule(n, lo, hi, e_lo, e_hi, top) integrates
    F(x) = g(x) x^e_lo (top - x)^e_hi over [lo, hi] as w @ (F(x) e^(-l)).
    In each of its cases it takes every monomial of degree below 2n exactly,
    up to rounding; a split piece has 2n nodes, n of them with negative
    weights."""
    n = 8
    m = np.arange(2.0 * n)
    near_end = (2.0 ** (m + 0.2) - 1e-4 ** (m + 0.2)) / (m + 0.2)
    # x^(m+1) (3 - x)^2 = 9 x^(m+1) - 6 x^(m+2) + x^(m+3), of degree m + 3 < 2n
    interior = sum(c * (2.0 ** (m[:-3] + j) - 1.0) / (m[:-3] + j)
                   for c, j in ((9.0, 2), (-6.0, 3), (1.0, 4)))
    cases = [
        ((0.0, 3.0, -0.8, -0.5, 3.0), lambda x: x, 3.0 ** (m - 0.3) * sp.beta(m + 0.2, 0.5)),
        ((1e-4, 2.0, -0.8), lambda x: x, near_end),                    # [0, 2] - [0, 1e-4]
        ((1.0, 3.0 - 1e-4, 0.0, -0.8, 3.0), lambda x: 3.0 - x, near_end),  # its mirror
        ((1.0, 2.0, 1.0, 2.0, 3.0), lambda x: x, interior),           # powers at the nodes
    ]
    for args, g, want in cases:
        x, w, l = _anchored_rule(n, *args)
        e_lo, e_hi, top = (*args[2:], 0.0, math.inf)[:3]
        log_power = e_lo * np.log(x) + (e_hi * np.log(top - x) if e_hi else 0.0)
        split = args[0] == 1e-4 or args[1] == 3.0 - 1e-4
        assert x.size == (2 * n if split else n)
        assert np.all(w[n:] < 0.0) and np.all(w[:n] > 0.0)
        got = np.array([w @ (g(x) ** k * np.exp(log_power - l)) for k in range(want.size)])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0, err_msg=str(args))


class TestMehlerInnerRule:
    """The Mehler kernel's singular rule in phi, through kernel_mass_h."""

    def test_kernel_mass_frozen(self):
        """Integral of (cos(phi) - cos(1))^(-1/2) over [0, 1]; 40-digit mpmath."""
        np.testing.assert_allclose(kernel_mass_h(1.0, 0.0), 2.3687991130305955,
                                   rtol=1e-14)

    def test_half_pi_zero_alpha(self):
        """At theta = pi/2 the mass is the B(1/4, 1/2)/2 cosine integral."""
        np.testing.assert_allclose(kernel_mass_h(math.pi / 2, 0.0),
                                   0.5 * sp.beta(0.25, 0.5), rtol=1e-14)

    def test_alpha_half_is_plain_measure(self):
        """Exponent 1/2 - 1/2 = 0 leaves d(phi): the mass is theta / sin theta."""
        for theta in (1e-6, 0.3, 1.2):
            np.testing.assert_allclose(kernel_mass_h(theta, 0.5),
                                       theta / math.sin(theta), rtol=1e-14)

    def test_nodes_inside(self):
        theta = 0.7
        nodes, _ = mehler._kernel_data(1.25, 0.0, theta, 16)
        assert np.all((nodes > 0.0) & (nodes < theta))

    def test_domain(self):
        with pytest.raises(ValueError):
            kernel_mass_h(1e-9, 0.5)
        with pytest.raises(ValueError):
            kernel_mass_h(1.0, -0.5)


class TestConvergeDoubling:
    def test_smooth_converges(self):
        def evaluate(n):
            rule = gauss_legendre_rule(n)
            return rule.apply(lambda x: np.exp(2.0 * x))
        got = converge_doubling(evaluate, 8)
        np.testing.assert_allclose(got, (math.exp(2) - math.exp(-2)) / 2.0,
                                   rtol=1e-12)

    def test_reports_failure(self):
        """A value that never settles must raise with the residual attached."""
        with pytest.raises(AccuracyError) as exc:
            converge_doubling(lambda n: float(n), 3, nmax=64)
        assert exc.value.achieved is not None

    def test_array_values(self):
        """Vector quantities converge on their largest component difference
        and come back as the larger evaluation, unchanged."""
        seen = {}

        def evaluate(n):
            rule = gauss_legendre_rule(n)
            seen[n] = np.array([rule.apply(np.exp), rule.apply(np.cos)])
            return seen[n]
        got = converge_doubling(evaluate, 4, rtol=1e-12)
        assert got is seen[max(seen)]
        np.testing.assert_allclose(got, [math.exp(1) - math.exp(-1),
                                         2.0 * math.sin(1.0)], rtol=1e-13)

    def test_array_failure_reports_largest_component(self):
        with pytest.raises(AccuracyError) as exc:
            converge_doubling(lambda n: np.array([1.0, 1.0 / n]), 2,
                              rtol=1e-3, nmax=16)
        assert exc.value.achieved == pytest.approx(1.0 / 16.0)

    def test_start_above_half_the_cap(self):
        """n0 > nmax / 2 still evaluates two larger sizes."""
        sizes = []
        with pytest.raises(AccuracyError):
            converge_doubling(lambda n: sizes.append(n) or float(n), 100,
                              nmax=128)
        assert sizes == [100, 200, 400]
        assert converge_doubling(lambda n: 1.0, 100, nmax=128) == 1.0

    def test_nan_never_converges(self):
        with pytest.raises(AccuracyError):
            converge_doubling(lambda n: math.nan, 8)

    @pytest.mark.parametrize("rtol", [math.nan, -1.0])
    def test_invalid_rtol_raises_before_any_evaluation(self, rtol):
        sizes = []
        with pytest.raises(ValueError, match="rtol"):
            converge_doubling(lambda n: sizes.append(n) or 1.0, 8, rtol)
        assert sizes == []

    @pytest.mark.parametrize("nmax", [math.nan, "x", math.inf, 0, 0.5])
    def test_invalid_nmax_raises_before_any_evaluation(self, nmax):
        """A NaN cap made the loop skip every doubling and then read an unset
        difference (UnboundLocalError); a string failed in max() (TypeError)."""
        sizes = []
        with pytest.raises(ValueError, match="nmax"):
            converge_doubling(lambda n: sizes.append(n) or 1.0, 8, 1e-10, nmax)
        assert sizes == []

    @pytest.mark.parametrize("rtol", [math.nan, -1.0])
    @pytest.mark.parametrize("call", [
        lambda rtol: coefficient(np.cos, 3, JacobiParams(0.5, -0.25), rtol=rtol),
        lambda rtol: mehler_r(40, JacobiParams(0.5, 0.0), 2.0, rtol=rtol),
        lambda rtol: transform(Indicator(1.0, 2.0), 3.0, JacobiParams(0.5, 0.0),
                               rtol=rtol),
        lambda rtol: coefficient_series(StepFunction((1.0,), (0.0, 1.0)), 8,
                                        JacobiParams(0.5, -0.25), rtol=rtol),
        lambda rtol: coefficient_series(PowerWeight(-0.3), 8, JacobiParams(0.5, -0.25),
                                        rtol=rtol),
        lambda rtol: coefficient_series(CosinePoly((1.0, 0.5)), 8,
                                        JacobiParams(0.5, -0.25), rtol=rtol),
        lambda rtol: transform_sweep(Indicator(1.0, 2.0), [], JacobiParams(0.5, 0.0),
                                     rtol=rtol),
    ], ids=["coefficient", "mehler_r", "transform", "step", "power", "cospoly",
            "no-frequencies"])
    def test_invalid_rtol_fails_at_once(self, call, rtol, built_sizes):
        """Without the check the quadrature pathways ran the whole doubling
        ladder and then raised AccuracyError, and the closed forms, the exact
        cosine-polynomial rule and an empty sweep accepted it."""
        with pytest.raises(ValueError, match="rtol"):
            call(rtol)
        assert built_sizes == []

    def test_unknown_normalization_fails_at_once(self, built_sizes):
        """sin theta is not smooth in cos theta, so its quadrature never
        settles: without the check first this ran to n = 4096 and raised
        AccuracyError."""
        with pytest.raises(ValueError, match="unknown normalization 'bogus'"):
            coefficient_series(np.sin, 64, JacobiParams(0.5, -0.25), normalization="bogus")
        assert built_sizes == []


# Max |G - I| of the full Gram matrix (K = n - 1) of these rules, measured
# with this check.
ONE_PASS_GRAM = {
    (1056, -0.95, -0.95): 1.7582037984808369e-12,
    (1056, -0.9, 0.0): 6.719529446752581e-13,
    (1056, 0.0, -0.9): 7.962510045842613e-13,
    (1056, 0.3, -0.4): 4.997548598908996e-14,
    (1056, 2.0, 1.0): 7.123422911378598e-14,
    (2112, -0.95, -0.95): 1.2216271966453487e-11,
    (2112, -0.9, 0.0): 1.6553839733441517e-12,
    (2112, 0.0, -0.9): 1.7269614896648668e-12,
    (2112, 0.3, -0.4): 1.231378822692808e-13,
    (2112, 2.0, 1.0): 1.7741363933510002e-13,
    (4224, -0.95, -0.95): 2.30988385157508e-11,
    (4224, -0.9, 0.0): 6.374252572982891e-12,
    (4224, 0.0, -0.9): 6.335582369672234e-12,
    (4224, 0.3, -0.4): 2.686403684682044e-13,
    (4224, 2.0, 1.0): 2.8619381170491565e-13,
}


def gram_deviation(n: int, a: float, b: float) -> float:
    """max |sum_j w_j p_k(x_j) p_l(x_j) - delta_kl| over k, l < n.

    p_k are the orthonormal Jacobi polynomials from the rule's own
    recurrence coefficients; an exact n-point rule gives the identity.
    """
    rule = gauss_jacobi_rule(n, a, b)
    d, e2 = _jacobi_coeffs(n, a, b)
    x, sb = rule.nodes, np.sqrt(e2)
    q = np.empty((n, n))
    q[0] = 1.0 / sb[0]
    q[1] = (x - d[0]) * q[0] / sb[1]
    for k in range(1, n - 1):
        q[k + 1] = ((x - d[k]) * q[k] - sb[k] * q[k - 1]) / sb[k + 1]
    q *= np.sqrt(rule.weights)
    gram = q @ q.T
    gram[np.diag_indices(n)] -= 1.0
    return float(np.max(np.abs(gram)))


class TestRuleAccuracy:
    @pytest.mark.parametrize("n,a,b", sorted(ONE_PASS_GRAM))
    def test_full_gram(self, n, a, b):
        """Orthonormality up to degree n - 1 within 2x of the measured value."""
        assert gram_deviation(n, a, b) <= 2.0 * ONE_PASS_GRAM[(n, a, b)]

    @pytest.mark.parametrize("n,bound", [(1088, 1e-12), (4352, 2e-11)])
    def test_chebyshev_end_weights(self, n, bound):
        """Every Gauss-Chebyshev weight is pi/n, the end ones included: the
        weights are summed at the unrounded Newton iterate, so the rounding
        of the nodes next to +-1 does not reach them."""
        w = gauss_jacobi_rule(n, -0.5, -0.5).weights
        assert float(np.max(np.abs(w * n / math.pi - 1.0))) <= bound

    @pytest.mark.parametrize("a,rtol", [(-0.9, 1e-13), (-0.99, 2e-12)])
    def test_mass_near_exponent_minus_one(self, a, rtol):
        """The total weight 2^(a+1)/(a+1) at n = 4352, where the weights next
        to x = 1 carry much of the mass."""
        mass = float(np.sum(gauss_jacobi_rule(4352, a, 0.0).weights))
        np.testing.assert_allclose(mass, 2.0 ** (a + 1.0) / (a + 1.0), rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("n", [512, 1024])
    def test_large_laguerre(self, n):
        """Nodes run past 2000, where e^(x/2)-sized recurrence values overflow
        unless rescaled; the rule must stay finite and exact on low moments."""
        rule = gauss_laguerre_rule(n, 0.5)
        assert np.all(np.isfinite(rule.nodes))
        assert np.all(np.isfinite(rule.weights))
        assert np.all(rule.weights >= 0.0)
        for m in range(6):
            np.testing.assert_allclose(float(rule.weights @ rule.nodes ** m),
                                       math.gamma(m + 1.5), rtol=1e-12)

    def test_ladder_size(self):
        assert [ladder_size(n) for n in (1, 31, 32, 33, 1056, 1057)] == \
            [32, 32, 32, 64, 1056, 1088]


P = JacobiParams(0.3, -0.2)
UNIT_STEP = LaguerreStep((1.0,), (1.0,))
UNIT_RAMP = HalfLineGrid((0.5, 1.5), (1.0, 0.0))

# Each call runs one doubling loop whose evaluations build one rule each.
SINGLE_RULE_LOOPS = {
    "mehler_r": lambda: mehler_r(5, P, 1.0),
    "mehler_limit_r": lambda: mehler_limit_r(5, -0.4, 1.0),
    "kernel_mass_h": lambda: kernel_mass_h(0.7, 0.25),
    "jacobi_function": lambda: jacobi_function(3.0, 1.5, P),
    "coefficient": lambda: coefficient(lambda th: CosinePoly((0.5, 1.0, 0.25))(th), 3, P),
    "coefficient_series": lambda: coefficient_series(np.cos, 64, P),
    "norm_l": lambda: norm_l(CosinePoly((1.0, 0.5)), P),
    "laguerre_grid_series": lambda: laguerre_coefficient_series(UNIT_RAMP, 8, 0.5),
    "step_identity_check": lambda: step_identity_check(1.5, 4, 0.5),
    "phi_grid": lambda: _phi_grid(P, np.array([1.5]), np.array([0.0, 4.0])),
}


@pytest.fixture
def built_sizes(monkeypatch):
    """Sizes of every Gauss rule requested, cache hits included, in order.

    The Mehler kernel and step identity caches are emptied first: on a warm
    cache those loops request no rule at all.
    """
    mehler._kernel_data.cache_clear()
    laguerre._identity_sides.cache_clear()
    sizes = []
    for name in ("_gauss_jacobi_cached", "_gauss_laguerre_cached"):
        cached = getattr(quadrature, name)
        monkeypatch.setattr(quadrature, name,
                            lambda n, *ab, cached=cached:
                            sizes.append(n) or cached(n, *ab))
    return sizes


class TestDoublingLoops:
    @pytest.mark.parametrize("name", sorted(SINGLE_RULE_LOOPS))
    def test_compares_strictly_larger_rules(self, name, built_sizes):
        """Rounding a size onto the ladder must never make a loop compare a
        rule with itself and call that convergence."""
        SINGLE_RULE_LOOPS[name]()
        assert len(built_sizes) >= 2
        assert all(n1 > n0 for n0, n1 in zip(built_sizes, built_sizes[1:]))

    @pytest.mark.parametrize("f", [StepFunction((1.0, 2.5), (0.5, 1.0, -2.0)),
                                   PowerWeight(-0.3)])
    def test_closed_forms_request_no_rule(self, f, built_sizes):
        """Step functions and the power weight are summed in closed form,
        their L1 norms and squared norms included."""
        coefficient_series(f, 512, P)
        coefficient(f, 7, P)
        norm_l(f, P)
        parseval_check(f, P, 8)
        assert built_sizes == []

    def test_laguerre_step_norm_requests_no_rule(self, built_sizes):
        """A step's half-line norm is a sum of incomplete gamma masses."""
        laguerre_norm(UNIT_STEP, 0.5)
        laguerre_norm(LaguerreStep((0.5, 3.0, 900.0), (1.0, -2.0, 0.25)), 0.5)
        assert built_sizes == []

    def test_coefficient_quadrature_starts_at_the_exact_size(self, built_sizes):
        """At kmax 1024 a piece spanning [0, pi] starts at the cap
        (1025 // 2) + 32 -> 544 nodes.  In theta, 544 nodes do not yet
        resolve R_1024, so a degree-24 cosine polynomial, passed as a plain
        callable so that it takes the quadrature, settles at 1088 against
        2176.  As a CosinePoly it takes one exact rule instead
        (test_polynomials_request_one_rule_of_the_exact_size).  The Laguerre
        quadrature also starts at (1025 // 2) + 32 -> 544."""
        f = CosinePoly(tuple(1.0 / (m + 1.0) for m in range(25)))
        coefficient_series(lambda th: f(th), 1024, JacobiParams(0.5, -0.25))
        assert built_sizes == [544, 1088, 2176]
        built_sizes.clear()
        laguerre_coefficient_series(UNIT_RAMP, 1024, 0.5)
        assert built_sizes[0] == 544

    def test_grid_pieces_start_from_the_angle_they_span(self, built_sizes):
        """At kmax 1024 each linear piece starts at the ladder size of
        1.5 * 512 * dtheta / pi + 32, capped at 544: the piece [0.5, 0.6]
        (dtheta 0.1) at 25 + 32 -> 64 and [0.6, 2.5] (dtheta 1.9) at
        465 + 32 -> 512.  Both pieces double together, one rule each per rung
        (the constant ends are closed form)."""
        f = GridSampled((0.5, 0.6, 2.5), (1.0, -1.0, 0.5))
        coefficient_series(f, 1024, JacobiParams(0.5, -0.25))
        rungs = [built_sizes[i:i + 2] for i in range(0, len(built_sizes), 2)]
        assert len(rungs) >= 2 and len(built_sizes) == 2 * len(rungs)
        narrow, wide = rungs[0]
        assert max(rungs[0]) <= 544
        assert narrow < wide
        assert rungs[0] == [64, 512]
        for lower, upper in zip(rungs, rungs[1:]):
            assert upper == [2 * n for n in lower]

    def test_polynomials_request_one_rule_of_the_exact_size(self, built_sizes):
        """A cosine polynomial of degree 24 takes one 25-point rule at any
        kmax, its square (the Parseval norm) one 49-point rule, and a
        Laguerre polynomial of degree 2 one 3-point rule.  A damped
        polynomial of degree 1 at kmax 8 takes one 5-point rule, the least n
        with 2n - 1 >= 8 + 1."""
        f = CosinePoly(tuple(1.0 / (m + 1.0) for m in range(25)))
        coefficient_series(f, 1024, P)
        coefficient(f, 7, P)
        assert built_sizes == [25, 25]
        built_sizes.clear()
        parseval_check(f, P, 64)
        assert built_sizes == [25, 49]
        built_sizes.clear()
        laguerre_coefficient_series(LaguerreExpDamped((1.0, 2.0, 0.5)), 512, 0.5)
        assert built_sizes == [3]
        built_sizes.clear()
        laguerre_coefficient_series(LaguerreExpDamped((1.0, 2.0), 0.5), 8, 0.5)
        assert built_sizes == [5]

    def test_damped_norm_without_a_root_requests_one_rule(self, built_sizes):
        """p = 1 + 2x + x^2/2 has no positive root, so |p| = p and one
        2-point rule in (rate + 1/2) x integrates p x^a e^(-(rate + 1/2) x)
        exactly: sum_m c_m Gamma(a + m + 1) / (rate + 1/2)^(a + m + 1)."""
        c, rate, a = (1.0, 2.0, 0.5), 0.5, 0.5
        got = laguerre_norm(LaguerreExpDamped(c, rate), a)
        assert built_sizes == [2]
        want = sum(cm * math.gamma(a + m + 1.0) / (rate + 0.5) ** (a + m + 1.0)
                   for m, cm in enumerate(c))
        np.testing.assert_allclose(got, want, rtol=1e-14)

    @pytest.mark.parametrize("theta", [0.3, 1.5, 2.9])
    def test_chebyshev_limit_requests_no_rule(self, theta, built_sizes):
        """At beta = -1/2 the limit form has no correction nodes: R_k is the
        leading cosine alone."""
        for k in (0, 1, 7, 50):
            assert mehler_limit_r(k, -0.5, theta).value == math.cos(k * theta)
        assert built_sizes == []

    def test_transform_sweep_levels(self, built_sizes, monkeypatch):
        """Each sweep level uses a larger outer rule and larger kernel rules
        than the level before; every kernel rule of one level has the same
        size by construction (see test_a_level_builds_one_kernel_rule).  The
        grid's one piece is linear, so it is swept."""
        from fourierjacobi import jtransform
        levels = []
        sweep_piece = jtransform._sweep_piece

        def recording(*args):
            start = len(built_sizes)
            out = sweep_piece(*args)
            levels.append(built_sizes[start:])
            return out

        monkeypatch.setattr(jtransform, "_sweep_piece", recording)
        transform_sweep(HalfLineGrid((1.0, 2.0), (1.0, 2.0)), [0.5, 3.0], P)
        assert len(levels) >= 2
        for lower, upper in zip(levels, levels[1:]):
            assert upper[0] > lower[0]
            assert min(upper[1:]) > max(lower[1:])

    def test_step_transform_builds_edge_rules_only(self, built_sizes):
        """A step's transform is one boundary row per jump: each level
        requests one kernel rule per edge, all of the far edge's size, and no
        outer rule."""
        transform_sweep(Indicator(1.0, 2.0), [0.5, 3.0], P)
        assert built_sizes == [64, 64, 128, 128]

    def test_phi_grid_doubles_the_whole_grid(self, built_sizes):
        """Both rows are built at size factor 1, then both at factor 2: one
        doubling loop over the grid, not one per row."""
        _phi_grid(P, np.array([0.5, 1.5]), np.array([0.0, 4.0]))
        assert built_sizes == [64, 64, 128, 128]

    def test_a_level_builds_one_kernel_rule(self, built_sizes):
        """Every row of a level takes the kernel size of the largest t: at
        tau 50 the row at t = 12 needs 256 nodes, and the row at t = 0.5,
        which alone would take 64, maps the same rule."""
        _phi_grid(P, np.array([0.5, 12.0]), np.array([0.0, 50.0]))
        assert built_sizes == [256, 256, 512, 512]

    def test_envelope_evaluates_phi_once(self, monkeypatch):
        """The verification grid is the calibration grid with every midpoint
        inserted, uneven spacing kept, and phi is evaluated on it alone."""
        from fourierjacobi import jtransform
        calls = []
        phi_grid = jtransform._phi_grid

        def recording(params, ts, taus, *args):
            calls.append((ts.tolist(), taus.tolist()))
            return phi_grid(params, ts, taus, *args)

        monkeypatch.setattr(jtransform, "_phi_grid", recording)
        rep = jtransform.envelope_check(P, [0.0, 1.0, 3.0], [0.0, 2.0, 3.0])
        assert calls == [([0.0, 0.5, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 2.5, 3.0])]
        assert rep.verified
