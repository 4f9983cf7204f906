"""Gauss rules: exactness degrees, scipy agreement, singular-endpoint rules."""

import math

import numpy as np
import pytest
import scipy.special as sp
from scipy.integrate import quad

from fourierjacobi import (
    AccuracyError,
    CosinePoly,
    Indicator,
    JacobiParams,
    LaguerreExpDamped,
    LaguerrePolynomial,
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
    step_identity_check,
    transform_sweep,
    gauss_jacobi_rule,
    gauss_legendre_rule,
    gauss_laguerre_rule,
    mapped_jacobi_rule,
    mehler_inner_rule,
    converge_doubling,
)
from fourierjacobi import mehler, quadrature
from fourierjacobi.jtransform import _phi_grid
from fourierjacobi.quadrature import _jacobi_coeffs, ladder_size


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


class TestMehlerInnerRule:
    def test_kernel_mass_frozen(self):
        """Integral of (cos(phi) - cos(1))^(-1/2) over [0, 1]; frozen value."""
        rule = mehler_inner_rule(1.0, 0.0, 24)
        np.testing.assert_allclose(float(np.sum(rule.weights)),
                                   2.3687991130297004, rtol=1e-12)

    def test_half_pi_zero_alpha(self):
        """At theta = pi/2 the mass is the B(1/4, 1/2)/2 cosine integral."""
        rule = mehler_inner_rule(math.pi / 2, 0.0, 30)
        np.testing.assert_allclose(float(np.sum(rule.weights)),
                                   2.6220575542921196, rtol=1e-12)
        np.testing.assert_allclose(float(np.sum(rule.weights)),
                                   0.5 * sp.beta(0.25, 0.5), rtol=1e-12)

    def test_alpha_half_is_plain_measure(self):
        """Exponent 1/2 - 1/2 = 0 leaves d(phi), so smooth f integrate exactly."""
        theta = 2.2
        rule = mehler_inner_rule(theta, 0.5, 30)
        got = float(rule.weights @ np.cos(rule.nodes))
        np.testing.assert_allclose(got, math.sin(theta), rtol=1e-12)

    def test_nodes_inside(self):
        theta = 0.7
        rule = mehler_inner_rule(theta, 1.25, 16)
        assert np.all((rule.nodes > 0.0) & (rule.nodes < theta))

    def test_oscillatory_against_adaptive(self):
        """cos(7 phi) against the singular measure, adaptive oracle."""
        theta, alpha = 1.3, 0.75
        rule = mehler_inner_rule(theta, alpha, 48)
        got = float(rule.weights @ np.cos(7.0 * rule.nodes))
        ref, _ = quad(lambda p: math.cos(7.0 * p)
                      * (math.cos(p) - math.cos(theta)) ** (alpha - 0.5),
                      0.0, theta, points=[theta], limit=200)
        np.testing.assert_allclose(got, ref, rtol=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            mehler_inner_rule(1e-9, 0.5, 8)
        with pytest.raises(ValueError):
            mehler_inner_rule(1.0, -0.5, 8)


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


# Max |G - I| of the full Gram matrix (K = n - 1) of the eigenvector-based
# Golub-Welsch rules this package used before, measured with the same check.
GOLUB_WELSCH_GRAM = {
    (1056, -0.95, -0.95): 3.756367265850269e-11,
    (1056, -0.9, 0.0): 8.493182285934653e-12,
    (1056, 0.0, -0.9): 5.357243240602244e-12,
    (1056, 0.3, -0.4): 2.462619409608624e-13,
    (1056, 2.0, 1.0): 1.8418860187052744e-13,
    (2112, -0.95, -0.95): 8.06397476734149e-11,
    (2112, -0.9, 0.0): 3.350756334181103e-11,
    (2112, 0.0, -0.9): 1.8467188634416556e-12,
    (2112, 0.3, -0.4): 1.771009554285552e-13,
    (2112, 2.0, 1.0): 5.187465040856765e-13,
    (4224, -0.95, -0.95): 3.410069817871126e-10,
    (4224, -0.9, 0.0): 5.017435269615445e-11,
    (4224, 0.0, -0.9): 3.852484230267689e-11,
    (4224, 0.3, -0.4): 4.858613511515841e-13,
    (4224, 2.0, 1.0): 3.0888798463468703e-12,
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
    @pytest.mark.parametrize("n,a,b", sorted(GOLUB_WELSCH_GRAM))
    def test_full_gram(self, n, a, b):
        """Orthonormality up to degree n - 1 within 2x of Golub-Welsch."""
        assert gram_deviation(n, a, b) <= 2.0 * GOLUB_WELSCH_GRAM[(n, a, b)]

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

# Each call runs one doubling loop whose evaluations build one rule each.
SINGLE_RULE_LOOPS = {
    "mehler_r": lambda: mehler_r(5, P, 1.0),
    "mehler_limit_r": lambda: mehler_limit_r(5, -0.4, 1.0),
    "kernel_mass_h": lambda: kernel_mass_h(0.7, 0.25),
    "jacobi_function": lambda: jacobi_function(3.0, 1.5, P),
    "coefficient": lambda: coefficient(CosinePoly((0.5, 1.0, 0.25)), 3, P),
    "coefficient_series": lambda: coefficient_series(np.cos, 64, P),
    "norm_l": lambda: norm_l(CosinePoly((1.0, 0.5)), P),
    "laguerre_step_series": lambda: laguerre_coefficient_series(UNIT_STEP, 8, 0.5),
    "laguerre_poly_series": lambda: laguerre_coefficient_series(
        LaguerrePolynomial((1.0, 2.0)), 8, 0.5),
    "laguerre_step_norm": lambda: laguerre_norm(UNIT_STEP, 0.5),
    "laguerre_damped_norm": lambda: laguerre_norm(
        LaguerreExpDamped((1.0,), 0.5), 0.5),
    "step_identity_check": lambda: step_identity_check(1.5, 4, 0.5),
    "phi_grid": lambda: _phi_grid(P, np.array([1.5]), np.array([0.0, 4.0])),
}


@pytest.fixture
def built_sizes(monkeypatch):
    """Sizes of every Gauss rule requested, cache hits included, in order.

    The Mehler kernel cache is emptied first: on a warm cache the Mehler
    loops request no rule at all.
    """
    mehler._kernel_data.cache_clear()
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
        """Step functions and the power weight are summed in closed form."""
        coefficient_series(f, 512, P)
        coefficient(f, 7, P)
        assert built_sizes == []

    @pytest.mark.parametrize("theta", [0.3, 1.5, 2.9])
    def test_chebyshev_limit_requests_no_rule(self, theta, built_sizes):
        """At beta = -1/2 the limit form has no correction nodes: R_k is the
        leading cosine alone."""
        for k in (0, 1, 7, 50):
            assert mehler_limit_r(k, -0.5, theta).value == math.cos(k * theta)
        assert built_sizes == []

    def test_transform_sweep_levels(self, built_sizes, monkeypatch):
        """Each sweep level uses a larger outer rule and larger kernel rules
        than the level before.  tau * t / pi stays below 2 on this support,
        so every kernel rule of one level has the same size."""
        from fourierjacobi import jtransform
        levels = []
        sweep_piece = jtransform._sweep_piece

        def recording(*args):
            start = len(built_sizes)
            out = sweep_piece(*args)
            levels.append(built_sizes[start:])
            return out

        monkeypatch.setattr(jtransform, "_sweep_piece", recording)
        transform_sweep(Indicator(1.0, 2.0), [0.5, 3.0], P)
        assert len(levels) >= 2
        for lower, upper in zip(levels, levels[1:]):
            assert upper[0] > lower[0]
            assert min(upper[1:]) > max(lower[1:])
