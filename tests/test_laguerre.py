"""Laguerre expansions on the half line: coefficients, identity, bound."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fourierjacobi import (
    LaguerreStep,
    LaguerreExpDamped,
    gauss_laguerre_rule,
    laguerre_coefficient,
    laguerre_coefficient_series,
    laguerre_norm,
    laguerre_r,
    step_identity_check,
    laguerre_bound_profile,
    laguerre_decay,
)

UNIT_STEP = LaguerreStep((1.0,), (1.0,))


class TestFunctionSpecs:
    def test_step_evaluation(self):
        f = LaguerreStep((1.0, 2.5), (2.0, -1.0))
        np.testing.assert_array_equal(f(np.array([0.5, 1.7, 3.0])),
                                      [2.0, -1.0, 0.0])

    def test_step_validation(self):
        with pytest.raises(ValueError):
            LaguerreStep((2.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            LaguerreStep((0.0,), (1.0,))
        with pytest.raises(ValueError):
            LaguerreStep((1.0,), (1.0, 2.0))

    def test_polynomial_evaluation(self):
        """A polynomial is a damped polynomial with the default rate 0."""
        f = LaguerreExpDamped((1.0, 0.0, 2.0))
        assert f.rate == 0.0
        np.testing.assert_allclose(f(3.0), 19.0)

    def test_damped_validation(self):
        with pytest.raises(ValueError):
            LaguerreExpDamped((1.0,), rate=-0.5)
        f = LaguerreExpDamped((1.0, 1.0), rate=2.0)
        np.testing.assert_allclose(f(1.0), 2.0 * math.exp(-2.0))

    @pytest.mark.parametrize("make", [
        lambda: LaguerreStep((math.nan,), (1.0,)),
        lambda: LaguerreStep((1.0, math.inf), (1.0, 1.0)),
        lambda: LaguerreStep((1.0,), (math.nan,)),
        lambda: LaguerreExpDamped((1.0,), rate=math.nan),
        lambda: LaguerreExpDamped((1.0,), rate=math.inf),
        lambda: LaguerreExpDamped((1.0, math.nan)),
    ])
    def test_non_finite_parameters_raise(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    @pytest.mark.parametrize("call", [
        lambda a: laguerre_coefficient(UNIT_STEP, 2, a),
        lambda a: laguerre_norm(UNIT_STEP, a),
        lambda a: step_identity_check(1.0, 2, a),
        lambda a: gauss_laguerre_rule(4, a),
    ])
    def test_nan_exponent_raises(self, call):
        with pytest.raises(ValueError, match="exponent must be > -1"):
            call(math.nan)

    @pytest.mark.parametrize("call", [
        lambda a: laguerre_coefficient(UNIT_STEP, 2, a),
        lambda a: laguerre_coefficient_series(UNIT_STEP, 4, a),
        lambda a: laguerre_norm(UNIT_STEP, a),
        lambda a: step_identity_check(1.0, 2, a),
        lambda a: laguerre_decay(UNIT_STEP, 64, a),
    ])
    def test_infinite_exponent_raises(self, call):
        with pytest.raises(ValueError, match="finite"):
            call(math.inf)


class TestCoefficient:
    def test_unit_step_frozen(self):
        """hat(1) of the unit-interval indicator at alpha = 0 is exp(-1)."""
        got = laguerre_coefficient(UNIT_STEP, 1, 0.0)
        np.testing.assert_allclose(got, math.exp(-1.0), rtol=1e-10)

    def test_against_adaptive(self):
        alpha = 0.5
        for k in (0, 3, 7):
            def integrand(x):
                return (UNIT_STEP(x) * laguerre_r(k, alpha, x)
                        * x ** alpha * math.exp(-x))
            ref, _ = quad(integrand, 0.0, 1.0, limit=200)
            np.testing.assert_allclose(laguerre_coefficient(UNIT_STEP, k,
                                                            alpha),
                                       ref, rtol=1e-9, atol=1e-13)

    def test_eigenfunction_pickout(self):
        """The degree-2 polynomial L_2 itself has a single nonzero coefficient.

        With R_2 = L_2 / L_2(0), the expansion integral against R_2 gives the
        squared norm Gamma(alpha+1) and every other degree drops out.
        """
        for alpha in (0.0, 1.5):
            c2 = ((alpha + 1.0) * (alpha + 2.0) / 2.0, -(alpha + 2.0), 0.5)
            f = LaguerreExpDamped(c2)
            got = laguerre_coefficient(f, 2, alpha)
            np.testing.assert_allclose(got, math.gamma(alpha + 1.0),
                                       rtol=1e-10)
            for k in (0, 1, 3, 5):
                assert abs(laguerre_coefficient(f, k, alpha)) < 1e-10 * f(0.0)

    def test_exponential_mass(self):
        """f = exp(-c x) has hat(0) = Gamma(alpha+1) / (1+c)^(alpha+1)."""
        alpha, c = 0.75, 2.0
        f = LaguerreExpDamped((1.0,), rate=c)
        got = laguerre_coefficient(f, 0, alpha)
        np.testing.assert_allclose(got,
                                   math.gamma(alpha + 1.0)
                                   / (1.0 + c) ** (alpha + 1.0),
                                   rtol=1e-10)

    def test_series_matches_pointwise(self):
        values = laguerre_coefficient_series(UNIT_STEP, 12, 0.5)
        assert values.shape == (13,)
        for k in (0, 4, 12):
            np.testing.assert_allclose(values[k],
                                       laguerre_coefficient(UNIT_STEP, k, 0.5),
                                       rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.5])
    @pytest.mark.parametrize("edge", [700.0, 746.0, 1e6, 1e300])
    def test_far_step_edge_is_the_constant(self, alpha, edge):
        """Far out, the indicator of [0, edge) has the coefficients of 1 (Gamma(alpha+1),
        then zeros) up to e^(-edge/2); 700 and 746 lie either side of where
        e^(-x) underflows."""
        for kmax in (3, 64, 512):
            got = laguerre_coefficient_series(LaguerreStep((edge,), (1.0,)), kmax, alpha)
            want = np.zeros(kmax + 1)
            want[0] = math.gamma(alpha + 1.0)
            np.testing.assert_allclose(got, want, rtol=0.0,
                                       atol=2e-12 * max(1.0, want[0]))

    def test_piece_past_a_far_edge_is_dropped(self):
        far = laguerre_coefficient_series(LaguerreStep((1e6, 2e6), (1.0, 5.0)), 8, 0.5)
        np.testing.assert_array_equal(
            far, laguerre_coefficient_series(LaguerreStep((1e6,), (1.0,)), 8, 0.5))
        np.testing.assert_allclose(far[0], math.gamma(1.5), rtol=1e-13)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.5])
    @pytest.mark.parametrize("rate", [0.0, 0.5, 3.0])
    def test_damped_constant_to_high_degree(self, alpha, rate):
        """e^(-r x) has hat(k) = Gamma(a+1) (r/(1+r))^k (1+r)^(-a-1); the far
        Gauss-Laguerre nodes, whose weights underflow, must not make NaNs."""
        k = np.arange(1025)
        want = math.gamma(alpha + 1.0) * (rate / (1.0 + rate)) ** k * (1.0 + rate) ** (-alpha - 1.0)
        got = laguerre_coefficient_series(LaguerreExpDamped((1.0,), rate), 1024, alpha)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=2e-12 * max(1.0, math.gamma(alpha + 1.0)))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            laguerre_coefficient(UNIT_STEP, -1, 0.0)
        with pytest.raises(ValueError):
            laguerre_coefficient(UNIT_STEP, 2, -1.0)


class TestNorm:
    def test_unit_step_frozen(self):
        """Weighted L-norm of the indicator at alpha = 0: 2 (1 - e^(-1/2))."""
        got = laguerre_norm(UNIT_STEP, 0.0)
        np.testing.assert_allclose(got, 2.0 * (1.0 - math.exp(-0.5)),
                                   rtol=1e-10)

    def test_against_adaptive(self):
        alpha = 1.0
        f = LaguerreExpDamped((1.0, -1.0))   # changes sign at x = 1
        def integrand(x):
            return abs(f(x)) * x ** alpha * math.exp(-x / 2.0)
        ref, _ = quad(integrand, 0.0, 60.0, limit=300, points=[1.0])
        np.testing.assert_allclose(laguerre_norm(f, alpha), ref, rtol=1e-8)

    def test_damped_norm(self):
        alpha = 0.5
        f = LaguerreExpDamped((1.0,), rate=1.0)
        def integrand(x):
            return x ** alpha * math.exp(-1.5 * x)
        ref, _ = quad(integrand, 0.0, 80.0, limit=300)
        np.testing.assert_allclose(laguerre_norm(f, alpha), ref, rtol=1e-9)

    def test_start_above_half_the_cap(self, monkeypatch):
        """A start size past 2048 (a polynomial of 2041 or more coefficients)
        must still compare two rule sizes rather than skip the loop."""
        from fourierjacobi import laguerre
        monkeypatch.setattr(laguerre, "ladder_size", lambda n: 2080)
        got = laguerre_norm(LaguerreExpDamped((1.0,)), 0.5)
        np.testing.assert_allclose(got, math.gamma(1.5) * 2.0 ** 1.5,
                                   rtol=1e-12)


class TestStepIdentity:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 10.0])
    @pytest.mark.parametrize("k", [1, 2, 7, 30])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_two_sides_agree(self, a, k, alpha):
        lhs, rhs = step_identity_check(a, k, alpha)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10,
                                   atol=1e-10 * max(1.0, abs(rhs)))

    def test_lhs_against_adaptive(self):
        a, k, alpha = 2.0, 4, 0.5
        lhs, _ = step_identity_check(a, k, alpha)
        def integrand(x):
            return laguerre_r(k, alpha, x) * x ** alpha * math.exp(-x)
        ref, _ = quad(integrand, 0.0, a, limit=200)
        np.testing.assert_allclose(lhs, ref, rtol=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            step_identity_check(0.0, 3, 0.5)
        with pytest.raises(ValueError):
            step_identity_check(1.0, 0, 0.5)


class TestBound:
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_damped_ratio_within_one(self, alpha):
        profile = laguerre_bound_profile(60, alpha)
        assert profile.shape == (61,)
        assert np.all(profile <= 1.0 + 1e-10)

    def test_negative_alpha_runs(self):
        """Below alpha = 0 the inequality is not asserted, only measured."""
        vals = laguerre_bound_profile(40, -0.5)
        assert np.all(np.isfinite(vals))


class TestDecay:
    def test_step_coefficients_fall(self):
        """Oscillation makes r^2 meaningless here; decade maxima are robust."""
        rep = laguerre_decay(UNIT_STEP, 256, 1.0)
        assert rep.slope < 0.0
        values = np.abs(laguerre_coefficient_series(UNIT_STEP, 256, 1.0))
        early = values[16:33].max()
        late = values[128:257].max()
        assert late < 0.2 * early

    def test_requires_nonneg_alpha(self):
        with pytest.raises(ValueError):
            laguerre_decay(UNIT_STEP, 256, -0.25)

    @pytest.mark.parametrize("window, match", [
        ((0, 100), "outside the series range"),
        ((-4, 64), "outside the series range"),
        ((8, 8), "outside the series range"),
        ((40, 64), "doubling"),
    ])
    def test_window_checked(self, window, match):
        """Bad windows raise the same ValueError as decay_fit."""
        with pytest.raises(ValueError, match=match):
            laguerre_decay(UNIT_STEP, 64, 1.0, window=window)
