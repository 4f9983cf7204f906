"""Coefficients, norms, synthesis, Parseval, and the slope analyzers."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.special as sp
from scipy.integrate import quad
from hypothesis import assume, given, settings, strategies as st

from fourierjacobi import (
    AccuracyError,
    JacobiParams,
    StepFunction,
    PowerWeight,
    CosinePoly,
    GridSampled,
    CoefficientSeries,
    DecayReport,
    coefficient,
    coefficient_series,
    norm_l,
    synthesize,
    parseval_check,
    decay_fit,
    decade_max,
    counterexample_slope,
    gauss_jacobi_rule,
    sup_norm_r,
    sup_norm_slope,
    h_normalizer,
    jacobi_p_one,
    jacobi_r,
)
import fourierjacobi.laguerre as laguerre_module
import fourierjacobi.series as series_module
from fourierjacobi.selftest import closed_form_gap

CHEB = JacobiParams(-0.5, -0.5)
STEP = StepFunction((math.pi / 3, math.pi / 2), (0.0, 1.0, 0.0))


def theta_weight(theta, a, b):
    return (np.sin(theta / 2.0) ** (2.0 * a + 1.0)
            * np.cos(theta / 2.0) ** (2.0 * b + 1.0))


class TestFunctionSpecs:
    def test_step_evaluation(self):
        assert STEP(1.2) == 1.0
        assert STEP(0.5) == 0.0
        np.testing.assert_array_equal(STEP(np.array([0.2, 1.1, 3.0])),
                                      [0.0, 1.0, 0.0])

    def test_step_validation(self):
        with pytest.raises(ValueError):
            StepFunction((2.0, 1.0), (0.0, 1.0, 0.0))   # not increasing
        with pytest.raises(ValueError):
            StepFunction((0.0, 1.0), (0.0, 1.0, 0.0))   # breakpoint at 0
        with pytest.raises(ValueError):
            StepFunction((1.0,), (0.0, 1.0, 0.0))       # length mismatch

    def test_power_weight(self):
        f = PowerWeight(-0.3)
        theta = 1.1
        np.testing.assert_allclose(f(theta),
                                   (1.0 + math.cos(theta)) ** -0.3)

    def test_cosine_poly(self):
        f = CosinePoly((0.5, 0.0, 2.0))
        assert f.degree == 2
        theta = 0.8
        np.testing.assert_allclose(f(theta),
                                   0.5 + 2.0 * math.cos(2.0 * theta))

    def test_grid_sampled(self):
        f = GridSampled((0.5, 1.0, 2.0), (1.0, 3.0, 0.0))
        np.testing.assert_allclose(f(0.75), 2.0)
        np.testing.assert_allclose(f(0.1), 1.0)   # constant extension
        np.testing.assert_allclose(f(3.0), 0.0)
        with pytest.raises(ValueError):
            GridSampled((0.5,), (1.0,))
        with pytest.raises(ValueError):
            GridSampled((0.0, 1.0), (1.0, 2.0))

    @pytest.mark.parametrize("make", [
        lambda: StepFunction((1.0,), (0.0, math.nan)),
        lambda: StepFunction((math.nan,), (0.0, 1.0)),
        lambda: PowerWeight(math.nan),
        lambda: PowerWeight(-math.inf),
        lambda: CosinePoly((1.0, math.inf)),
        lambda: GridSampled((0.5, 1.0), (1.0, math.nan)),
    ])
    def test_non_finite_parameters_raise(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()


class TestCoefficient:
    @settings(max_examples=25, deadline=None)
    @given(st.floats(-0.9, 2.0), st.floats(-0.9, 2.0))
    def test_constant_mass(self, a, b):
        """hat(0) of f = 1 is the Beta mass of the weight."""
        got = coefficient(CosinePoly((1.0,)), 0, JacobiParams(a, b))
        np.testing.assert_allclose(got, sp.beta(a + 1.0, b + 1.0), rtol=1e-10)

    def test_constant_higher_coefficients_vanish(self):
        params = JacobiParams(0.5, 0.25)
        for k in (1, 2, 9):
            assert abs(coefficient(CosinePoly((1.0,)), k, params)) < 1e-12

    def test_cosine_frozen(self):
        got = coefficient(CosinePoly((0.0, 1.0)), 1, CHEB)
        np.testing.assert_allclose(got, math.pi / 2.0, rtol=1e-12)

    def test_chebyshev_orthogonality(self):
        """cos(m theta) expands into delta_mk / h_k at (-1/2, -1/2)."""
        coeffs = [0.0] * 5 + [1.0]
        f = CosinePoly(tuple(coeffs))
        for k in (3, 5, 8):
            want = 1.0 / h_normalizer(5, CHEB) if k == 5 else 0.0
            np.testing.assert_allclose(coefficient(f, k, CHEB), want,
                                       atol=1e-10)

    def test_step_against_adaptive(self):
        """Step coefficient against a theta-space adaptive oracle."""
        params = JacobiParams(0.3, -0.2)
        from fourierjacobi import jacobi_r
        for k in (0, 4, 11):
            def integrand(theta):
                return (STEP(theta)
                        * jacobi_r(k, params, math.cos(theta))
                        * theta_weight(theta, 0.3, -0.2))
            ref, _ = quad(integrand, math.pi / 3, math.pi / 2, limit=200)
            np.testing.assert_allclose(coefficient(STEP, k, params), ref,
                                       rtol=1e-9, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-0.45, 1.5), st.floats(0.05, 0.95),
           st.floats(0.3, 1.4), st.floats(0.2, 1.2), st.integers(0, 12))
    def test_bounded_by_norm(self, a, frac, lo, width, k):
        """|hat(k)| <= norm_L(f) inside the region where |R_k| <= 1."""
        b = -1.0 + (a + 1.0) * frac
        params = JacobiParams(a, min(b, a))
        f = StepFunction((lo, lo + width), (0.0, 1.0, 0.0))
        got = abs(coefficient(f, k, params))
        assert got <= norm_l(f, params) + 1e-10

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            coefficient(STEP, -1, CHEB)


class TestNorm:
    def test_step_unweighted_length(self):
        np.testing.assert_allclose(norm_l(STEP, CHEB), math.pi / 6.0,
                                   rtol=1e-12)

    # 40-digit mpmath: 2^(-a-b-1) times the integral over the step's support of
    # (2 sin^2(t/2))^a (2 cos^2(t/2))^b sin t dt, at (a, b) = (0.5, -0.25).
    @pytest.mark.parametrize("f, mass", [
        (StepFunction((1e-9,), (1.0, 0.0)), 8.333333333333334889643953e-29),
        (STEP, 0.1722155970459874001038242),
    ])
    def test_step_norms_against_mpmath(self, f, mass):
        """Step norms are closed-form masses, so a breakpoint at 1e-9, whose
        quadrature piece cos(1e-9) = 1 would be empty, keeps its mass."""
        params = JacobiParams(0.5, -0.25)
        scaled = StepFunction(f.breakpoints, tuple(-2.0 * v for v in f.values))
        np.testing.assert_allclose(norm_l(f, params), mass, rtol=1e-13)
        np.testing.assert_allclose(norm_l(scaled, params), 2.0 * mass, rtol=1e-13)
        for g, want in ((f, mass), (scaled, 4.0 * mass)):
            np.testing.assert_allclose(parseval_check(g, params, 8).norm_sq, want,
                                       rtol=1e-13)

    def test_constant_mass(self):
        params = JacobiParams(0.5, 1.0)
        np.testing.assert_allclose(norm_l(CosinePoly((1.0,)), params),
                                   sp.beta(1.5, 2.0), rtol=1e-11)

    def test_zero_function(self):
        assert norm_l(CosinePoly((0.0,)), CHEB) == 0.0
        assert norm_l(StepFunction((1.0,), (0.0, 0.0)), CHEB) == 0.0

    def test_sign_change_handling(self):
        """|cos theta| requires subdividing at the interior zero."""
        got = norm_l(CosinePoly((0.0, 1.0)), CHEB)
        ref, _ = quad(lambda t: abs(math.cos(t)), 0.0, math.pi)
        np.testing.assert_allclose(got, ref, rtol=1e-10)

    def test_sign_change_cut_to_the_last_bit(self):
        """The bisection that places cuts runs to adjacent doubles."""
        (cut,) = series_module._sign_change_cuts(np.cos, 0.0, math.pi, 256)
        assert abs(cut - math.pi / 2.0) <= math.ulp(math.pi / 2.0)

    # The worst of these, (-0.9, 0.5, -0.6), is 8.1e-14 off 30-digit mpmath.
    @pytest.mark.parametrize("a, b, rho", [(0.0, 0.0, -0.3), (0.5, -0.25, 0.45),
                                           (-0.9, 0.5, -0.6), (2.0, -0.6, 1.5)])
    def test_power_weight_norms(self, a, b, rho):
        """With u = cos^2(theta/2) both norms are Beta integrals: the L1 norm
        is 2^rho B(a+1, b+rho+1), the squared norm 2^(2 rho) B(a+1, b+2 rho+1)."""
        params, f = JacobiParams(a, b), PowerWeight(rho)
        np.testing.assert_allclose(norm_l(f, params),
                                   2.0 ** rho * sp.beta(a + 1.0, b + rho + 1.0), rtol=1e-13)
        np.testing.assert_allclose(parseval_check(f, params, 8).norm_sq,
                                   4.0 ** rho * sp.beta(a + 1.0, b + 2.0 * rho + 1.0),
                                   rtol=1e-13)

    def test_power_weight_norms_need_integrable_powers(self):
        with pytest.raises(ValueError, match="beta \\+ rho > -1"):
            norm_l(PowerWeight(-0.6), JacobiParams(0.0, -0.5))
        # beta + rho = -0.6: the coefficients exist, but f is not square-integrable.
        with pytest.raises(ValueError, match="beta \\+ 2 rho > -1"):
            parseval_check(PowerWeight(-0.6), JacobiParams(0.0, 0.0), 8)

    def test_plain_callable_norms(self):
        """At (-1/2, -1/2) the weight is 1: |cos| integrates to 2, cos^2 to pi/2."""
        np.testing.assert_allclose(norm_l(np.cos, CHEB), 2.0, rtol=1e-13)
        np.testing.assert_allclose(parseval_check(np.cos, CHEB, 4).norm_sq, math.pi / 2.0,
                                   rtol=1e-13)

    def test_grid_sampled_norm(self):
        f = GridSampled((0.8, 1.5, 2.2), (0.0, 2.0, 0.0))
        params = JacobiParams(0.0, 0.0)
        def integrand(theta):
            return abs(f(theta)) * theta_weight(theta, 0.0, 0.0)
        ref, _ = quad(integrand, 0.0, math.pi, limit=200)
        np.testing.assert_allclose(norm_l(f, params), ref, rtol=1e-9)


class TestCoefficientSeries:
    def test_matches_pointwise(self):
        params = JacobiParams(0.5, -0.25)
        series = coefficient_series(STEP, 16, params)
        assert series.kmax == 16 and series.normalization == "hat"
        for k in (0, 5, 16):
            np.testing.assert_allclose(series.values[k],
                                       coefficient(STEP, k, params),
                                       rtol=1e-10, atol=1e-13)

    def test_unnormalized_scaling(self):
        params = JacobiParams(1.0, -0.5)
        hat = coefficient_series(STEP, 10, params)
        unn = coefficient_series(STEP, 10, params,
                                 normalization="unnormalized")
        scale = np.array([jacobi_p_one(k, params) for k in range(11)])
        np.testing.assert_allclose(unn.values, hat.values * scale,
                                   rtol=1e-12)

    def test_finite_cosine_expansion_terminates(self):
        series = coefficient_series(CosinePoly((1.0, 0.0, 0.5)), 12, CHEB)
        assert np.all(np.abs(series.values[3:]) < 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoefficientSeries(CHEB, 4, np.zeros(4))
        with pytest.raises(ValueError):
            CoefficientSeries(CHEB, 3, np.zeros(4), normalization="bogus")
        with pytest.raises(ValueError):
            coefficient_series(STEP, 0, CHEB)
        # Closed-form and quadrature inputs reject a bad degree alike.
        grid = GridSampled(tuple(np.linspace(0.5, 2.5, 9)), tuple(np.ones(9)))
        for f in (STEP, PowerWeight(-0.3), grid):
            for bad in (2.5, -1):
                with pytest.raises(ValueError, match="degree"):
                    coefficient(f, bad, CHEB)
            with pytest.raises(ValueError, match="degree"):
                coefficient_series(f, 16.0, CHEB)

    @pytest.mark.parametrize("f,kmax,params,rtol", [
        (CosinePoly(tuple(1.0 / (m + 1.0) for m in range(25))), 1024,
         JacobiParams(-0.9, 0.0), 1e-12),
        (CosinePoly((1.0, 0.5, 0.25)), 256, JacobiParams(-0.5, -0.9), 1e-14),
    ])
    def test_unreachable_rtol_raises(self, f, kmax, params, rtol):
        """When the last two doublings still differ by more than rtol the
        series must raise, not return the values of a stalled loop."""
        with pytest.raises(AccuracyError) as exc:
            coefficient_series(f, kmax, params, rtol=rtol)
        assert exc.value.achieved > rtol


MULTI = StepFunction((0.3, 1.1, 2.0, 2.9), (0.5, -1.0, 2.0, 0.25, 1.0))
NEAR_ZERO = StepFunction((1e-9,), (1.0, 0.0))


class TestClosedForms:
    """Step functions and the power weight are summed in closed form."""

    @pytest.mark.parametrize("f, a, b, want", [
        (STEP, -0.5, -0.5, (0.5235987755982989, 0.1339745962155614,
                            0.001381181404284195, 0.003382911733532845)),
        (STEP, 2.0, 1.0, (0.021809895833333332, 0.007486979166666667,
                          3.231681043167334e-08, -1.1265538530173305e-09)),
        (STEP, -0.9, 0.0, (0.6248242824068329, -1.8639642670368946,
                           -0.1645162958476281, 0.3543999413059842)),
        (MULTI, 0.5, -0.25, (0.7973796423155787, 0.03407967124416884,
                             3.450196019212391e-05, 1.0937443873826082e-05)),
        (MULTI, -0.9, 0.0, (3.323954942617413, -4.296931076663654,
                            -1.7272789958170878, 0.6452485646721657)),
        (NEAR_ZERO, 0.5, -0.25, (8.333333333333336e-29, 8.333333333333334e-29,
                                 8.333333333333327e-29, 8.33333333333328e-29)),
    ])
    def test_step_against_mpmath(self, f, a, b, want):
        """hat(k) at k = 0, 1, 97, 256.  References: 40-digit mpmath betainc
        and jacobi in the same closed forms, for the float breakpoints; the
        forms themselves are checked against quadrature below.  The mass of a
        piece [0, 1e-9] is kept to rounding although cos(1e-9) rounds to 1."""
        vals = coefficient_series(f, 256, JacobiParams(a, b)).values
        got = vals[[0, 1, 97, 256]]
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_power_weight_against_mpmath(self):
        """hat(k) of (1 + cos theta)^-0.8 at (-0.9, 0), k = 0, 1, 512, 1024:
        the Beta integral and the degree ratio in 40-digit mpmath."""
        vals = coefficient_series(PowerWeight(-0.8), 1024, JacobiParams(-0.9, 0.0)).values
        want = [8.385137008864785, -22.360365356972768, 487.55848339005854,
                689.494956498145]
        np.testing.assert_allclose(vals[[0, 1, 512, 1024]], want, rtol=1e-14, atol=0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-0.95, 2.0, exclude_min=True), st.floats(-0.95, 2.0, exclude_min=True),
           st.lists(st.floats(0.05, math.pi - 0.05), min_size=1, max_size=4, unique=True),
           st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5))
    def test_step_matches_quadrature(self, a, b, cuts, values):
        cuts = sorted(cuts)
        assume(all(t1 - t0 > 1e-3 for t0, t1 in zip(cuts, cuts[1:])))
        f = StepFunction(tuple(cuts), tuple(values[:len(cuts) + 1]))
        assert closed_form_gap(f, JacobiParams(a, b), 64) <= 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-0.95, 2.0, exclude_min=True), st.floats(-0.95, 2.0, exclude_min=True),
           st.floats(-0.9, 1.5))
    def test_power_weight_matches_quadrature(self, a, b, rho):
        assume(b + rho > -0.9)
        assert closed_form_gap(PowerWeight(rho), JacobiParams(a, b), 64) <= 1e-9

    @pytest.mark.parametrize("f", [MULTI, PowerWeight(-0.3), CosinePoly((0.5, 1.0, -0.25)),
                                   GridSampled((0.5, 1.0, 2.0), (1.0, 3.0, 0.0))])
    def test_coefficient_is_series_entry(self, f):
        """coefficient(f, k) has the bits of coefficient_series(f, k)[k]; a
        closed form's entry k also does not depend on kmax."""
        params = JacobiParams(0.5, -0.25)
        for k in (1, 2, 77, 300):
            assert coefficient(f, k, params) == coefficient_series(f, k, params).values[k]
        if isinstance(f, (StepFunction, PowerWeight)):
            series = coefficient_series(f, 300, params).values
            for k in (0, 1, 2, 77, 300):
                assert coefficient(f, k, params) == series[k]


class TestSynthesize:
    def test_reconstructs_cosine(self):
        series = coefficient_series(CosinePoly((0.0, 1.0)), 4, CHEB)
        got = synthesize(series, math.pi / 4)
        np.testing.assert_allclose(got, math.cos(math.pi / 4), atol=1e-10)

    def test_reconstructs_constant(self):
        params = JacobiParams(0.75, 0.1)
        series = coefficient_series(CosinePoly((1.0,)), 3, params)
        np.testing.assert_allclose(synthesize(series, 1.0), 1.0, atol=1e-10)

    def test_step_partial_sums_settle(self):
        """Partial sums at an interior constancy point approach the value."""
        params = JacobiParams(0.0, 0.0)
        theta = 1.2   # inside [pi/3, pi/2]... just below pi/2, value 1
        vals = []
        for kmax in (64, 128, 256):
            series = coefficient_series(STEP, kmax, params)
            vals.append(synthesize(series, theta))
        assert abs(vals[2] - 1.0) < abs(vals[0] - 1.0)
        assert abs(vals[2] - 1.0) < 0.02

    def test_requires_hat(self):
        series = coefficient_series(STEP, 8, CHEB,
                                    normalization="unnormalized")
        with pytest.raises(ValueError):
            synthesize(series, 1.0)


class TestParseval:
    def test_constant_is_exact(self):
        params = JacobiParams(0.5, -0.25)
        rep = parseval_check(CosinePoly((1.0,)), params, 4)
        np.testing.assert_allclose(rep.partial_sum, rep.norm_sq, rtol=1e-10)

    def test_cosine_chebyshev(self):
        """One term: h_1 (pi/2)^2 = pi/2 equals the squared norm."""
        rep = parseval_check(CosinePoly((0.0, 1.0)), CHEB, 3)
        np.testing.assert_allclose(rep.partial_sum, math.pi / 2.0, rtol=1e-10)
        np.testing.assert_allclose(rep.norm_sq, math.pi / 2.0, rtol=1e-10)

    def test_bessel_gap_shrinks(self):
        params = JacobiParams(0.0, 0.0)
        f = StepFunction((1.0, 2.0), (0.0, 1.0, 0.0))
        rep_small = parseval_check(f, params, 256)
        rep_large = parseval_check(f, params, 1024)
        assert rep_small.gap > -1e-10
        assert rep_small.rel_gap < 1e-2
        assert rep_large.gap < rep_small.gap


class TestDecayFit:
    def test_exact_power_law(self):
        values = (np.arange(513) + 1.0) ** -1.5
        series = CoefficientSeries(JacobiParams(0.0, 0.0), 512, values)
        rep = decay_fit(series)
        np.testing.assert_allclose(rep.slope, -1.5, atol=1e-8)
        assert rep.r_squared > 1.0 - 1e-12

    def test_skips_zeros(self):
        values = (np.arange(257) + 1.0) ** -1.0
        values[::2] = 0.0
        series = CoefficientSeries(JacobiParams(0.0, 0.0), 256, values)
        rep = decay_fit(series, (16, 256))
        assert rep.skipped > 0
        np.testing.assert_allclose(rep.slope, -1.0, atol=1e-8)

    def test_insufficient_data(self):
        values = np.zeros(65)
        values[:3] = 1.0
        series = CoefficientSeries(JacobiParams(0.0, 0.0), 64, values)
        with pytest.raises(ValueError):
            decay_fit(series, (8, 64))

    def test_window_validation(self):
        with pytest.raises(ValueError):
            DecayReport((100, 150), -1.0, 0.0, 1.0, 0.0)

    def test_decade_max(self):
        values = np.arange(33, dtype=float)
        assert decade_max(values, 16, 32) == 32.0
        assert decade_max(values, 0, 4) == 4.0


class TestCounterexample:
    def test_slope_matches_prediction(self):
        rep = counterexample_slope(JacobiParams(0.0, -0.5), -0.3, kmax=512)
        np.testing.assert_allclose(rep.predicted_slope, -0.9, atol=1e-12)
        assert abs(rep.fit.slope - rep.predicted_slope) < 0.08
        assert not rep.divergence_regime

    def test_rejects_integer_rho(self):
        with pytest.raises(ValueError):
            counterexample_slope(JacobiParams(0.0, 0.0), 2.0)

    def test_rejects_small_kmax(self):
        with pytest.raises(ValueError):
            counterexample_slope(JacobiParams(0.0, 0.0), -0.3, kmax=128)

    def test_nonintegrable_power(self):
        with pytest.raises(ValueError):
            counterexample_slope(JacobiParams(0.0, -0.5), -0.6, kmax=512)


def test_package_does_not_import_scipy_optimize():
    """Sups and sign-change cuts need no scipy.optimize; a fresh interpreter
    shows whether any module of the package pulls it in."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(series_module.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, fourierjacobi; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "False"


def critical_set_sup(k: int, params: JacobiParams, region: str) -> float:
    """Max of |R_k| over the region ends and every zero of R_k': the nodes of
    the (k-1)-point Gauss-Jacobi rule at (alpha + 1, beta + 1) (DLMF 18.9.15)."""
    x_hi = 1.0 if region == "full" else 0.0
    x = np.array([-1.0, x_hi])
    if k >= 2:
        nodes = gauss_jacobi_rule(k - 1, params.alpha + 1.0, params.beta + 1.0).nodes
        x = np.concatenate((x, nodes[nodes < x_hi]))
    return float(np.max(np.abs(jacobi_r(k, params, x))))


# Right-region sups at alpha + beta = -1, 40-digit mpmath.
SUM_MINUS_ONE_SUPS = {
    (-0.3, -0.7, 5): "0.4917819579162971584088614741841524106765",
    (-0.3, -0.7, 181): "0.2583913822827141384427783054572347606131",
    (-0.3, -0.7, 1024): "0.1830760911602908392992240265075546136816",
    (-0.25, -0.75, 5): "0.4185701024987818240526983841715529578583",
    (-0.25, -0.75, 181): "0.1879799339596469647713664142136370592842",
    (-0.25, -0.75, 1024): "0.1222059174363568577644925131150364719815",
}


class TestSupNorm:
    def test_region_s_attains_one(self):
        """Inside the bounded region the sup is 1, attained at theta = 0."""
        for a, b in [(-0.5, -0.5), (0.5, -0.25), (2.0, 1.0)]:
            got = sup_norm_r(12, JacobiParams(a, b))
            np.testing.assert_allclose(got, 1.0, rtol=1e-12)

    def test_growth_below_half(self):
        """Outside the region the sup exceeds 1 and grows with k."""
        params = JacobiParams(-0.75, -0.75)
        s64 = sup_norm_r(64, params)
        s256 = sup_norm_r(256, params)
        assert 1.0 < s64 < s256

    def test_right_region_smaller(self):
        params = JacobiParams(1.0, 0.0)
        assert sup_norm_r(32, params, region="right") \
            <= sup_norm_r(32, params) + 1e-15

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            sup_norm_r(-1, CHEB)

    def test_degree_cap_checked_before_building(self, monkeypatch):
        """Degrees above 65535 raise before any Jacobi matrix is built; 65535
        gets past the check.  _jacobi_coeffs, the O(k) step that precedes the
        bisection, is replaced, so a broken cap fails here instead of doing
        the work.  At (-0.75, -0.75) both regions need an interior zero."""
        class Built(Exception):
            pass

        def no_matrix(*args, **kwargs):
            raise Built
        monkeypatch.setattr(series_module, "_jacobi_coeffs", no_matrix)
        params = JacobiParams(-0.75, -0.75)
        for region in ("full", "right"):
            for k in (65536, 10**9):
                with pytest.raises(ValueError, match="degree"):
                    sup_norm_r(k, params, region)
            with pytest.raises(Built):
                sup_norm_r(65535, params, region)

    @pytest.mark.parametrize("a, b, k, want", [
        (-0.75, -0.75, 128, 5.782823090064851),
        (-0.8, -0.8, 128, 9.012951913280409),
        (-0.9, -0.95, 181, 31.975033792496728),
        (-0.75, -0.75, 1024, 9.729648135491529),
    ])
    def test_near_tie_against_mpmath(self, a, b, k, want):
        """Two interior maxima nearly tie here.  References: 40-digit mpmath,
        Newton on R_k' from every critical point within 1e-6 of the max."""
        np.testing.assert_allclose(sup_norm_r(k, JacobiParams(a, b)), want,
                                   rtol=1e-11)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-0.95, 2.0, exclude_min=True),
           st.floats(-0.95, 2.0, exclude_min=True),
           st.integers(0, 200), st.sampled_from(["full", "right"]))
    def test_not_below_dense_grid(self, a, b, k, region):
        params = JacobiParams(a, b)
        t_lo, x_hi = (0.0, 1.0) if region == "full" else (math.pi / 2.0, 0.0)
        # cos(pi/2) rounds to 6e-17, just outside the right region
        x = np.minimum(np.cos(np.linspace(t_lo, math.pi, 64 * (k + 1) + 1)), x_hi)
        dense = float(np.max(np.abs(jacobi_r(k, params, x))))
        assert sup_norm_r(k, params, region) >= dense - 1e-13 * max(1.0, dense)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-1.0, 3.0, exclude_min=True, exclude_max=True),
           st.floats(-1.0, 3.0, exclude_min=True, exclude_max=True),
           st.integers(0, 2048), st.sampled_from(["full", "right"]))
    def test_matches_rule_critical_set(self, a, b, k, region):
        """The Sonin candidates hold the max over every critical point.
        Both sides evaluate R_k by the same recurrence, whose rounding next
        to x = +-1 grows like k^2 eps; the oracle can take its max at such a
        point that the candidates rightly skip (8e-11 above 40-digit mpmath at
        (-0.5000001, -0.5), k = 2048), so the bound is k^2 eps of scale."""
        assume(a + b > -2.0 + 1e-9)  # within rounding of -2 the Jacobi step raises
        params = JacobiParams(a, b)
        want = critical_set_sup(k, params, region)
        tol = max(1, k * k) * np.finfo(float).eps * max(1.0, want)
        assert abs(sup_norm_r(k, params, region) - want) <= tol

    @pytest.mark.parametrize("a, b", [(-0.3, -0.7), (-0.25, -0.75)])
    @pytest.mark.parametrize("k", [5, 181, 1024])
    def test_exponent_sum_minus_one_against_mpmath(self, a, b, k):
        """alpha + beta + 1 = 0: s(x) = alpha - beta > 0, so the critical
        values rise toward the right region's end x = 0 and the zero just
        below it holds the max.  References: 40-digit mpmath, the max of
        |R_k| over the ends and every zero of R_k' refined by Newton.  The
        log-gamma binomial that normalizes R_k is up to 7.6e-13 off here."""
        want = SUM_MINUS_ONE_SUPS[a, b, k]
        np.testing.assert_allclose(sup_norm_r(k, JacobiParams(a, b), "right"),
                                   float(want), rtol=1e-12)

    def test_chebyshev_is_exactly_one(self):
        """At (-1/2, -1/2) |R_k(cos theta)| = |cos k theta|: the sup is 1 at
        both ends, and no interior candidate is taken."""
        assert all(sup_norm_r(k, CHEB) == 1.0 for k in range(4097))

    def test_slope_report_window(self):
        ks = (16, 24, 32, 48, 64, 96, 128, 192)
        rep = sup_norm_slope(JacobiParams(0.5, -0.25), ks=ks, region="right")
        assert rep.window == (16, 192)
        assert rep.slope < 0.0


class TestGridSampledSeries:
    def test_coefficients_converge(self):
        """Piecewise-linear data goes through the piecewise machinery."""
        f = GridSampled((0.6, 1.2, 1.8), (0.0, 1.0, 0.0))
        params = JacobiParams(0.25, 0.0)
        from fourierjacobi import jacobi_r
        for k in (0, 3):
            def integrand(theta):
                return (f(theta) * jacobi_r(k, params, math.cos(theta))
                        * theta_weight(theta, 0.25, 0.0))
            ref, _ = quad(integrand, 0.0, math.pi, limit=300,
                          points=[0.6, 1.2, 1.8])
            np.testing.assert_allclose(coefficient(f, k, params), ref,
                                       rtol=1e-8, atol=1e-12)

    def test_end_next_to_zero(self):
        """The constant end [0, 1e-9] is empty in x; it is summed in closed
        form, and the interior piece next to it reaches x = 1."""
        f = GridSampled((1e-9, 1.0), (1.0, 0.0))
        params = JacobiParams(0.5, -0.25)
        series = coefficient_series(f, 64, params)
        np.testing.assert_allclose(norm_l(f, params), series.values[0], rtol=1e-12)
        assert 0.0 <= parseval_check(f, params, 64).rel_gap < 1e-4

    @pytest.mark.parametrize("a,b", [(0.5, -0.25), (-0.5, -0.5), (2.0, 1.0)])
    def test_constant_grid_is_the_weight_mass(self, a, b):
        f = GridSampled((1e-9, 2.0), (1.0, 1.0))
        params = JacobiParams(a, b)
        mass = sp.beta(a + 1.0, b + 1.0)
        values = coefficient_series(f, 256, params).values
        scale = max(1.0, mass)
        assert abs(values[0] - mass) <= 1e-10 * scale
        assert np.max(np.abs(values[1:])) <= 1e-10 * scale
        assert abs(parseval_check(f, params, 64).rel_gap) <= 1e-10
        assert abs(norm_l(f, params) - mass) <= 1e-10 * scale

    def test_requests_legendre_rules_only(self, monkeypatch):
        """Only the linear interior pieces go through quadrature."""
        exponents = set()
        rule = series_module.mapped_jacobi_rule

        def recording(n, a, b, lo, hi):
            exponents.add((a, b))
            return rule(n, a, b, lo, hi)

        monkeypatch.setattr(series_module, "mapped_jacobi_rule", recording)
        f = GridSampled((0.3, 1.2, 2.9), (2.0, -1.0, 0.5))
        coefficient_series(f, 128, JacobiParams(0.5, -0.25))
        assert exponents == {(0.0, 0.0)}


class TestTableFree:
    """Coefficient quadrature sums R_k degree by degree, so it builds no
    (kmax+1) x n table of R_k."""

    @pytest.fixture
    def no_tables(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an R_k table was built")

        monkeypatch.setattr(series_module, "jacobi_r_table", refuse)
        monkeypatch.setattr(laguerre_module, "laguerre_r_table", refuse)

    @pytest.mark.parametrize("f", [CosinePoly((0.5, 1.0, 0.25)),
                                   GridSampled((0.6, 1.2, 1.8), (0.0, 1.0, 0.5)),
                                   np.cos])
    def test_series_without_tables(self, f, no_tables):
        coefficient_series(f, 128, JacobiParams(0.5, -0.25))

    @pytest.mark.parametrize("f", [laguerre_module.LaguerreStep((1.0, 2.0), (1.0, -0.5)),
                                   laguerre_module.LaguerreExpDamped((1.0, 2.0))])
    def test_laguerre_series_without_tables(self, f, no_tables):
        laguerre_module.laguerre_coefficient_series(f, 64, 0.5)

    def test_memory_is_linear_in_the_rule_size(self):
        """kmax 4096 compares rules of 2080 and 4160 nodes; a table of R_k
        at the larger one alone would take 130 MiB."""
        tracemalloc.start()
        try:
            coefficient_series(CosinePoly((0.5, 1.0, 0.25)), 4096, JacobiParams(0.5, -0.25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
