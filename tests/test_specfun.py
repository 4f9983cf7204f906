"""Recurrence evaluation, the 2F1 series, and the norm constants.

Reference values come from three independent sources: hand-frozen numbers
computed from closed forms, scipy.special evaluations, and exact rational
cases (Chebyshev / Legendre points).
"""

import math
from functools import partial

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings, strategies as st

from fourierjacobi import (
    AccuracyError,
    JacobiParams,
    jacobi_p,
    jacobi_p_one,
    jacobi_r,
    jacobi_r_table,
    laguerre_l,
    laguerre_l_zero,
    laguerre_r,
    laguerre_r_table,
    hyp2f1,
    h_normalizer,
    h_normalizer_table,
)
from fourierjacobi import specfun
from fourierjacobi.series import sup_norm_slope
from fourierjacobi.specfun import _hyp2f1_array


class TestJacobiParams:
    def test_rejects_nonintegrable_weight(self):
        with pytest.raises(ValueError):
            JacobiParams(-1.0, 0.0)
        with pytest.raises(ValueError):
            JacobiParams(0.0, -1.5)

    @pytest.mark.parametrize("a,b,inside", [
        (-0.5, -0.5, True),
        (0.5, -0.25, True),
        (2.0, 1.0, True),
        (-0.75, -0.75, False),   # alpha < -1/2
        (0.0, 0.5, False),       # beta > alpha
    ])
    def test_region_membership(self, a, b, inside):
        assert JacobiParams(a, b).in_s is inside


class TestJacobiRecurrence:
    def test_frozen_value(self):
        """Spot value frozen from an independent recurrence run."""
        got = jacobi_r(10, JacobiParams(0.5, 0.25), -0.4)
        np.testing.assert_allclose(got, 0.03572489972017004, rtol=2e-13)

    def test_against_scipy(self):
        """eval_jacobi is an independent implementation of P_k."""
        rng = np.random.default_rng(42)
        for _ in range(60):
            k = int(rng.integers(0, 40))
            a = float(rng.uniform(-0.9, 3.0))
            b = float(rng.uniform(-0.9, 3.0))
            x = float(rng.uniform(-1.0, 1.0))
            got = jacobi_p(k, JacobiParams(a, b), x)
            np.testing.assert_allclose(got, sp.eval_jacobi(k, a, b, x),
                                       rtol=1e-10, atol=1e-12)

    def test_value_at_one_is_binomial(self):
        for k in (0, 1, 5, 30, 200):
            want = sp.binom(k + 1.25, k)
            np.testing.assert_allclose(jacobi_p_one(k, JacobiParams(1.25, 0.5)),
                                       want, rtol=1e-12)

    def test_normalized_is_exactly_one_at_one(self):
        """R_k(1) = 1 must hold exactly, not just to rounding."""
        params = JacobiParams(0.7, -0.3)
        for k in (0, 1, 7, 64):
            assert jacobi_r(k, params, 1.0) == 1.0
        tab = jacobi_r_table(20, params, np.array([-0.5, 1.0, 0.25]))
        assert np.all(tab[:, 1] == 1.0)

    def test_chebyshev_case(self):
        """At (-1/2,-1/2) the normalized polynomial is cos(k arccos x)."""
        params = JacobiParams(-0.5, -0.5)
        got = jacobi_r(3, params, math.cos(math.pi / 3))
        np.testing.assert_allclose(got, -1.0, atol=5e-15)
        thetas = np.linspace(0.1, 3.0, 17)
        for k in (1, 4, 9):
            np.testing.assert_allclose(jacobi_r(k, params, np.cos(thetas)),
                                       np.cos(k * thetas), atol=1e-12)

    def test_legendre_point(self):
        np.testing.assert_allclose(jacobi_p(2, JacobiParams(0.0, 0.0), 0.5),
                                   -0.125, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 25),
           st.floats(-0.9, 2.5), st.floats(-0.9, 2.5),
           st.floats(-1.0, 1.0))
    def test_reflection_symmetry(self, k, a, b, x):
        """P_k^(a,b)(-x) = (-1)^k P_k^(b,a)(x)."""
        lhs = jacobi_p(k, JacobiParams(a, b), -x)
        rhs = (-1.0) ** k * jacobi_p(k, JacobiParams(b, a), x)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-0.5, 2.0), st.floats(0.0, 1.0), st.integers(0, 60),
           st.floats(-1.0, 1.0))
    def test_bounded_in_region(self, a, frac, k, x):
        """|R_k| <= 1 whenever alpha >= beta > -1 and alpha >= -1/2."""
        # beta in (-1, alpha]; min() keeps beta <= alpha when the product rounds up
        b = min(a, -1.0 + (a + 1.0) * max(frac, 1e-3))
        params = JacobiParams(a, b)
        assert params.in_s
        assert abs(jacobi_r(k, params, x)) <= 1.0 + 1e-12

    def test_table_matches_scalar(self):
        params = JacobiParams(1.5, -0.25)
        xs = np.linspace(-1.0, 1.0, 9)
        tab = jacobi_r_table(12, params, xs)
        assert tab.shape == (13, 9)
        for k in (0, 3, 12):
            np.testing.assert_allclose(tab[k], jacobi_r(k, params, xs),
                                       rtol=1e-13, atol=1e-14)

    def test_domain_errors(self):
        params = JacobiParams(0.0, 0.0)
        with pytest.raises(ValueError):
            jacobi_p(-1, params, 0.0)
        with pytest.raises(ValueError):
            jacobi_p(3, params, 1.001)


class TestLaguerre:
    def test_frozen_value(self):
        got = laguerre_l(8, 2.0, 3.5)
        np.testing.assert_allclose(got, 1.0124938964843742, rtol=1e-13)
        np.testing.assert_allclose(laguerre_l_zero(8, 2.0), 45.0, rtol=1e-13)
        np.testing.assert_allclose(laguerre_r(8, 2.0, 3.5),
                                   0.022499864366319424, rtol=1e-12)

    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(0, 35))
            alpha = float(rng.uniform(-0.5, 4.0))
            x = float(rng.uniform(0.0, 30.0))
            np.testing.assert_allclose(laguerre_l(k, alpha, x),
                                       sp.eval_genlaguerre(k, alpha, x),
                                       rtol=1e-9, atol=1e-11)

    def test_zero_argument_normalization(self):
        assert laguerre_r(0, 1.5, 0.0) == 1.0
        assert laguerre_r(11, 0.0, 0.0) == 1.0
        np.testing.assert_allclose(laguerre_l(1, 0.0, 1.0), 0.0, atol=1e-15)

    def test_table_matches_scalar(self):
        xs = np.array([0.0, 0.5, 2.0, 11.0])
        tab = laguerre_r_table(9, 0.5, xs)
        assert tab.shape == (10, 4)
        for k in (0, 4, 9):
            np.testing.assert_allclose(tab[k], laguerre_r(k, 0.5, xs),
                                       rtol=1e-12, atol=1e-13)


class TestSingleRecurrence:
    """Each family has one recurrence behind its scalar (Python floats),
    array and table (in place) paths, so all three give the same bits.

    The SciPy oracles are independent recurrences.  Both lose digits as an
    exponent approaches -1 (at -0.999 they differ by 5e-6 of scale), so the
    stated tolerance is 1e-10 of max(1, |R_k|) for Jacobi and 1e-9 for
    Laguerre on [0, 50], divided by (1 + min(exponents, 0))^2.  Exponents
    stop at -0.999: within rounding of -1 a Jacobi step constant vanishes.
    """

    EXPONENT = st.floats(-0.999, 3.0)

    @staticmethod
    def bits(values):
        return np.asarray(values, dtype=float).tobytes()

    @staticmethod
    def former_jacobi(k, a, b, x):
        """The loop the shared recurrence replaced, kept as the bitwise reference."""
        p, pm1 = (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0, np.ones_like(x)
        for m in range(2, k + 1):
            s = 2.0 * m + a + b
            c1 = 2.0 * m * (m + a + b) * (s - 2.0)
            c2 = (s - 1.0) * (a * a - b * b)
            c3 = (s - 1.0) * s * (s - 2.0)
            c4 = 2.0 * (m + a - 1.0) * (m + b - 1.0) * s
            p, pm1 = ((c2 + c3 * x) * p - c4 * pm1) / c1, p
        return p if k else pm1

    @staticmethod
    def former_laguerre(k, alpha, x):
        p, pm1 = 1.0 + alpha - x, np.ones_like(x)
        for m in range(2, k + 1):
            p, pm1 = ((2.0 * m - 1.0 + alpha - x) * p - (m - 1.0 + alpha) * pm1) / m, p
        return p if k else pm1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300), EXPONENT, EXPONENT,
           st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6))
    def test_jacobi_paths_bit_identical(self, k, a, b, xs):
        params = JacobiParams(a, b)
        arr = np.array(xs)
        rows = np.empty((k + 1, arr.size))
        row = specfun._jacobi(k, params, arr, rows)
        assert np.shares_memory(row, rows[k])
        scalar = [jacobi_p(k, params, x) for x in xs]
        assert all(type(v) is float for v in scalar)
        assert self.bits(scalar) == self.bits(jacobi_p(k, params, arr))
        # x = -1 takes the closed form instead (TestMinusOneEndpoint).
        rec = arr != -1.0
        assert self.bits(np.array(scalar)[rec]) == self.bits(row[rec]) \
            == self.bits(self.former_jacobi(k, a, b, arr)[rec])
        r_scalar = [jacobi_r(k, params, x) for x in xs]
        assert self.bits(r_scalar) == self.bits(jacobi_r(k, params, arr))
        # Table rows divide by a gammaln binomial, the others by lgamma's.
        np.testing.assert_allclose(jacobi_r_table(k, params, arr)[k], r_scalar,
                                   rtol=1e-12, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300), EXPONENT,
           st.lists(st.floats(0.0, 50.0), min_size=1, max_size=6))
    def test_laguerre_paths_bit_identical(self, k, alpha, xs):
        arr = np.array(xs)
        rows = np.empty((k + 1, arr.size))
        row = specfun._laguerre(k, alpha, arr, rows)
        assert np.shares_memory(row, rows[k])
        scalar = [laguerre_l(k, alpha, x) for x in xs]
        assert all(type(v) is float for v in scalar)
        assert self.bits(scalar) == self.bits(laguerre_l(k, alpha, arr)) == self.bits(row)
        assert self.bits(scalar) == self.bits(self.former_laguerre(k, alpha, arr))
        r_scalar = [laguerre_r(k, alpha, x) for x in xs]
        assert self.bits(r_scalar) == self.bits(laguerre_r(k, alpha, arr))
        np.testing.assert_allclose(laguerre_r_table(k, alpha, arr)[k], r_scalar,
                                   rtol=1e-12, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300), EXPONENT, EXPONENT,
           st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6))
    def test_jacobi_against_scipy(self, k, a, b, xs):
        arr = np.array(xs)
        ref = sp.eval_jacobi(k, a, b, arr) / sp.binom(k + a, k)
        got = jacobi_r(k, JacobiParams(a, b), arr)
        tol = 1e-10 / (1.0 + min(a, b, 0.0)) ** 2
        assert np.all(np.abs(got - ref) <= tol * np.maximum(1.0, np.abs(ref)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300), EXPONENT,
           st.lists(st.floats(0.0, 50.0), min_size=1, max_size=6))
    def test_laguerre_against_scipy(self, k, alpha, xs):
        arr = np.array(xs)
        ref = sp.eval_genlaguerre(k, alpha, arr) / sp.binom(k + alpha, k)
        got = laguerre_r(k, alpha, arr)
        tol = 1e-9 / (1.0 + min(alpha, 0.0)) ** 2
        assert np.all(np.abs(got - ref) <= tol * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("a, b, region, slope", [
        (-0.75, -0.75, "full", "0.25153376891560436"),
        (0.5, -0.25, "right", "-0.7513680551172258"),
        (1.0, 0.0, "right", "-0.9999999999999991"),
    ])
    def test_sup_norm_slope_frozen(self, a, b, region, slope):
        """The selftest growth slopes, frozen before the recurrence rewrite;
        (-0.75, -0.75) refrozen when sups moved to the exact critical set, and
        the right-region pair when R_k(-1), their sup at every degree, became
        closed form (40-digit mpmath fits: -0.75136805511722694, -1)."""
        assert repr(sup_norm_slope(JacobiParams(a, b), region=region).slope) == slope


class TestNonFiniteArguments:
    """NaN and infinities raise instead of returning NaN rows."""

    P = JacobiParams(0.5, -0.25)
    ENTRY_POINTS = {
        "jacobi_p": partial(jacobi_p, 3, P),
        "jacobi_r": partial(jacobi_r, 3, P),
        "jacobi_r_table": partial(jacobi_r_table, 3, P),
        "laguerre_l": partial(laguerre_l, 3, 0.5),
        "laguerre_r": partial(laguerre_r, 3, 0.5),
        "laguerre_r_table": partial(laguerre_r_table, 3, 0.5),
    }

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejected(self, name, bad):
        call = self.ENTRY_POINTS[name]
        with pytest.raises(ValueError):
            call(bad)
        with pytest.raises(ValueError):
            call(np.array([0.5, bad, 0.25]))


class TestMinusOneEndpoint:
    """R_k(-1) and P_k(-1) are closed form, on every Jacobi path."""

    @pytest.mark.parametrize("a, b, k, r_want, p_want", [
        (0.1, 0.6, 1024, 34.085433025362875, 71.66076815663894),
        (-0.6, 0.3, 1024, 1265.8319128992543, 8.915637266804755),
        (0.5, -0.25, 1024, 0.003993350483314777, 0.14424522907963397),
        (0.1, 0.6, 181, -14.358051753328457, -25.389521736142704),
        (-0.99999999999876, -0.99999999998886, 24, 8.98379443134654, 4.641657428980101e-13),
    ])
    def test_against_mpmath(self, a, b, k, r_want, p_want):
        """References: (-1)^k binom(k + b, k) / binom(k + a, k) and
        (-1)^k binom(k + b, k) in 40-digit mpmath.  The forward recurrence was
        4.4e-11 relative off at (0.1, 0.6) and returned 1.4e9 for the last
        case, where P_1 cancels at x = -1."""
        params = JacobiParams(a, b)
        r = jacobi_r(k, params, -1.0)
        assert type(r) is float
        assert r == jacobi_r(k, params, np.array([0.5, -1.0]))[1]
        assert r == jacobi_r_table(k, params, np.array([-1.0, 0.5]))[k, 0]
        assert abs(r - r_want) <= 2e-14 * abs(r_want)
        p = jacobi_p(k, params, -1.0)
        assert type(p) is float
        assert p == jacobi_p(k, params, np.array([[-1.0], [0.5]]))[0, 0]
        assert abs(p - p_want) <= 1e-13 * abs(p_want)

    def test_table_column(self):
        """Every row of a table takes its own degree's endpoint value."""
        params = JacobiParams(0.3, -0.7)
        tab = jacobi_r_table(40, params, np.array([0.2, -1.0]))
        want = [sp.binom(k - 0.7, k) / sp.binom(k + 0.3, k) * (-1) ** k for k in range(41)]
        np.testing.assert_allclose(tab[:, 1], want, rtol=1e-13)
        np.testing.assert_array_equal(tab[:, 0], jacobi_r_table(40, params, np.array([0.2]))[:, 0])


class TestExponentSumNearMinusTwo:
    """With alpha + beta within rounding of -2 the Jacobi step constant is 0."""

    P = JacobiParams(-0.9999999999999998, -0.9999999999999998)

    def test_scalar(self):
        for fn in (jacobi_p, jacobi_r):
            with pytest.raises(ValueError, match="rounding of -2"):
                fn(2, self.P, 0.0)

    def test_array(self):
        for fn in (jacobi_p, jacobi_r):
            with pytest.raises(ValueError, match="rounding of -2"):
                fn(2, self.P, np.array([0.0, 0.5]))

    def test_table(self):
        with pytest.raises(ValueError, match="rounding of -2"):
            jacobi_r_table(3, self.P, np.array([0.0, 0.5]))

    def test_low_degrees_still_evaluate(self):
        """Degrees 0 and 1 take no step and stay finite."""
        np.testing.assert_array_equal(
            np.isfinite(jacobi_r_table(1, self.P, np.array([-1.0, 0.0, 1.0]))), True)


class TestHyp2F1:
    def test_log_case(self):
        """2F1(1,1;2;z) = -log(1-z)/z, checked at the frozen point."""
        np.testing.assert_allclose(hyp2f1(1.0, 1.0, 2.0, 0.5),
                                   2.0 * math.log(2.0), rtol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.01, 0.9))
    def test_log_identity(self, z):
        np.testing.assert_allclose(hyp2f1(1.0, 1.0, 2.0, z),
                                   -math.log1p(-z) / z, rtol=1e-12)

    def test_against_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            a = float(rng.uniform(-2.0, 3.0))
            b = float(rng.uniform(-2.0, 3.0))
            c = float(rng.uniform(0.3, 4.0))
            z = float(rng.uniform(0.0, 0.95))
            np.testing.assert_allclose(hyp2f1(a, b, c, z),
                                       sp.hyp2f1(a, b, c, z),
                                       rtol=1e-9, atol=1e-12)

    def test_unit_argument_gauss_sum(self):
        """At z=1 with c-a-b > 0 the value is the Gauss gamma ratio."""
        a, b, c = 0.3, 0.4, 1.5
        want = (sp.gamma(c) * sp.gamma(c - a - b)
                / (sp.gamma(c - a) * sp.gamma(c - b)))
        np.testing.assert_allclose(hyp2f1(a, b, c, 1.0), want, rtol=1e-12)
        np.testing.assert_allclose(hyp2f1(a, b, c, 1.0),
                                   sp.hyp2f1(a, b, c, 1.0), rtol=1e-12)

    def test_unit_argument_continuous_with_series(self):
        """The closed form at z=1 continues where the series leaves off."""
        a, b, c = 0.3, 0.4, 2.5   # comfortable tail: c-a-b = 1.8
        near = hyp2f1(a, b, c, 1.0 - 1e-3)
        np.testing.assert_allclose(hyp2f1(a, b, c, 1.0), near, rtol=1e-3)

    # 40-digit mpmath values at z = 0.3, 0.9, 0.985 and 1 - 1e-9 for the
    # parameter families the integral pathways call, with the parameters
    # formed as the callers form them.  c - a - b is 0 for the first and
    # fourth family and 1 for the last (log cases); the series would need
    # more than 1e5 terms at 1 - 1e-9.
    FAMILIES = {
        "mehler singular (0.5, 0)": (
            ((0.5 + 0.0 + 1.0) / 2.0, (0.5 + 0.0) / 2.0, 0.5 + 0.5),
            (1.067958034329354306114, 1.468223828302126914342,
             1.884548898220749567889, 5.600451170775703039303)),
        "mehler singular (0.5, 0.75)": (
            ((0.5 + 0.75 + 1.0) / 2.0, (0.5 + 0.75) / 2.0, 0.5 + 0.5),
            (1.286365546044286639146, 5.244290737273605609582,
             21.33839383432243011668, 5100882.309865050382781)),
        "mehler limit -0.9": (
            (-0.9 / 2.0 + 1.25, -0.9 / 2.0 + 0.75, 2.0),
            (1.041051540746421427874, 1.196940666791188068432,
             1.257334206417868079917, 1.280893665797323701646)),
        "transform singular (0.5, 0)": (
            (0.5 + 0.0, 0.5 - 0.0, 0.5 + 0.5),
            (1.091095910362781562262, 1.641264414342370799801,
             2.225332483983119183912, 7.478962801238460263283)),
        "transform limit 0.3": (
            (0.5 + 0.3, 0.5 - 0.3, 2.0),
            (1.027082751179756948941, 1.123993353034637033571,
             1.157805185559354132664, 1.169361600886656605968)),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_pathway_families_against_mpmath(self, family):
        (a, b, c), want = self.FAMILIES[family]
        z = np.array([0.3, 0.9, 0.985, 1.0 - 1e-9])
        np.testing.assert_allclose(_hyp2f1_array(a, b, c, z), want, rtol=2e-14)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-2.0, 3.0), st.floats(-2.0, 3.0), st.floats(0.3, 4.0),
           st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=16))
    def test_array_form_matches_scalar_bit_for_bit(self, a, b, c, zs):
        got = _hyp2f1_array(a, b, c, np.array(zs))
        want = [hyp2f1(a, b, c, z) for z in zs]
        np.testing.assert_array_equal(got, want)

    def test_array_form_refuses_arguments_outside_unit_interval(self):
        for z in ([0.5, -1e-300], [0.5, 1.0], [math.nan]):
            with pytest.raises(AccuracyError, match=r"left \[0, 1\)"):
                _hyp2f1_array(0.7, 1.3, 1.2, np.array(z))

    def test_trivial_values(self):
        assert hyp2f1(0.7, 0.0, 1.2, 0.53) == 1.0
        assert hyp2f1(0.7, 1.3, 1.2, 0.0) == 1.0

    def test_array_form_accepts_empty_input(self):
        assert _hyp2f1_array(0.7, 1.3, 1.2, np.array([])).shape == (0,)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hyp2f1(1.0, 1.0, 0.0, 0.5)       # c a nonpositive integer
        with pytest.raises(ValueError):
            hyp2f1(1.0, 1.0, 2.0, -0.5)      # argument outside [0, 1]
        with pytest.raises(ValueError):
            hyp2f1(1.0, 1.0, 2.0, 1.0)       # divergent at z = 1


class TestNormalizer:
    def test_chebyshev_values(self):
        """h_0 = 1/pi and h_k = 2/pi in the pure cosine case."""
        params = JacobiParams(-0.5, -0.5)
        np.testing.assert_allclose(h_normalizer(0, params), 1.0 / math.pi,
                                   rtol=1e-14)
        for k in (1, 2, 17):
            np.testing.assert_allclose(h_normalizer(k, params), 2.0 / math.pi,
                                       rtol=1e-14)

    def test_table_matches_scalar(self):
        for a, b in [(-0.5, -0.5), (0.0, 0.0), (1.3, -0.7)]:
            params = JacobiParams(a, b)
            tab = h_normalizer_table(25, params)
            want = [h_normalizer(k, params) for k in range(26)]
            np.testing.assert_allclose(tab, want, rtol=1e-13)

    def test_growth_order(self):
        """h_k is comparable to (k+1)^(2a+1) with bounded ratio."""
        params = JacobiParams(0.75, -0.25)
        ks = np.arange(1, 400)
        ratio = h_normalizer_table(399, params)[1:] / (ks + 1.0) ** 2.5
        assert 0.1 < ratio.min() and ratio.max() < 10.0

    def test_reciprocal_norm(self):
        """h_k times the weighted L2 norm of R_k is 1 (quadrature check)."""
        from fourierjacobi import gauss_jacobi_rule
        params = JacobiParams(0.5, -0.25)
        rule = gauss_jacobi_rule(40, 0.5, -0.25)
        for k in (0, 3, 10):
            rk = jacobi_r(k, params, rule.nodes)
            norm_sq = 2.0 ** (-0.5 + 0.25 - 1.0) * float(rule.weights @ rk ** 2)
            np.testing.assert_allclose(h_normalizer(k, params) * norm_sq, 1.0,
                                       rtol=1e-12)
