"""Laguerre expansions on the half line: coefficients, identity, bound."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from fourierjacobi import (
    HalfLineGrid,
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
from fourierjacobi import laguerre, quadrature

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

    def test_piece_next_to_a_singular_end(self):
        """The piece [1e-5, 2] sees x^(-0.9) just off its end, so a
        Gauss-Legendre rule on it did not settle by n = 4096; it is
        [0, 2] - [0, 1e-5] in its rule.  References: 30-digit mpmath, checked
        at 36 digits."""
        got = laguerre_coefficient_series(HalfLineGrid((1e-5, 2.0), (1.0, 1.0)), 64, -0.9)
        want = [6.297254945177868603909, -2.881910237518796678018, -3.612823271619474569825]
        assert np.max(np.abs(got[[0, 5, 64]] - want)) <= 1e-12 * np.max(np.abs(got))

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

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.5])
    def test_polynomial_is_exact(self, alpha):
        """A polynomial of degree 3 has hat(k) = 0 exactly past k = 3; below,
        its (4-point) Gauss-Laguerre values match adaptive quadrature."""
        f = LaguerreExpDamped((1.0, 2.0, -0.5, 0.25))
        got = laguerre_coefficient_series(f, 512, alpha)
        assert np.all(got[4:] == 0.0)
        for k in range(4):
            ref, _ = quad(lambda x: f(x) * laguerre_r(k, alpha, x) * x ** alpha * math.exp(-x),
                          0.0, math.inf, limit=200)
            np.testing.assert_allclose(got[k], ref, rtol=1e-9)
            assert laguerre_coefficient(f, k, alpha) == got[k]

    # 400-digit mpmath sums of p(x) x^a e^(-(1+r) x) L_k^a(x) / L_k^a(0) from the
    # monomial expansion of L_k^a, at k = 0, 1, kmax/2 and kmax; they agree to 60
    # digits with (-d/dr)^m of Gamma(a+1) r^k (1+r)^(-k-a-1) for each x^m.
    @pytest.mark.parametrize("coefficients, rate, alpha, kmax, want", [
        ((1.0, -2.0, 0.5), 0.5, 1.5, 256,
         (-0.1876003252558471709459668, -0.134000232325605122104262,
          5.888757713425273424163596e-58, 2.009736671307412580861895e-118)),
        ((0.5, 1.0, -0.25), 40.0, -0.5, 400,
         (0.1417502584410691060792624, 0.1381312770194030090985229,
          0.000770874992329138213578289, 0.000003663810411858679812978798)),
        ((2.0, 0.0, 1.0, -0.3), 0.05, 0.0, 300,
         (2.151572647199469408628978, 1.042687240104982542403556,
          3.028946196034555968263516e-189, 1.050799522585659273456447e-309)),
    ])
    def test_damped_polynomial_against_mpmath(self, coefficients, rate, alpha, kmax, want):
        """A damped polynomial's one Gauss-Laguerre rule is exact for every
        R_k p, so the series holds to rounding up to a high degree."""
        got = laguerre_coefficient_series(LaguerreExpDamped(coefficients, rate), kmax, alpha)
        scale = max(1.0, float(np.max(np.abs(got))))
        np.testing.assert_allclose(got[[0, 1, kmax // 2, kmax]], want, rtol=0.0,
                                   atol=1e-12 * scale)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            laguerre_coefficient(UNIT_STEP, -1, 0.0)
        with pytest.raises(ValueError):
            laguerre_coefficient(UNIT_STEP, 2, -1.0)

    def test_degree_is_an_integer_not_a_mask(self):
        """True and np.int64(3) are degrees 1 and 3; True used to index the
        coefficient array as a mask."""
        assert laguerre_coefficient(UNIT_STEP, True, 0.5) == laguerre_coefficient(UNIT_STEP, 1, 0.5)
        assert laguerre_coefficient(UNIT_STEP, np.int64(3), 0.5) \
            == laguerre_coefficient(UNIT_STEP, 3, 0.5)

    @pytest.mark.parametrize("f", [LaguerreStep((1.0,), (0.0,)), UNIT_STEP],
                             ids=["zero-step", "unit-step"])
    def test_fractional_degree_is_refused(self, f):
        """A zero step, which has no pieces, used to reach np.zeros(3.5) and
        raise numpy's TypeError; every spec now refuses the degree first."""
        with pytest.raises(ValueError, match=r"^degree must be a nonnegative integer, got 2\.5$"):
            laguerre_coefficient_series(f, 2.5, 0.5)


def quadrature_series(f, kmax, alpha):
    """The doubling-quadrature series of f, the pathway a step no longer takes."""
    return laguerre._converged_values(laguerre._pieces(f, 1.0), kmax, alpha)


class TestStepClosedForm:
    def test_thin_head_piece_against_mpmath(self):
        """A piece of width 1e-9 at 0 with alpha = -0.9 holds 1.26 of mass in
        x^(-0.9), which the doubling quadrature does not resolve (it raises
        AccuracyError).  30-digit mpmath, x = y^10 on both pieces."""
        got = laguerre_coefficient_series(LaguerreStep((1e-9, 2.0), (1.0, -1.0)), 64, -0.9)
        want = (-6.941678907196464712902681, 1.067363169892140226308523,
                1.525917381732334947707719, 2.970238748148669635060732)
        scale = max(1.0, float(np.max(np.abs(got))))
        np.testing.assert_allclose(got[[0, 1, 7, 64]], want, rtol=0.0, atol=1e-13 * scale)

    def test_edge_past_the_underflow(self):
        """e^(-800) = 0, so the edge at 800 counts as infinity: the 0.5 piece
        runs to infinity, as it does for the quadrature."""
        f = LaguerreStep((1.0, 800.0), (1.0, 0.5))
        got = laguerre_coefficient_series(f, 64, 0.5)
        assert np.all(np.isfinite(got))
        quad_vals = quadrature_series(f, 64, 0.5)
        scale = max(1.0, float(np.max(np.abs(got))))
        assert float(np.max(np.abs(got - quad_vals))) <= 1e-9 * scale

    @pytest.mark.parametrize("seed", range(6))
    def test_against_the_quadrature(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 6))
        f = LaguerreStep(tuple(np.sort(rng.uniform(0.05, 40.0, m))),
                         tuple(rng.normal(size=m)))
        alpha = 3.0 if seed == 0 else float(rng.uniform(-0.95, 3.0))
        got = laguerre_coefficient_series(f, 512, alpha)
        scale = max(1.0, float(np.max(np.abs(got))))
        assert float(np.max(np.abs(got - quadrature_series(f, 512, alpha)))) <= 1e-9 * scale

    def test_large_exponents(self):
        """Gamma(201) overflows, but the mass of [0, 1) against x^200 e^(-x)
        does not; and 300^151 overflows, but hat(0) of the step below,
        gamma(151, 1) + 2 Gamma(151, 1) - 2 Gamma(151, 300), does not (30-digit
        mpmath).  The quadrature refuses the second one."""
        f = LaguerreStep((1.0,), (1.0,))
        got = laguerre_coefficient_series(f, 8, 200.0)
        np.testing.assert_allclose(got, quadrature_series(f, 8, 200.0), rtol=1e-12)
        got = laguerre_coefficient_series(LaguerreStep((1.0, 300.0), (1.0, 2.0)), 8, 150.0)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got[0], 1.14267679128917091809503e+263, rtol=1e-13)

    def test_jump_near_the_largest_double(self):
        """40^201 e^(-40) / 201 = 2.6e302, so the jump sum overflowed to inf
        from k = 5 on; it is summed divided by a power of two.  References:
        the integrals of R_k x^200 e^(-x) over [0, 40] in 40-digit mpmath."""
        with np.errstate(all="raise"):
            got = laguerre_coefficient_series(LaguerreStep((40.0,), (1.0,)), 8, 200.0)
        with mp.workdps(40):
            want = [float(mp.quad(lambda x: mp.laguerre(k, 200, x) / mp.binomial(k + 200, k)
                                  * x ** 200 * mp.exp(-x), [0, 20, 40])) for k in range(9)]
        assert np.max(np.abs(got - want)) <= 1e-13 * got[0]

    def test_overflowing_edge_is_refused(self):
        """400^201 e^(-400) = e^804 overflows a double, and so does the mass
        of [0, 400) against x^200 e^(-x): the series names the edge and the
        exponent instead of a bare OverflowError from math.exp."""
        with pytest.raises(ValueError, match=r"edge 400\.0 for alpha = 200\.0"):
            laguerre_coefficient_series(LaguerreStep((400.0, 1000.0), (0.0, 1.0)), 4, 200.0)

    def test_requests_no_rule(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a Gauss rule was requested")

        monkeypatch.setattr(quadrature, "mapped_jacobi_rule", refuse)
        monkeypatch.setattr(laguerre, "gauss_laguerre_rule", refuse)
        laguerre_coefficient_series(LaguerreStep((0.5, 3.0, 900.0), (1.0, -2.0, 0.25)), 256, 0.5)


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

    def test_signed_sums_per_piece(self):
        """[1e-5, 1] and [1, 2] are split into pieces from 0, whose weights
        are partly negative: each piece's signed sum is taken before its
        magnitude (|u| node by node gave 12.198).  Reference: 30-digit
        mpmath."""
        got = laguerre_norm(HalfLineGrid((1e-5, 2.0), (1.0, -1.0)), -0.9)
        np.testing.assert_allclose(got, 5.87324296181062023503, rtol=1e-14, atol=0.0)

    def test_damped_norm(self):
        alpha = 0.5
        f = LaguerreExpDamped((1.0,), rate=1.0)
        def integrand(x):
            return x ** alpha * math.exp(-1.5 * x)
        ref, _ = quad(integrand, 0.0, 80.0, limit=300)
        np.testing.assert_allclose(laguerre_norm(f, alpha), ref, rtol=1e-9)

    def test_piece_past_the_coefficient_underflow(self):
        """e^(-x) underflows past x = 745.13 but the norm weight e^(-x/2) does
        not: the piece [745.2, 1e6) keeps its mass, 2^1.5 Gamma(1.5, 372.6)
        (30-digit mpmath gammainc)."""
        got = laguerre_norm(LaguerreStep((745.2, 1e6), (0.0, 1.0)), 0.5)
        np.testing.assert_allclose(got, 8.310441222909508e-161, rtol=1e-12)

    def test_step_with_a_thin_head_against_mpmath(self):
        """sum_i |v_i| 2^(a+1) (gamma(a+1, e_(i+1)/2) - gamma(a+1, e_i/2)) in
        30-digit mpmath.  The doubling quadrature did not settle on the thin
        head piece at a = -0.9."""
        f = LaguerreStep((1e-9, 2.0, 50.0), (3.0, -1.0, 0.5))
        np.testing.assert_allclose(laguerre_norm(f, -0.9), 12.591170790480829557, rtol=1e-14)

    def test_overflowing_edge_is_refused(self):
        """The norm's mass at the edge 400 carries 400^201 e^(-200) = e^1004,
        which overflows, so the edge is refused by name, as for the
        coefficients."""
        with pytest.raises(ValueError, match=r"edge 400\.0 for alpha = 200\.0"):
            laguerre_norm(LaguerreStep((400.0, 1000.0), (0.0, 1.0)), 200.0)

    # 30-digit mpmath: 2^(a+1) gammainc(a+1, 0, 1/2).
    @pytest.mark.parametrize("alpha, want", [(1022.0, 5.931837358737590569e-4),
                                             (1023.0, 5.9260417244418321173e-4),
                                             (1100.0, 5.5114076286729834167e-4)])
    def test_step_norm_past_the_double_range_of_two_to_alpha(self, alpha, want):
        """2^(a+1) overflows from a = 1023 on and 0.5^(a+1) underflows, but
        the norm of the unit step, e^(-1/2) / (a + 1) to first order, is
        finite."""
        np.testing.assert_allclose(laguerre_norm(UNIT_STEP, alpha), want, rtol=1e-12)

    def test_overflowing_norm_is_refused(self):
        """The mass of [1, infinity) at a = 1100 is about 2^1101 Gamma(1101)."""
        with pytest.raises(ValueError, match="step norm overflows"):
            laguerre_norm(LaguerreStep((1.0, 1e6), (0.0, 1.0)), 1100.0)

    def test_start_above_half_the_cap(self, monkeypatch):
        """A start size past 2048 (a polynomial of 2041 or more coefficients)
        must still compare two rule sizes rather than skip the loop: the
        first two sizes are 2080 and 4160.  The root at x = 1 keeps the
        input on the loop: |1 - x| is (x - 1) plus 2 (1 - x) on [0, 1], so
        the norm is 2^2.5 Gamma(2.5) - 2^1.5 Gamma(1.5)
        + 2 (2^1.5 gamma(1.5, 1/2) - 2^2.5 gamma(2.5, 1/2))."""
        from scipy.special import gammainc
        sizes, sums = [], laguerre._sums
        monkeypatch.setattr(laguerre, "ladder_size", lambda n: 2080)
        monkeypatch.setattr(laguerre, "_sums", lambda pieces, top, alpha, n, *rest:
                            sizes.append(n) or sums(pieces, top, alpha, n, *rest))
        got = laguerre_norm(LaguerreExpDamped((1.0, -1.0)), 0.5)
        assert sizes[:2] == [2080, 4160]
        whole = [2.0 ** (m + 1.5) * math.gamma(m + 1.5) for m in (0, 1)]
        head = [w * gammainc(m + 1.5, 0.5) for m, w in enumerate(whole)]
        np.testing.assert_allclose(got, whole[1] - whole[0] + 2.0 * (head[0] - head[1]),
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
        for a, k in [(0.0, 3), (-1.0, 3), (math.inf, 3), (math.nan, 3), (1.0, 0), (1.0, 2.5)]:
            with pytest.raises(ValueError):
                step_identity_check(a, k, 0.5)

    def test_rhs_is_the_step_series(self):
        """The rhs is the closed form of the [0, a) indicator's series."""
        series = laguerre_coefficient_series(LaguerreStep((2.5,), (1.0,)), 50, 0.5)
        for k in (1, 8, 9, 50):
            assert step_identity_check(2.5, k, 0.5)[1] == series[k]

    def test_values_do_not_depend_on_earlier_calls(self):
        """Degrees share one cached sweep per rung; a degree asked for on a
        cold cache and after a sweep over k = 1..50 has the same bits."""
        ks = (1, 8, 9, 40, 41, 50)
        cold = {}
        for k in ks:
            laguerre._identity_sides.cache_clear()
            cold[k] = step_identity_check(2.5, k, 0.5)
        laguerre._identity_sides.cache_clear()
        warm = {k: step_identity_check(2.5, k, 0.5) for k in range(1, 51)}
        assert {k: warm[k] for k in ks} == cold

    def test_one_sweep_per_rung(self):
        """Degrees 1..64 share one first rule, so a loop over them sweeps
        the identity once, up to degree 64; degree 65 starts a new rung."""
        laguerre._identity_sides.cache_clear()
        for k in range(1, 65):
            step_identity_check(2.5, k, 0.5)
        info = laguerre._identity_sides.cache_info()
        assert (info.misses, info.hits) == (1, 63)
        assert len(laguerre._identity_sides(2.5, 64, 0.5)[0]) == 65
        step_identity_check(2.5, 65, 0.5)
        assert laguerre._identity_sides.cache_info().misses == 2
        laguerre._identity_sides.cache_clear()

    def test_endpoint_past_the_underflow_stays_finite(self):
        """At a = 800 the quadrature keeps the finite interval [0, 800]."""
        lhs, rhs = step_identity_check(800.0, 5, 0.5)
        assert math.isfinite(lhs) and rhs == 0.0
        assert abs(lhs) < 1e-12


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

    def test_terminating_polynomial(self):
        """Past the degree every coefficient is 0: the empty fit, as in
        decay_fit; 1 to 7 nonzero entries in the window still raise."""
        rep = laguerre_decay(LaguerreExpDamped((1.0, 2.0)), 64, 0.5)
        assert (rep.slope, rep.r_squared, rep.max_abs_tail, rep.skipped) == (0.0, 0.0, 0.0, 57)
        with pytest.raises(ValueError, match="fewer than 8"):
            laguerre_decay(LaguerreExpDamped(tuple(np.ones(13))), 64, 0.5)

    def test_requires_nonneg_alpha(self):
        with pytest.raises(ValueError):
            laguerre_decay(UNIT_STEP, 256, -0.25)

