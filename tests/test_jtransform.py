"""Jacobi functions of the second parameter and the continuous transform."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fourierjacobi import (
    AccuracyError,
    JacobiParams,
    Indicator,
    LaguerreExpDamped,
    LaguerreStep,
    jacobi_function,
    transform,
    transform_sweep,
    envelope_check,
)
from fourierjacobi import jtransform
from fourierjacobi.jtransform import _log_cosh
from fourierjacobi.laguerre import HalfLineGrid
from fourierjacobi.quadrature import QuadratureRule


def jacobi_function_series(tau: float, t: float, params: JacobiParams,
                           rtol: float = 1e-7) -> float:
    """phi_tau(t) for t > 0 summed directly from its hypergeometric series.

    The cross-check of the integral pathway.  The unbounded-argument 2F1 is
    converted to a convergent series in tanh^2 t; the complex Pochhammer
    products are tracked as real pairs.  Partial sums can exceed the tiny
    final value at large tau*t, so the roundoff amplification is estimated
    along the way and AccuracyError is raised when rtol is out of reach in
    double precision.
    """
    a, b = params.alpha, params.beta
    rho = a + b + 1.0
    p, q = rho / 2.0, (a - b + 1.0) / 2.0
    z = math.tanh(t) ** 2
    half = tau / 2.0
    tr, ti = 1.0, 0.0
    s_re, s_im = 1.0, 0.0
    peak = 1.0
    for n in range(200_000):
        ar = (p + n) * (q + n) - half * half
        ai = half * (p + q + 2.0 * n)
        scale = z / ((a + 1.0 + n) * (n + 1.0))
        tr, ti = (tr * ar - ti * ai) * scale, (tr * ai + ti * ar) * scale
        s_re += tr
        s_im += ti
        mag = math.hypot(tr, ti)
        peak = max(peak, mag, abs(s_re), abs(s_im))
        if mag * z / (1.0 - z) <= 1e-17 * max(abs(s_re), abs(s_im), 1e-300):
            break
    else:
        raise AccuracyError("kernel series did not converge", achieved=mag)
    ell = tau * float(_log_cosh(t))
    value = math.exp(-rho * float(_log_cosh(t))) * (
        math.cos(ell) * s_re + math.sin(ell) * s_im)
    lost = 1e-16 * peak * math.exp(-rho * float(_log_cosh(t)))
    if lost > rtol * max(abs(value), 1e-300):
        raise AccuracyError(
            "cancellation in the direct series exceeds the requested tolerance",
            achieved=lost / max(abs(value), 1e-300))
    return value


# High-precision reference values for phi_tau(t), computed once with an
# arbitrary-precision hypergeometric series and frozen here.  Keys are
# (alpha, beta, tau, t).
PHI_REFERENCE = {
    (0.5, 0.0, 0.0, 0.1): 0.9962604398639691,
    (0.5, 0.0, 0.0, 1.0): 0.7072408922343933,
    (0.5, 0.0, 0.0, 3.0): 0.10463738774403665,
    (0.5, 0.0, 1.0, 0.1): 0.9946011115049377,
    (0.5, 0.0, 1.0, 1.0): 0.5965155509026023,
    (0.5, 0.0, 1.0, 3.0): 0.007696067863669905,
    (0.5, 0.0, 5.0, 0.1): 0.955272170763481,
    (0.5, 0.0, 5.0, 1.0): -0.132573786227051,
    (0.5, 0.0, 5.0, 3.0): 0.004220400520840282,
    (0.5, 0.0, 20.0, 0.1): 0.4530306515684205,
    (0.5, 0.0, 20.0, 1.0): 0.03120858539434225,
    (0.5, 0.0, 20.0, 3.0): -0.00047021547585241147,
    (1.0, 0.5, 0.0, 0.1): 0.9922272015460265,
    (1.0, 0.5, 0.0, 1.0): 0.4939091117473121,
    (1.0, 0.5, 0.0, 3.0): 0.013495939759712838,
    (1.0, 0.5, 1.0, 0.1): 0.9909873051717877,
    (1.0, 0.5, 1.0, 1.0): 0.4341152717282609,
    (1.0, 0.5, 1.0, 3.0): 0.0025110995708687326,
    (1.0, 0.5, 5.0, 0.1): 0.9615382369957362,
    (1.0, 0.5, 5.0, 1.0): -0.06685314362550493,
    (1.0, 0.5, 5.0, 3.0): 0.0004397736028255388,
    (1.0, 0.5, 20.0, 0.1): 0.5722020810095891,
    (1.0, 0.5, 20.0, 1.0): 0.003447431720504903,
    (1.0, 0.5, 20.0, 3.0): 2.4645306699866545e-05,
    (0.0, -0.25, 0.0, 0.1): 0.9985957056410292,
    (0.0, -0.25, 0.0, 1.0): 0.87603822091672,
    (0.0, -0.25, 0.0, 3.0): 0.39978621603908376,
    (0.0, -0.25, 1.0, 0.1): 0.9961016189198675,
    (0.0, -0.25, 1.0, 1.0): 0.6760084369378703,
    (0.0, -0.25, 1.0, 3.0): -0.057105039749432776,
    (0.0, -0.25, 5.0, 0.1): 0.9371725678999467,
    (0.0, -0.25, 5.0, 1.0): -0.1529265196153413,
    (0.0, -0.25, 5.0, 3.0): -0.002112758273995737,
    (0.0, -0.25, 20.0, 0.1): 0.2238144332236484,
    (0.0, -0.25, 20.0, 1.0): 0.13853548286496067,
    (0.0, -0.25, 20.0, 3.0): -0.027971770082024713,
}

# Same grid for the boundary alpha = -1/2, where the single-integral formula
# takes over.
PHI_LIMIT_REFERENCE = {
    (-0.5, 0.25, 0.0, 1.0): 0.7817420516584869,
    (-0.5, 0.25, 5.0, 2.0): -0.31364668206842494,
    (-0.5, 0.25, 20.0, 3.0): -0.1687413518251635,
    (-0.5, -0.25, 0.0, 1.0): 0.9710862051927185,
    (-0.5, -0.25, 5.0, 2.0): -0.6083610328192631,
    (-0.5, -0.25, 20.0, 3.0): -0.5354092096009156,
}


def step_transform_mp(params: JacobiParams, tau: float, lo: float, hi: float) -> float:
    """The transform of the indicator of [lo, hi) as its boundary term, with
    phi^(a+1,b+1) = 2F1((r + i tau)/2, (r - i tau)/2; a + 2; -sinh^2 t),
    r = a + b + 3, in 30-digit mpmath."""
    import mpmath as mp
    a, b = params.alpha, params.beta
    with mp.workdps(30):
        def term(t):
            if t == 0.0:
                return mp.mpf(0)
            t, r = mp.mpf(t), mp.mpf(a) + b + 3
            phi = mp.hyp2f1((r + 1j * tau) / 2, (r - 1j * tau) / 2, a + 2,
                            -mp.sinh(t) ** 2).real
            return mp.sinh(t) ** (2 * a + 2) * mp.cosh(t) ** (2 * b + 2) * phi
        pref = mp.mpf(2) ** (2 * (a + b + 1) + mp.mpf(0.5)) / mp.gamma(a + 1)
        return float(pref * (term(hi) - term(lo)) / (2 * (a + 1)))


def test_log_sinh_against_mpmath():
    """t + log1p(-e^(-2t)) - log 2 cancels digits as t falls to 0: it was
    1.5e-10 off at small t.  Against 40-digit mpmath from 1e-8 to 300, within
    one double epsilon of max(1, |log sinh t|)."""
    import mpmath as mp
    ts = np.geomspace(1e-8, 300.0, 1000)
    with mp.workdps(40):
        want = np.array([float(mp.log(mp.sinh(mp.mpf(t)))) for t in ts.tolist()])
    err = np.abs(jtransform._log_sinh(ts) - want) / np.maximum(1.0, np.abs(want))
    assert float(np.max(err)) <= np.finfo(float).eps


class TestJacobiFunction:
    @pytest.mark.parametrize("key", sorted(PHI_REFERENCE))
    def test_frozen_grid(self, key):
        a, b, tau, t = key
        got = jacobi_function(tau, t, JacobiParams(a, b))
        np.testing.assert_allclose(got, PHI_REFERENCE[key], rtol=1e-9,
                                   atol=1e-13)

    @pytest.mark.parametrize("key", sorted(PHI_LIMIT_REFERENCE))
    def test_frozen_limit_grid(self, key):
        a, b, tau, t = key
        got = jacobi_function(tau, t, JacobiParams(a, b))
        np.testing.assert_allclose(got, PHI_LIMIT_REFERENCE[key], rtol=1e-9,
                                   atol=1e-13)

    def test_value_at_origin(self):
        assert jacobi_function(3.0, 0.0, JacobiParams(0.5, 0.0)) == 1.0

    def test_cosine_reduction(self):
        """(alpha, beta) = (-1/2, -1/2) collapses to cos(tau t)."""
        params = JacobiParams(-0.5, -0.5)
        for tau in (0.0, 0.7, 5.0, 20.0):
            for t in (0.2, 1.0, 4.0):
                np.testing.assert_allclose(jacobi_function(tau, t, params),
                                           math.cos(tau * t), atol=1e-12)

    def test_series_cross_check(self):
        """The hypergeometric series agrees with the integral pathway."""
        for a, b in [(0.5, 0.0), (1.0, 0.5), (0.0, -0.25)]:
            params = JacobiParams(a, b)
            for tau in (0.0, 1.0, 5.0, 20.0):
                for t in (0.1, 1.0, 3.0):
                    if tau * t > 6.0:
                        continue   # series cancellation regime
                    s = jacobi_function_series(tau, t, params, rtol=1e-7)
                    g = jacobi_function(tau, t, params)
                    np.testing.assert_allclose(s, g, rtol=1e-6, atol=1e-10)

    def test_series_reports_cancellation(self):
        with pytest.raises(AccuracyError):
            jacobi_function_series(20.0, 3.0, JacobiParams(0.5, 0.0),
                                   rtol=1e-7)

    def test_series_matches_frozen(self):
        for key, want in PHI_REFERENCE.items():
            a, b, tau, t = key
            if tau * t > 6.0:
                continue
            got = jacobi_function_series(tau, t, JacobiParams(a, b))
            np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-11)

    @pytest.mark.parametrize("params", [JacobiParams(0.5, 0.0), JacobiParams(-0.5, 0.25)])
    def test_argument_outside_unit_interval_raises(self, params, monkeypatch):
        """A node past t puts the 2F1 argument below 0, and the 2F1 wrapper
        refuses it in both kernel forms."""
        past = QuadratureRule(np.array([1.5]), np.array([1.0]))
        monkeypatch.setattr(jtransform, "mapped_jacobi_rule", lambda *args: past)
        with pytest.raises(AccuracyError, match=r"left \[0, 1\)"):
            jacobi_function(2.0, 1.0, params)

    def test_domain_errors(self):
        params = JacobiParams(0.5, 0.0)
        with pytest.raises(ValueError):
            jacobi_function(-1.0, 1.0, params)
        with pytest.raises(ValueError):
            jacobi_function(1.0, -0.1, params)
        with pytest.raises(ValueError):
            jacobi_function(1.0, 1.0, JacobiParams(-0.75, 0.0))
        with pytest.raises(ValueError):
            jacobi_function(1.0, 1.0, JacobiParams(0.0, -1.5))

    @pytest.mark.parametrize("tau,t", [([1.0, 2.0], 1.0), (1.0, [1.0, 3.0]),
                                       (np.array([1.0]), 1.0), (1.0, [[1.0]])])
    def test_one_frequency_and_one_argument(self, tau, t):
        """A list is not read as its first entry: at tau = [1, 2] that entry
        would even be 1 ulp off the scalar call, on the rule sized for 2."""
        with pytest.raises(ValueError, match="one frequency and one argument"):
            jacobi_function(tau, t, JacobiParams(0.5, 0.0))


class TestProfiles:
    def test_indicator_validation(self):
        Indicator(1.0, 2.0)
        with pytest.raises(ValueError):
            Indicator(0.0, 2.0)
        with pytest.raises(ValueError):
            Indicator(2.0, 1.0)

    def test_expdecay_validation(self):
        """A damped polynomial takes any rate >= 0; the transform checks
        rate > 2 (alpha + beta + 1), which a finite weighted norm needs."""
        params = JacobiParams(0.5, 0.0)   # 2 rho = 3
        with pytest.raises(ValueError):
            LaguerreExpDamped((1.0,), rate=-0.5)
        transform(LaguerreExpDamped((1.0,), rate=4.0), 1.0, params)
        with pytest.raises(ValueError, match="infinite norm"):
            transform(LaguerreExpDamped((1.0,), rate=3.0), 1.0, params)
        with pytest.raises(ValueError, match="infinite norm"):
            transform(LaguerreExpDamped((1.0,), rate=2.9), 1.0, params)

    def test_grid_validation(self):
        HalfLineGrid((0.5, 1.0, 2.0), (0.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            HalfLineGrid((1.0, 0.5), (1.0, 1.0))
        with pytest.raises(ValueError):
            HalfLineGrid((0.0, 1.0), (1.0, 2.0))   # must start past zero
        with pytest.raises(ValueError):
            HalfLineGrid((0.5, 1.0), (1.0, 2.0, 3.0))

    @pytest.mark.parametrize("make", [
        lambda: Indicator(1.0, math.inf),
        lambda: Indicator(math.nan, 2.0),
        lambda: LaguerreExpDamped((1.0,), rate=math.nan),
        lambda: LaguerreExpDamped((1.0,), rate=math.inf),
        lambda: LaguerreExpDamped((math.nan,), rate=4.0),
        lambda: HalfLineGrid((0.5, math.inf), (1.0, 2.0)),
        lambda: HalfLineGrid((0.5, 1.0), (1.0, math.nan)),
    ])
    def test_non_finite_parameters_raise(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()


class TestTransform:
    def test_chebyshev_closed_form(self):
        """At (-1/2, -1/2) the transform of an indicator is a sine difference."""
        params = JacobiParams(-0.5, -0.5)
        f = Indicator(1.0, 2.0)
        scale = math.sqrt(2.0 / math.pi)
        for tau in (0.5, 1.0, 5.0, 20.0):
            want = scale * (math.sin(2.0 * tau) - math.sin(tau)) / tau
            np.testing.assert_allclose(transform(f, tau, params), want,
                                       rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(transform(f, 0.0, params), scale,
                                   rtol=1e-9)

    def test_additive_in_the_interval(self):
        params = JacobiParams(0.5, 0.0)
        for tau in (0.8, 6.0):
            whole = transform(Indicator(1.0, 3.0), tau, params)
            parts = (transform(Indicator(1.0, 2.0), tau, params)
                     + transform(Indicator(2.0, 3.0), tau, params))
            np.testing.assert_allclose(whole, parts, rtol=1e-8,
                                       atol=1e-12)

    def test_indicator_against_adaptive(self):
        """Straight adaptive integration of the production integrand."""
        from fourierjacobi.jtransform import _log_weight, _transform_prefactor
        params = JacobiParams(0.5, 0.0)
        f = Indicator(1.0, 2.0)
        pref = _transform_prefactor(params)
        for tau in (0.6, 3.0):
            def integrand(t):
                return (jacobi_function(tau, t, params)
                        * math.exp(_log_weight(t, params)))
            ref, _ = quad(integrand, 1.0, 2.0, limit=200)
            np.testing.assert_allclose(transform(f, tau, params), pref * ref,
                                       rtol=1e-8)

    def test_expdecay_against_adaptive(self):
        """The last three pairs have alpha in (-1/2, 0): the first rule must
        take the weight's t^(2 alpha + 1) at t = 0 into its exponent."""
        from fourierjacobi.jtransform import _log_weight, _transform_prefactor
        tau = 1.2
        for a, b in [(0.0, -0.25), (-0.25, 0.0), (-0.4, 0.3), (-0.1, -0.3)]:
            params = JacobiParams(a, b)   # 2 rho <= 1.8 < rate
            f = LaguerreExpDamped((1.0, 0.5), rate=3.0)
            pref = _transform_prefactor(params)
            def integrand(t):
                return (f(t) * jacobi_function(tau, t, params)
                        * math.exp(_log_weight(t, params)))
            ref, _ = quad(integrand, 0.0, 40.0, limit=400)
            np.testing.assert_allclose(transform(f, tau, params), pref * ref,
                                       rtol=1e-7)

    def test_grid_profile_against_adaptive(self):
        """The second grid starts at 1e-5, next to the weight's t^0.2 at
        (-0.4, 0): a Gauss-Legendre rule on its first piece did not settle."""
        from fourierjacobi.jtransform import _log_weight, _transform_prefactor
        tau = 2.0
        cases = [(HalfLineGrid((0.5, 1.5, 2.5), (0.0, 2.0, 0.0)), JacobiParams(0.5, 0.0)),
                 (HalfLineGrid((1e-5, 0.5, 1.0), (1.0, 2.0, 1.0)), JacobiParams(-0.4, 0.0))]
        for f, params in cases:
            pref = _transform_prefactor(params)
            def integrand(t):
                return (f(t) * jacobi_function(tau, t, params)
                        * math.exp(_log_weight(t, params)))
            ts = f.abscissae
            ref, _ = quad(integrand, ts[0], ts[-1], limit=300, points=ts[1:-1])
            np.testing.assert_allclose(transform(f, tau, params), pref * ref,
                                       rtol=1e-7)

    # (D phi')' = -(tau^2 + rho^2) D phi with D = sinh^(2a+1) t cosh^(2b+1) t, and
    # phi' = -(tau^2 + rho^2) sinh(2t) phi^(a+1,b+1) / (4 (a+1)) from the derivative
    # of 2F1 (Koornwinder 1984, section 2): the Jacobi-function analogue of the
    # antiderivative (DLMF 18.9.16) behind the closed form of series' steps.
    # The reference takes phi^(a+1,b+1) from mpmath's 2F1, not from the package.
    @pytest.mark.parametrize("a, b", [(0.5, 0.0), (-0.5, -0.5), (-0.5, 0.25),
                                      (0.0, 0.9), (1.2, 0.7), (-0.3, -0.6)])
    @pytest.mark.parametrize("f, edges", [(Indicator(1.0, 2.0), (1.0, 2.0)),
                                          (LaguerreStep((1.5,), (1.0,)), (0.0, 1.5))],
                             ids=["indicator", "from-zero"])
    def test_step_is_a_boundary_term(self, a, b, f, edges):
        """The weighted integral of phi over [lo, hi] is the boundary term
        [sinh^(2a+2) t cosh^(2b+2) t phi^(a+1,b+1)(t)] from lo to hi over
        2 (a+1); the term vanishes at t = 0."""
        from fourierjacobi.jtransform import _transform_prefactor
        params = JacobiParams(a, b)
        taus = [0.0, 0.7, 5.0, 23.0, 50.0]
        got = transform_sweep(f, taus, params)
        want = [step_transform_mp(params, tau, *edges) for tau in taus]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * max(
            _transform_prefactor(params), float(np.max(np.abs(got)))))

    def test_readme_golden_against_mpmath(self):
        """Every value of the README's frozen transform example is within
        2e-15 of max(prefactor, max|F|) of the 30-digit boundary term."""
        import json
        from pathlib import Path
        from fourierjacobi.jtransform import _transform_prefactor
        golden = json.loads((Path(__file__).parent / "readme_cli_golden.json").read_text())
        [entry] = [g for g in golden if g["command"].split()[1] == "transform"]
        assert "--alpha 0.5 --beta 0 --function indicator:1,2" in entry["command"]
        params = JacobiParams(0.5, 0.0)
        rows = [line.split(",") for line in entry["stdout"].splitlines()[1:]]
        assert len(rows) == 101
        got = np.array([float(v) for _, v in rows])
        want = np.array([step_transform_mp(params, float(tau), 1.0, 2.0) for tau, _ in rows])
        scale = max(_transform_prefactor(params), float(np.max(np.abs(want))))
        assert float(np.max(np.abs(got - want))) <= 2e-15 * scale

    @pytest.mark.parametrize("hi, rtol", [(240.0, 1e-12), (300.0, 1e-12), (1.0 + 1e-6, 1e-9)],
                             ids=["far-240", "far-300", "narrow"])
    def test_far_and_narrow_steps(self, hi, rtol):
        """At (0.5, 0) the weight alone overflows past t = 237.3, but the
        boundary term folds it into the row's log prefactor and stays a finite
        double.  On a narrow step the two boundary terms nearly cancel, and the
        difference still meets the default rtol."""
        params = JacobiParams(0.5, 0.0)
        taus = [0.0, 0.7]
        got = transform_sweep(Indicator(1.0, hi), taus, params)
        want = [step_transform_mp(params, tau, 1.0, hi) for tau in taus]
        np.testing.assert_allclose(got, want, rtol=rtol)

    def test_sweep_matches_scalar(self):
        params = JacobiParams(0.5, 0.0)
        f = Indicator(1.0, 2.0)
        taus = np.array([0.0, 0.5, 2.0, 11.0])
        swept = transform_sweep(f, taus, params)
        single = transform_sweep(f, np.array([2.0]), params)
        np.testing.assert_allclose(single[0], swept[2], rtol=1e-12)
        for i, tau in enumerate(taus):
            np.testing.assert_allclose(swept[i], transform(f, tau, params),
                                       rtol=1e-9, atol=1e-14)

    def test_high_frequency_falloff(self):
        """The transform of a compact bump dies at large tau."""
        params = JacobiParams(0.5, 0.0)
        f = Indicator(1.0, 2.0)
        low = np.abs(transform_sweep(f, np.linspace(5.0, 10.0, 11), params))
        high = np.abs(transform_sweep(f, np.linspace(200.0, 220.0, 11),
                                      params))
        assert high.max() < 0.2 * low.max()


@pytest.mark.parametrize("call", [
    lambda p: transform(Indicator(1.0, 2.0), math.inf, p),
    lambda p: transform(Indicator(1.0, 2.0), math.nan, p),
    lambda p: transform_sweep(Indicator(1.0, 2.0), [0.0, math.inf], p),
    lambda p: transform_sweep(Indicator(1.0, 2.0), [0.0, -1.0], p),
    lambda p: jacobi_function(1.0, math.inf, p),
    lambda p: jacobi_function(math.nan, 1.0, p),
    lambda p: envelope_check(p, tau_grid=[0.0, math.inf]),
    lambda p: envelope_check(p, t_grid=[-1.0, 1.0]),
    lambda p: envelope_check(p, t_grid=[0.0, math.nan]),
], ids=["transform-inf", "transform-nan", "sweep-inf", "sweep-negative",
        "phi-t-inf", "phi-tau-nan", "envelope-tau-inf", "envelope-t-negative",
        "envelope-t-nan"])
def test_points_must_be_finite_and_nonnegative(call):
    """Each entry point checks its frequencies and arguments before any work."""
    with pytest.raises(ValueError, match="must be finite and nonnegative"):
        call(JacobiParams(0.5, 0.0))


@pytest.mark.parametrize("call", [
    lambda p: transform_sweep(Indicator(1.0, 2.0), [[1.0, 2.0], [3.0, 4.0]], p),
    lambda p: envelope_check(p, t_grid=[[0.0, 1.0], [2.0, 3.0]]),
    lambda p: envelope_check(p, tau_grid=[[0.0, 1.0], [2.0, 3.0]]),
], ids=["sweep", "envelope-t", "envelope-tau"])
def test_grids_must_be_one_dimensional(call):
    with pytest.raises(ValueError, match="must be a number or a 1-d sequence"):
        call(JacobiParams(0.5, 0.0))


@pytest.mark.parametrize("grid", ["t_grid", "tau_grid"])
def test_envelope_grids_must_not_be_empty(grid):
    with pytest.raises(ValueError, match=f"{grid} is empty"):
        envelope_check(JacobiParams(0.5, 0.0), **{grid: []})


def test_sweep_of_no_frequencies_is_empty():
    assert transform_sweep(Indicator(1.0, 2.0), [], JacobiParams(0.5, 0.0)).shape == (0,)


class TestSweepRefusals:
    """Pieces that fit the rule-size limit but cannot be swept are refused
    before any rule is built."""

    @pytest.fixture
    def no_rules(self, monkeypatch):
        from fourierjacobi import quadrature

        def refuse(*args):
            raise AssertionError("a rule was built")

        monkeypatch.setattr(quadrature, "_gauss_jacobi_cached", refuse)

    @pytest.mark.parametrize("b,sizes", [(1000.0, "15936 x 15968"),
                                         (4000.0, "63680 x 63712")])
    def test_kernel_work_budget(self, no_rules, b, sizes):
        """At tau 50 both rules of the linear piece [1, b] fit 65536 nodes,
        but every outer node would build a kernel rule of about that size."""
        with pytest.raises(ValueError, match=f"needs {sizes} kernel nodes"):
            transform_sweep(HalfLineGrid((1.0, b), (1.0, 2.0)), [0.0, 50.0],
                            JacobiParams(0.5, 0.0))

    def test_rule_size_limit_comes_first(self, no_rules):
        with pytest.raises(ValueError, match="rule size must be between"):
            transform_sweep(Indicator(1.0, 1e6), [0.0, 50.0], JacobiParams(0.5, 0.0))

    def test_weight_overflow(self, no_rules):
        """At (0.5, 0) a step's boundary term at t is about e^(1.5 t), past
        the largest double beyond t = 473: the edge is named before any rule
        is built, even when a nearer edge could be built."""
        with pytest.raises(ValueError, match="boundary term overflows at t = 1000.0"):
            transform_sweep(Indicator(1.0, 1000.0), [0.0, 1.0], JacobiParams(0.5, 0.0))

    def test_swept_weight_overflow(self, no_rules):
        """A linear piece is still swept, and its weight
        exp(3 t - 3 log 2 + ...) overflows past t = 237.3 at (0.5, 0)."""
        with pytest.raises(ValueError, match="weight overflows at t = 240.0"):
            transform_sweep(HalfLineGrid((1.0, 240.0), (1.0, 2.0)), [0.0, 1.0],
                            JacobiParams(0.5, 0.0))

    def test_overflow_next_to_the_limit(self):
        """At t = 470 the row's log prefactor is a finite double, but the
        transform itself is 2.5e309 at tau 0 by mpmath: refused, not inf."""
        with pytest.raises(ValueError, match="the transform overflows"):
            transform_sweep(Indicator(1.0, 470.0), [0.0, 1.0], JacobiParams(0.5, 0.0))

    def test_far_edge_below_the_weight_limit(self):
        """The reference is the boundary term in 30-digit mpmath."""
        value = transform(Indicator(1.0, 230.0), 0.0, JacobiParams(0.5, 0.0))
        np.testing.assert_allclose(value, 5.52261846103078656e+152, rtol=1e-9)


class TestEnvelope:
    def test_cosine_case_is_tight(self):
        rep = envelope_check(JacobiParams(-0.5, -0.5),
                             t_grid=np.linspace(0.0, 10.0, 21),
                             tau_grid=np.linspace(0.0, 20.0, 21))
        assert rep.verified
        assert rep.c_star <= 1.0 + 1e-9

    def test_positive_alpha_case(self):
        rep = envelope_check(JacobiParams(0.5, 0.0),
                             t_grid=np.linspace(0.0, 12.0, 25),
                             tau_grid=np.linspace(0.0, 30.0, 31))
        assert rep.verified
        assert 2.5 < rep.c_star < 3.5
        assert rep.worst_ratio <= rep.slack
