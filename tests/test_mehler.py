"""Integral-representation evaluation of R_k, checked against the recurrence."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fourierjacobi import (
    AccuracyError,
    JacobiParams,
    jacobi_r,
    mehler_r,
    mehler_limit_r,
    kernel_mass_h,
)
from fourierjacobi import mehler, jtransform
from fourierjacobi.jtransform import (Indicator, envelope_check, jacobi_function,
                                      transform_sweep)
from fourierjacobi.quadrature import QuadratureRule


class TestMehlerIntegral:
    def test_degree_zero_is_one(self):
        got = mehler_r(0, JacobiParams(0.0, 0.0), 1.2)
        np.testing.assert_allclose(got.value, 1.0, rtol=1e-12)

    def test_legendre_frozen(self):
        """P_5(cos(pi/3)) = P_5(1/2) = 23/256."""
        got = mehler_r(5, JacobiParams(0.0, 0.0), math.pi / 3)
        np.testing.assert_allclose(got.value, 0.08984375, rtol=1e-10)
        assert got.degree == 5
        assert got.pathway == "mehler-integral"

    @pytest.mark.parametrize("alpha,beta,k,theta", [
        (0.0, 0.0, 3, 0.7),
        (0.5, -0.25, 8, 1.9),
        (1.5, 0.25, 20, 2.0),
        (2.0, 1.0, 35, 0.4),
        (0.25, -0.75, 12, 2.8),
    ])
    def test_agrees_with_recurrence(self, alpha, beta, k, theta):
        params = JacobiParams(alpha, beta)
        ref = jacobi_r(k, params, math.cos(theta))
        got = mehler_r(k, params, theta)
        np.testing.assert_allclose(got.value, ref, rtol=1e-8,
                                   atol=1e-8 * max(1.0, abs(ref)))

    # 40-digit mpmath R_k(cos 3.14) at k = 5, 17, 50.  Near theta = pi the
    # 2F1 argument is near 1; these pairs have beta <= 0, so it stays bounded.
    @pytest.mark.parametrize("alpha,beta,want", [
        (0.0, -0.5, (-0.2460851669142116, -0.13578251118655987, 0.07933449769673702)),
        (0.5, 0.0, (-0.3694007561495776, -0.21029919792370252, 0.12419806598539565)),
        (0.25, -0.4, (-0.2026596843700643, -0.09493937008877602, 0.04747662175165153)),
        (0.01, 0.0, (-0.9774778949807825, -0.9660780071155612, 0.9545366742421968)),
    ])
    def test_near_pi_against_mpmath(self, alpha, beta, want):
        params = JacobiParams(alpha, beta)
        for k, ref in zip((0, 5, 17, 50), (1.0,) + want):
            assert abs(mehler_r(k, params, 3.14).value - ref) <= 1e-11

    # 40-digit mpmath R_k(cos 2e-6) at k = 3, 20.
    @pytest.mark.parametrize("alpha,beta,want", [
        (0.0, 0.0, (0.999999999988, 0.99999999958)),
        (0.5, -0.25, (0.9999999999915, 0.9999999997166666)),
        (1.5, 0.75, (0.9999999999925, 0.999999999814)),
        (2.0, 1.0, (0.999999999993, 0.99999999984)),
    ])
    def test_small_angle_against_mpmath(self, alpha, beta, want):
        """The (1 - cos theta)^(-alpha) prefactor must keep its low bits."""
        params = JacobiParams(alpha, beta)
        for k, ref in zip((0, 3, 20), (1.0,) + want):
            assert abs(mehler_r(k, params, 2e-6).value - ref) <= 1e-13

    @pytest.mark.parametrize("alpha", [-0.49, 0.0, 1.5, 6.0])
    @pytest.mark.parametrize("beta", [-0.9, 0.0])
    @pytest.mark.parametrize("theta", [1e-3, 0.35, 2.9, 3.1])
    def test_low_degrees_in_closed_form(self, alpha, beta, theta):
        """R_0 = 1 and R_1 = (alpha + 1 + (alpha + beta + 2)(cos theta - 1)/2)
        / (alpha + 1), so a kernel rule whose end panel under- or
        mis-resolves the singular end shows at once.  Near pi with beta > 0
        the 2F1 argument approaches 1, a separate limit left out here."""
        params = JacobiParams(alpha, beta)
        r1 = (alpha + 1.0 + (alpha + beta + 2.0) * (math.cos(theta) - 1.0) / 2.0) / (alpha + 1.0)
        assert abs(mehler_r(0, params, theta).value - 1.0) <= 1e-10
        assert abs(mehler_r(1, params, theta).value - r1) <= 1e-10

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mehler_r(3, JacobiParams(-0.5, -0.5), 1.0)   # needs alpha > -1/2
        with pytest.raises(ValueError):
            mehler_r(3, JacobiParams(0.5, 0.0), 0.0)
        with pytest.raises(ValueError):
            mehler_r(3, JacobiParams(0.5, 0.0), math.pi)
        with pytest.raises(ValueError):
            mehler_r(-1, JacobiParams(0.5, 0.0), 1.0)
        with pytest.raises(ValueError):
            mehler_r(2.5, JacobiParams(0.5, 0.0), 1.0)


class TestLimitFormula:
    def test_chebyshev_reduction(self):
        """At beta = -1/2 the formula collapses to cos(k theta)."""
        for k in (0, 1, 4, 9):
            for theta in (0.3, 1.5, 2.9):
                got = mehler_limit_r(k, -0.5, theta)
                np.testing.assert_allclose(got.value, math.cos(k * theta),
                                           atol=1e-10)
                assert got.pathway == "limit-formula"

    @pytest.mark.parametrize("beta,k,theta", [
        (-0.75, 3, 1.5),
        (-0.9, 12, 2.5),
        (-0.25, 7, 0.9),
    ])
    def test_agrees_with_recurrence(self, beta, k, theta):
        params = JacobiParams(-0.5, beta)
        ref = jacobi_r(k, params, math.cos(theta))
        got = mehler_limit_r(k, beta, theta)
        np.testing.assert_allclose(got.value, ref, rtol=1e-8,
                                   atol=1e-8 * max(1.0, abs(ref)))

    def test_continuity_in_alpha(self):
        """The integral pathway just above alpha = -1/2 lands near the limit."""
        beta = -0.25
        for k in range(11):
            near = mehler_r(k, JacobiParams(-0.5 + 1e-3, beta), 1.1).value
            at = mehler_limit_r(k, beta, 1.1).value
            assert abs(near - at) <= 5e-3

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mehler_limit_r(3, 0.0, 1.0)    # needs beta < 0
        with pytest.raises(ValueError):
            mehler_limit_r(3, -1.0, 1.0)   # needs beta > -1
        with pytest.raises(ValueError):
            mehler_limit_r(3, -0.5, 0.0)
        with pytest.raises(ValueError):
            mehler_limit_r(1.5, -0.75, 1.0)


# Each pathway with the parameters that lead its key in the kernel cache.
PATHWAYS = {
    "mehler_r": (lambda k, theta: mehler_r(k, JacobiParams(0.5, -0.25), theta),
                 (0.5, -0.25)),
    "mehler_limit_r": (lambda k, theta: mehler_limit_r(k, -0.75, theta),
                       (-0.5, -0.75)),
}


@pytest.mark.parametrize("name", sorted(PATHWAYS))
class TestNodeReuse:
    """Kernel data depends on (alpha, beta, theta, n) only, so a sweep over
    degrees builds it once per rule size and every value stays the same."""

    def test_one_hyp2f1_call_per_rule_size(self, name, monkeypatch):
        pathway, _ = PATHWAYS[name]
        sizes = []
        hyp2f1_array = mehler._hyp2f1_array

        def counting(a, b, c, z):
            sizes.append(z.size)
            return hyp2f1_array(a, b, c, z)

        mehler._kernel_data.cache_clear()
        monkeypatch.setattr(mehler, "_hyp2f1_array", counting)
        for k in range(51):
            pathway(k, 2.2)
        assert len(sizes) >= 2
        assert len(sizes) == len(set(sizes))

    def test_values_independent_of_cache_state(self, name):
        pathway, _ = PATHWAYS[name]
        degrees = range(51)

        def sweep(ks):
            values = {k: pathway(k, 1.3).value for k in ks}
            return np.array([values[k] for k in degrees]).tobytes()

        mehler._kernel_data.cache_clear()
        cold = sweep(degrees)
        warm = sweep(degrees)
        mehler._kernel_data.cache_clear()
        reverse = sweep(reversed(degrees))
        assert cold == warm == reverse

    def test_cached_arrays_are_read_only(self, name):
        _, params = PATHWAYS[name]
        for arr in mehler._kernel_data(*params, 1.3, 64):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


@pytest.mark.parametrize("name", sorted(PATHWAYS))
def test_argument_outside_unit_interval_raises(name, monkeypatch):
    """A node past theta puts the 2F1 argument below 0, and the 2F1 wrapper
    refuses it on both pathways."""
    pathway, _ = PATHWAYS[name]
    past = QuadratureRule(np.array([2.5]), np.array([1.0]))
    monkeypatch.setattr(mehler, "mapped_jacobi_rule", lambda *args: past)
    mehler._kernel_data.cache_clear()
    with pytest.raises(AccuracyError, match=r"left \[0, 1\)"):
        pathway(3, 2.2)
    mehler._kernel_data.cache_clear()


KERNEL_P = JacobiParams(0.5, 0.0)

# Every entry point that sums a cosine kernel, on small inputs.
KERNEL_SUMS = {
    "mehler_r": lambda: mehler_r(3, JacobiParams(0.5, -0.25), 1.2),
    "mehler_limit_r": lambda: mehler_limit_r(3, -0.75, 1.2),
    "jacobi_function": lambda: jacobi_function(2.0, 1.0, KERNEL_P),
    "transform_sweep": lambda: transform_sweep(Indicator(1.0, 2.0), [0.5, 3.0],
                                               KERNEL_P),
    "envelope_check": lambda: envelope_check(KERNEL_P, np.linspace(0.0, 2.0, 3),
                                             np.linspace(0.0, 4.0, 3)),
}


@pytest.mark.parametrize("name", sorted(KERNEL_SUMS))
def test_kernel_sums_share_one_evaluator(name, monkeypatch):
    """The Mehler pathways and the transform kernel all form A @ cos(lambda S)
    in mehler._cosine_sum."""
    calls = []
    cosine_sum = mehler._cosine_sum

    def counting(s, amp, lams):
        calls.append(1)
        return cosine_sum(s, amp, lams)

    for module in (mehler, jtransform):
        monkeypatch.setattr(module, "_cosine_sum", counting)
    mehler._kernel_data.cache_clear()
    KERNEL_SUMS[name]()
    assert calls


# Kernels of many nodes, as the evaluator sees them: the transform kernel at
# an outer node and the Mehler singular kernel.
GRID_KERNELS = {
    "transform": lambda: jtransform._cosine_data(3.0, KERNEL_P, 256, 0.0),
    "mehler": lambda: mehler._kernel_data(0.5, -0.25, 1.2, 128),
}

GRIDS = {"from-0": (0.0, 50.0), "above-0": (3.5, 200.0), "descending-to-0": (50.0, 0.0),
         "descending": (400.0, 0.25)}


def direct_sum(s, amp, lams):
    return np.cos(np.outer(lams, s)) @ amp


class TestCosineSum:
    @pytest.mark.parametrize("kernel", sorted(GRID_KERNELS))
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("m", [21, 41, 101, 801, 3200])
    def test_arithmetic_grid_matches_the_direct_sum(self, kernel, grid, m):
        """Angle addition moves each value by rounding only: within
        eps (1 + max|lambda| max|S|) sum|A| of the direct sum."""
        s, amp = GRID_KERNELS[kernel]()
        lams = np.linspace(*GRIDS[grid], m)
        got = mehler._cosine_sum(s, amp, lams)
        bound = (np.finfo(float).eps * (1.0 + np.max(np.abs(lams)) * np.max(np.abs(s)))
                 * np.sum(np.abs(amp)))
        assert got.shape == (m,)
        assert float(np.max(np.abs(got - direct_sum(s, amp, lams)))) <= bound

    @pytest.mark.parametrize("lams, trig_rows", [
        (np.linspace(0.0, 50.0, 101), 2 * (11 + 10)),
        (np.linspace(0.0, 50.0, 3200), 2 * (57 + 57)),
        # The midpoint-refined grid of envelope_check.
        (np.insert(np.linspace(0.0, 50.0, 51), range(1, 51), np.arange(0.5, 50.0)),
         2 * (11 + 10)),
        ([1.7], 1),
        (np.linspace(0.0, 50.0, 18), 18),
        (np.geomspace(1.0, 50.0, 101), 101),
    ], ids=["101", "3200", "envelope", "one", "short", "irregular"])
    def test_trig_calls_per_node(self, lams, trig_rows, monkeypatch):
        """2 (b + q) cosines and sines per node on an evenly spaced grid of
        m > 18 values, b = ceil(sqrt m) and q = ceil(m / b); m otherwise."""
        s, amp = GRID_KERNELS["transform"]()
        count = []
        for name in ("cos", "sin"):
            ufunc = getattr(np, name)
            monkeypatch.setattr(np, name, lambda x, ufunc=ufunc: count.append(np.size(x))
                                or ufunc(x))
        mehler._cosine_sum(s, amp, lams)
        assert sum(count) == trig_rows * s.size

    @pytest.mark.parametrize("lams", [
        [1.7],
        np.array([0.0]),
        np.linspace(0.0, 50.0, 18),
        np.geomspace(1.0, 50.0, 101),
        np.linspace(0.0, 50.0, 101) + np.eye(101)[40] * 1e-12,
    ], ids=["one-list", "one-array", "short", "geometric", "perturbed"])
    @pytest.mark.parametrize("kernel", sorted(GRID_KERNELS))
    def test_direct_form_keeps_its_bits(self, kernel, lams):
        """A single lambda (every Mehler pathway call), a grid too short for
        the split and an uneven grid take the direct sum, bit for bit."""
        s, amp = GRID_KERNELS[kernel]()
        assert mehler._cosine_sum(s, amp, lams).tobytes() == \
            direct_sum(s, amp, lams).tobytes()


class TestKernelMass:
    def test_chebyshev_endpoint_frozen(self):
        """alpha = 1/2, theta = pi/2: the mass is exactly pi/2."""
        np.testing.assert_allclose(kernel_mass_h(math.pi / 2, 0.5),
                                   math.pi / 2, rtol=1e-10)

    def test_frozen_legendre_value(self):
        got = kernel_mass_h(1.0, 0.0)
        np.testing.assert_allclose(got, 2.3687991130297004, rtol=1e-10)

    # 40-digit mpmath, with cos(phi) - cos(theta) written as a product of sines.
    @pytest.mark.parametrize("alpha,want", [
        (-0.4, 10.564813713917061),
        (0.0, 2.2214414690793220),
        (0.25, 1.4248368919187569),
        (0.75, 0.73495959933121924),
        (2.0, 0.20826013772628189),
    ])
    def test_small_angle_against_mpmath(self, alpha, want):
        """At theta = 1e-6 the gap cos(phi) - cos(theta) must keep its low bits."""
        np.testing.assert_allclose(kernel_mass_h(1e-6, alpha), want, rtol=1e-13)

    def test_against_adaptive(self):
        for theta, alpha in [(0.8, 0.25), (1.4, 0.75), (1.1, 1.5)]:
            def integrand(phi):
                return (math.cos(phi) - math.cos(theta)) ** (alpha - 0.5)
            ref, _ = quad(integrand, 0.0, theta, limit=200)
            ref *= math.sin(theta) ** (-2.0 * alpha)
            np.testing.assert_allclose(kernel_mass_h(theta, alpha), ref,
                                       rtol=1e-8)

    @pytest.mark.parametrize("alpha", [-0.4, 2.0])
    @pytest.mark.parametrize("theta", [0.3, 1.0])
    def test_against_mpmath(self, alpha, theta):
        """30-digit mpmath quad, with phi = theta - s^p and p = 1 / (alpha + 1/2):
        then (theta - phi)^(alpha - 1/2) dphi = p ds, and the integrand left,
        p (sin(theta - u/2) sin(u/2) / (u/2))^(alpha - 1/2) with u = s^p, has
        no end power for the reference to resolve."""
        import mpmath as mp
        with mp.workdps(30):
            a, t = mp.mpf(alpha), mp.mpf(theta)
            p = 1 / (a + 0.5)

            def integrand(s):
                u = s ** p
                return p * (mp.sin(t - u / 2) * mp.sinc(u / 2)) ** (a - 0.5)

            ref = float(mp.sin(t) ** (-2 * a) * mp.quad(integrand, [0, t ** (a + 0.5)]))
        np.testing.assert_allclose(kernel_mass_h(theta, alpha), ref, rtol=1e-12)

    @pytest.mark.parametrize("alpha", [0.25, 0.75])
    def test_bounded_toward_zero(self, alpha):
        """h stays finite and modest down to very small angles."""
        thetas = np.logspace(-4, math.log10(math.pi / 2), 40)
        vals = np.array([kernel_mass_h(t, alpha) for t in thetas])
        assert np.all(np.isfinite(vals))
        assert vals.max() < 10.0

    def test_domain(self):
        with pytest.raises(ValueError):
            kernel_mass_h(2.0, 0.5)   # bounded statement ends at pi/2
        with pytest.raises(ValueError):
            kernel_mass_h(1.0, -0.5)
