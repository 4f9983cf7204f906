"""Acceptance checks: every headline property of the library in one runner.

Each criterion function is self-contained, returns a CriterionResult, and is
safe to run in any order.  The same battery backs `fourierjacobi selftest`
and the acceptance test module, so pass/fail always means the same thing in
both places.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .specfun import JacobiParams, jacobi_r_table, h_normalizer_table
from .quadrature import gauss_jacobi_rule
from .series import (
    StepFunction,
    PowerWeight,
    CosinePoly,
    CoefficientSeries,
    coefficient_series,
    decay_fit,
    decade_max,
    counterexample_slope,
    sup_norm_slope,
    _converged_values,
    _pieces,
)
from .mehler import mehler_r, mehler_limit_r
from .laguerre import (
    LaguerreStep,
    laguerre_coefficient_series,
    laguerre_bound_profile,
    step_identity_check,
)
from .jtransform import Indicator, transform, transform_sweep, envelope_check

__all__ = ["CriterionResult", "CRITERIA", "run_all"]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(name, t0, passed, detail, budget):
    elapsed = time.perf_counter() - t0
    if elapsed >= budget:
        passed = False
        detail += f"; over time budget ({elapsed:.1f}s >= {budget}s)"
    return CriterionResult(name, passed, detail, elapsed)


def check_orthonormality() -> CriterionResult:
    """<R_j, R_k> against delta_jk / h_k for four parameter pairs."""
    t0 = time.perf_counter()
    worst = 0.0
    for a, b in [(-0.5, -0.5), (0.0, 0.0), (0.5, -0.25), (2.0, 1.0)]:
        params = JacobiParams(a, b)
        rule = gauss_jacobi_rule(128, a, b)
        tab = jacobi_r_table(50, params, rule.nodes)
        gram = 2.0 ** (-a - b - 1.0) * ((tab * rule.weights) @ tab.T)
        target = np.diag(1.0 / h_normalizer_table(50, params))
        worst = max(worst, float(np.max(np.abs(gram - target))))
    return _result("orthonormality", t0, worst <= 1e-10,
                   f"max Gram deviation {worst:.3e} (tol 1e-10)", budget=0.15)


def mehler_pathway_discrepancies(kmax: int) -> tuple[float, float]:
    """Worst relative gaps between the integral pathways and the recurrence.

    Sweeps k <= kmax over a fixed grid of angles and parameter pairs and
    returns (singular form, limit form).
    """
    def worst(params, pathway) -> float:
        out = 0.0
        for theta in (0.3, 1.0, math.pi / 2, 2.2, 2.9):
            ref = jacobi_r_table(kmax, params,
                                 np.array([math.cos(theta)]))[:, 0]
            for k in range(kmax + 1):
                got = pathway(k, params, theta).value
                out = max(out, abs(got - ref[k]) / max(1.0, abs(ref[k])))
        return out

    singular = max(worst(JacobiParams(a, b), mehler_r)
                   for a in (0.0, 0.5, 1.5) for b in (-0.5, 0.0, 0.75))
    limit = max(worst(JacobiParams(-0.5, b),
                      lambda k, p, theta: mehler_limit_r(k, p.beta, theta))
                for b in (-0.75, -0.9))
    return singular, limit


def check_mehler_pathways() -> CriterionResult:
    """Integral-representation values against the recurrence, both formulas."""
    t0 = time.perf_counter()
    worst, worst_lim = mehler_pathway_discrepancies(50)
    ok = worst <= 1e-8 and worst_lim <= 1e-8
    return _result("mehler-pathways", t0, ok,
                   f"max discrepancy {worst:.3e} (singular form), "
                   f"{worst_lim:.3e} (limit form); tol 1e-8", budget=2.0)


def closed_form_gap(f, params: JacobiParams, kmax: int = 256) -> float:
    """Worst gap between the closed-form series of f and its quadrature series,
    relative to max(1, max|hat|): the second pathway keeps the evidence
    independent of the closed form."""
    exact = coefficient_series(f, kmax, params).values
    quad = _converged_values(_pieces(f, params), params, kmax)
    return float(np.max(np.abs(exact - quad))) / max(1.0, float(np.max(np.abs(exact))))


def check_decay_dichotomy() -> CriterionResult:
    """Coefficient tails shrink inside S; sup|R_k| grows outside."""
    t0 = time.perf_counter()
    step = StepFunction((math.pi / 3, math.pi / 2), (0.0, 1.0, 0.0))
    cospoly = CosinePoly(tuple(1.0 / (m + 1.0) for m in range(25)))
    pairs = [(-0.5, -0.5), (0.0, 0.0), (0.5, -0.25), (2.0, 1.0)]
    parts = []
    ok = True
    for f, label in [(step, "step"), (cospoly, "cospoly")]:
        worst_ratio = 0.0
        for a, b in pairs:
            series = coefficient_series(f, 1024, JacobiParams(a, b))
            low = decade_max(series.values, 16, 32)
            high = decade_max(series.values, 512, 1024)
            worst_ratio = max(worst_ratio, high / low)
        ok = ok and worst_ratio < 0.2
        parts.append(f"{label} worst tail/low ratio {worst_ratio:.3e}")
    gap = max(closed_form_gap(step, JacobiParams(a, b)) for a, b in pairs)
    ok = ok and gap <= 1e-9
    parts.append(f"step closed form vs quadrature {gap:.3e} of scale (tol 1e-9)")
    rep = sup_norm_slope(JacobiParams(-0.75, -0.75), region="full")
    ok = ok and abs(rep.slope - 0.25) <= 0.05
    parts.append(f"(-0.75,-0.75) growth slope {rep.slope:.4f} (want 0.25±0.05)")
    return _result("riemann-lebesgue-dichotomy", t0, ok, "; ".join(parts),
                   budget=5.0)


def check_counterexample_exponent() -> CriterionResult:
    """Fitted power-weight exponents, plus growth in the divergence regime."""
    t0 = time.perf_counter()
    parts = []
    ok = True
    for a, b, rho in [(0.0, -0.5, -0.3), (0.5, 0.0, -0.6), (1.0, 0.25, -0.9)]:
        rep = counterexample_slope(JacobiParams(a, b), rho, kmax=1024)
        gap = abs(rep.fit.slope - rep.predicted_slope)
        ok = ok and gap <= 0.05
        parts.append(f"({a},{b},{rho}) fitted {rep.fit.slope:.4f} vs "
                     f"{rep.predicted_slope:.2f}")
    rep = counterexample_slope(JacobiParams(-0.9, 0.0), -0.8, kmax=1024)
    rising = all(m1 > m0 for m0, m1 in zip(rep.decade_maxima,
                                           rep.decade_maxima[1:]))
    ok = ok and rep.divergence_regime and rising
    parts.append("divergence regime decade maxima "
                 + " < ".join(f"{m:.3g}" for m in rep.decade_maxima))
    gap = max(closed_form_gap(PowerWeight(rho), JacobiParams(a, b))
              for a, b, rho in [(0.0, -0.5, -0.3), (0.5, 0.0, -0.6),
                                (1.0, 0.25, -0.9), (-0.9, 0.0, -0.8)])
    ok = ok and gap <= 1e-9
    parts.append(f"closed form vs quadrature {gap:.3e} of scale (tol 1e-9)")
    return _result("counterexample-exponent", t0, ok, "; ".join(parts), budget=10.0)


def check_right_region_slope() -> CriterionResult:
    """Operator-norm decay over [pi/2, pi] matches max{beta,-1/2} - alpha."""
    t0 = time.perf_counter()
    parts = []
    ok = True
    for a, b in [(0.5, -0.25), (1.0, 0.0)]:
        want = max(b, -0.5) - a
        rep = sup_norm_slope(JacobiParams(a, b), region="right")
        ok = ok and abs(rep.slope - want) <= 0.1
        parts.append(f"({a},{b}) slope {rep.slope:.4f} (want {want}±0.1)")
    return _result("right-region-bound", t0, ok, "; ".join(parts), budget=1.0)


def check_unnormalized_rate() -> CriterionResult:
    """Unnormalized coefficients are o(k^alpha): scaled decade ratio < 0.2."""
    t0 = time.perf_counter()
    step = StepFunction((math.pi / 3, math.pi / 2), (0.0, 1.0, 0.0))
    series = coefficient_series(step, 1024, JacobiParams(1.0, -0.5),
                                normalization="unnormalized")
    scaled = np.abs(series.values) / (np.arange(1025) + 1.0)
    ratio = decade_max(scaled, 512, 1024) / decade_max(scaled, 16, 32)
    return _result("unnormalized-rate", t0, ratio < 0.2,
                   f"scaled decade ratio {ratio:.3e} (tol 0.2)", budget=1.0)


def check_laguerre() -> CriterionResult:
    """Step identity, uniform bound, and coefficient decay on the half-line."""
    t0 = time.perf_counter()
    worst_id = 0.0
    for alpha in (0.0, 0.5, 2.0):
        for a in (0.5, 1.0, 2.5, 10.0):
            for k in range(1, 51):
                lhs, rhs = step_identity_check(a, k, alpha)
                worst_id = max(worst_id, abs(lhs - rhs) / max(1.0, abs(rhs)))
    worst_bound = 0.0
    for alpha in (0.0, 1.0, 3.7):
        prof = laguerre_bound_profile(200, alpha)
        worst_bound = max(worst_bound, float(np.max(prof)))
    vals = laguerre_coefficient_series(LaguerreStep((1.0,), (1.0,)), 512, 1.0)
    ratio = decade_max(np.abs(vals), 256, 512) / decade_max(np.abs(vals), 16, 32)
    ok = worst_id <= 1e-10 and worst_bound <= 1.0 + 1e-10 and ratio < 0.2
    return _result("laguerre", t0, ok,
                   f"identity deviation {worst_id:.3e} (tol 1e-10); "
                   f"bound max {worst_bound:.12f} (tol 1+1e-10); "
                   f"step decade ratio {ratio:.3e} (tol 0.2)", budget=4.0)


def check_transform() -> CriterionResult:
    """Cosine reduction, the (1+t)e^(-rho t) envelope, and high-tau decay."""
    t0 = time.perf_counter()
    cos_params = JacobiParams(-0.5, -0.5)
    ind = Indicator(1.0, 2.0)
    pref = math.sqrt(2.0 / math.pi)
    worst = abs(transform(ind, 0.0, cos_params) - pref * 1.0)
    for tau in (0.5, 1.0, 5.0, 20.0):
        ref = pref * (math.sin(2.0 * tau) - math.sin(tau)) / tau
        got = transform(ind, tau, cos_params)
        worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    parts = [f"cosine reduction deviation {worst:.3e} (tol 1e-9)"]
    ok = worst <= 1e-9
    for a, b in [(0.5, 0.0), (-0.5, 0.25)]:
        rep = envelope_check(JacobiParams(a, b))
        ok = ok and rep.verified
        parts.append(f"({a},{b}) C*={rep.c_star:.4f} "
                     f"{'verified' if rep.verified else 'VIOLATED'} "
                     f"(worst ratio {rep.worst_ratio:.4f})")
    p = JacobiParams(0.5, 0.0)
    low = transform_sweep(ind, np.linspace(5.0, 10.0, 21), p)
    high = transform_sweep(ind, np.linspace(200.0, 400.0, 41), p)
    ratio = float(np.max(np.abs(high)) / np.max(np.abs(low)))
    ok = ok and ratio < 0.2
    parts.append(f"high/low frequency ratio {ratio:.3e} (tol 0.2)")
    return _result("transform", t0, ok, "; ".join(parts), budget=8.0)


def check_fit_sanity() -> CriterionResult:
    """The slope fitter recovers an exact power law to fit-noise precision."""
    t0 = time.perf_counter()
    values = (np.arange(1025) + 1.0) ** -2.0
    series = CoefficientSeries(JacobiParams(0.0, 0.0), 1024, values)
    rep = decay_fit(series)
    ok = abs(rep.slope + 2.0) <= 1e-6 and rep.r_squared >= 1.0 - 1e-9
    return _result("fit-sanity", t0, ok,
                   f"slope {rep.slope:.10f}, r^2 {rep.r_squared:.12f}", budget=1.0)


CRITERIA = [
    ("orthonormality", check_orthonormality),
    ("mehler-pathways", check_mehler_pathways),
    ("riemann-lebesgue-dichotomy", check_decay_dichotomy),
    ("counterexample-exponent", check_counterexample_exponent),
    ("right-region-bound", check_right_region_slope),
    ("unnormalized-rate", check_unnormalized_rate),
    ("laguerre", check_laguerre),
    ("transform", check_transform),
    ("fit-sanity", check_fit_sanity),
]


def run_all(names: list[str] | None = None) -> list[CriterionResult]:
    """Run the acceptance battery (or a named subset), in declaration order."""
    wanted = set(names) if names else None
    results = []
    for name, fn in CRITERIA:
        if wanted is not None and name not in wanted:
            continue
        results.append(fn())
    return results
