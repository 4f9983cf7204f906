"""Acceptance battery: one test per shipped criterion, at full settings.

Each test prints its own PASS/FAIL line (run pytest with -s or -v plus
--capture=no to see them stream) and fails with the measured detail, so a
red run says exactly which guarantee broke and by how much.
"""

import pytest

from fourierjacobi import selftest


def _run(check):
    result = check()
    mark = "PASS" if result.passed else "FAIL"
    print(f"{mark} {result.name} ({result.seconds:.1f}s): {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_orthonormality():
    """Discrete Gram matrix of the normalized family matches diag(1/h_k)."""
    _run(selftest.check_orthonormality)


def test_mehler_pathways():
    """Both integral representations reproduce the recurrence values."""
    _run(selftest.check_mehler_pathways)


def test_singular_form_near_rounding():
    """The singular form takes its rule in phi, so no node map rounds it."""
    assert selftest.mehler_pathway_discrepancies(50)[0] <= 1.5e-13


def test_riemann_lebesgue_dichotomy():
    """Coefficients of integrable profiles die out; growth appears only
    outside the bounded region."""
    _run(selftest.check_decay_dichotomy)


def test_counterexample_exponent():
    """Power-weight coefficients grow at the predicted algebraic rate."""
    _run(selftest.check_counterexample_exponent)


def test_right_region_bound():
    """Sup over the right half interval decays at the expected rate."""
    _run(selftest.check_right_region_slope)


def test_unnormalized_rate():
    """Unnormalized coefficients of a step fall faster than k^alpha."""
    _run(selftest.check_unnormalized_rate)


def test_laguerre():
    """Half-line expansion: step identity, damped bound, step decay."""
    _run(selftest.check_laguerre)


def test_transform():
    """Continuous transform: cosine reduction, envelope, high-tau falloff."""
    _run(selftest.check_transform)


def test_fit_sanity():
    """The slope fitter recovers an exact power law to many digits."""
    _run(selftest.check_fit_sanity)


def test_battery_is_complete():
    """Every registered criterion has a dedicated test in this module."""
    import sys
    module = sys.modules[__name__]
    for name, _ in selftest.CRITERIA:
        func = "test_" + name.replace("-", "_")
        assert hasattr(module, func), f"missing acceptance test for {name}"


def test_unknown_criterion_is_refused():
    """A misspelt --only name is a usage error naming it and every criterion,
    not an empty run that passes."""
    with pytest.raises(ValueError, match="not a criterion: nosuch") as exc:
        selftest.run_all(["fit-sanity", "nosuch"])
    for name, _ in selftest.CRITERIA:
        assert name in str(exc.value)
