"""The half-line function specs, shared by the Laguerre series and the transform.

Every spec goes through every consumer and is checked against SciPy quad;
the four piecewise specs share one knot check; the package exports each
public name from exactly one module, and each public function's parameters
are pinned.
"""

import importlib
import inspect
import math

import numpy as np
import pytest
from scipy.integrate import quad

import fourierjacobi
from fourierjacobi import (
    HalfLineGrid,
    Indicator,
    JacobiParams,
    LaguerreExpDamped,
    LaguerreStep,
    GridSampled,
    StepFunction,
    jacobi_function,
    laguerre_coefficient_series,
    laguerre_norm,
    laguerre_r,
    transform,
    transform_sweep,
)
from fourierjacobi.jtransform import _log_weight, _transform_prefactor

# spec, its breakpoints, the end of its support
SPECS = {
    "step": (LaguerreStep((1.0, 2.5), (2.0, -1.0)), [1.0], 2.5),
    "indicator": (Indicator(1.0, 2.0), [1.0], 2.0),
    "damped": (LaguerreExpDamped((1.0, 0.5), 4.0), [], math.inf),
    "grid": (HalfLineGrid((0.5, 1.5, 2.5), (0.0, 2.0, -1.0)), [0.5, 1.5, 1.5 + 2.0 / 3.0],
             2.5),
}
ALPHA = 0.5
PARAMS = JacobiParams(0.5, 0.0)   # 2 (alpha + beta + 1) = 3 < 4, the damped rate


def adaptive(g, points, end):
    if end == math.inf:
        return quad(g, 0.0, math.inf, limit=400, epsabs=0.0, epsrel=1e-12)[0]
    return quad(g, 0.0, end, points=points, limit=400, epsabs=0.0, epsrel=1e-12)[0]


def check_coefficients(f, points, end):
    got = laguerre_coefficient_series(f, 8, ALPHA)
    for k in (0, 3, 8):
        ref = adaptive(lambda x: f(x) * laguerre_r(k, ALPHA, x) * x ** ALPHA * math.exp(-x),
                       points, end)
        np.testing.assert_allclose(got[k], ref, rtol=1e-9, atol=1e-12)


def check_norm(f, points, end):
    ref = adaptive(lambda x: abs(f(x)) * x ** ALPHA * math.exp(-x / 2.0), points, end)
    np.testing.assert_allclose(laguerre_norm(f, ALPHA), ref, rtol=1e-9)


def check_transform(f, points, end):
    tau = 1.5
    end = min(end, 40.0)   # the damped integrand is below e^(-100) past 40

    def integrand(t):
        return f(t) * jacobi_function(tau, t, PARAMS) * math.exp(_log_weight(t, PARAMS))

    ref = quad(integrand, 0.0, end, points=points or None, limit=400)[0]
    np.testing.assert_allclose(transform(f, tau, PARAMS),
                               _transform_prefactor(PARAMS) * ref, rtol=1e-7)


@pytest.mark.parametrize("consumer", [check_coefficients, check_norm, check_transform],
                         ids=["coefficients", "norm", "transform"])
@pytest.mark.parametrize("name", list(SPECS))
def test_every_spec_in_every_consumer(name, consumer):
    consumer(*SPECS[name])


def test_indicator_is_the_two_value_step():
    """Indicator(a, b) is the step 0 on [0, a), 1 on [a, b): open at b."""
    taus = np.linspace(0.0, 60.0, 25)
    for a, b in [(1.0, 2.0), (0.3, 0.9)]:
        ind, step = Indicator(a, b), LaguerreStep((a, b), (0.0, 1.0))
        assert (ind(a), ind(b)) == (1.0, 0.0)
        got = transform_sweep(ind, taus, JacobiParams(0.3, -0.4))
        want = transform_sweep(step, taus, JacobiParams(0.3, -0.4))
        assert got.tobytes() == want.tobytes()


def test_every_export_has_one_owner():
    """Each name in fourierjacobi.__all__ is listed by exactly one submodule
    and is that submodule's object.  The package list is the module lists
    in order, and leaves out the return types, which stay at their modules."""
    names = ("errors", "specfun", "quadrature", "series", "mehler", "laguerre",
             "jtransform", "selftest", "cli")
    modules = [importlib.import_module(f"fourierjacobi.{n}") for n in names]
    assert len(set(fourierjacobi.__all__)) == len(fourierjacobi.__all__)
    for name in fourierjacobi.__all__:
        owners = [m for m in modules if name in m.__all__]
        assert len(owners) == 1, (name, [m.__name__ for m in owners])
        assert getattr(fourierjacobi, name) is getattr(owners[0], name)
    assert fourierjacobi.__all__ == [n for m in modules[:-1] for n in m.__all__]
    assert len(fourierjacobi.__all__) == 51
    for module, name in [("specfun", "PolyValue"), ("series", "ParsevalReport"),
                         ("series", "CounterexampleReport"),
                         ("jtransform", "EnvelopeReport"), ("selftest", "CriterionResult")]:
        assert name not in fourierjacobi.__all__
        assert getattr(getattr(fourierjacobi, module), name).__module__ == \
            f"fourierjacobi.{module}"


# The parameter names of every public function, in order: a knob added to or
# taken from the public surface shows up here.
PUBLIC_PARAMETERS = {
    "jacobi_p": ("k", "params", "x"),
    "jacobi_r": ("k", "params", "x"),
    "jacobi_p_one": ("k", "params"),
    "jacobi_r_table": ("kmax", "params", "x"),
    "laguerre_l": ("k", "alpha", "x"),
    "laguerre_r": ("k", "alpha", "x"),
    "laguerre_r_table": ("kmax", "alpha", "x"),
    "hyp2f1": ("a", "b", "c", "z"),
    "h_normalizer_table": ("kmax", "params"),
    "gauss_jacobi_rule": ("n", "alpha", "beta"),
    "gauss_laguerre_rule": ("n", "alpha"),
    "gauss_legendre_rule": ("n",),
    "mapped_jacobi_rule": ("n", "alpha", "beta", "lo", "hi"),
    "converge_doubling": ("evaluate", "n0", "rtol", "nmax"),
    "coefficient": ("f", "k", "params", "rtol"),
    "coefficient_series": ("f", "kmax", "params", "normalization", "rtol"),
    "norm_l": ("f", "params"),
    "synthesize": ("series", "theta"),
    "parseval_check": ("f", "params", "kmax"),
    "decay_fit": ("series",),
    "counterexample_slope": ("params", "rho", "kmax"),
    "sup_norm_r": ("k", "params", "region"),
    "sup_norm_slope": ("params", "region"),
    "decade_max": ("values", "lo", "hi"),
    "mehler_r": ("k", "params", "theta", "rtol"),
    "mehler_limit_r": ("k", "beta", "theta", "rtol"),
    "kernel_mass_h": ("theta", "alpha"),
    "laguerre_coefficient": ("f", "k", "alpha"),
    "laguerre_coefficient_series": ("f", "kmax", "alpha"),
    "laguerre_norm": ("f", "alpha"),
    "step_identity_check": ("a", "k", "alpha"),
    "laguerre_bound_profile": ("kmax", "alpha"),
    "laguerre_decay": ("f", "kmax", "alpha"),
    "Indicator": ("a", "b"),
    "jacobi_function": ("tau", "t", "params", "rtol"),
    "transform": ("f", "tau", "params", "rtol"),
    "transform_sweep": ("f", "taus", "params", "rtol"),
    "envelope_check": ("params", "t_grid", "tau_grid"),
    "run_all": ("names",),
}


def test_every_public_function_has_its_pinned_parameters():
    functions = {name: getattr(fourierjacobi, name) for name in fourierjacobi.__all__
                 if inspect.isfunction(getattr(fourierjacobi, name))}
    assert {name: tuple(inspect.signature(f).parameters)
            for name, f in functions.items()} == PUBLIC_PARAMETERS


# each piecewise spec, and how many more values than knots it takes
PIECEWISE = {"StepFunction": (StepFunction, 1), "GridSampled": (GridSampled, 0),
             "LaguerreStep": (LaguerreStep, 0), "HalfLineGrid": (HalfLineGrid, 0)}


@pytest.mark.parametrize("knots, more, match", [
    ((math.nan, 2.0), 0, "finite"),
    ((-1.0, 2.0), 0, "increase strictly inside"),
    ((0.0, 2.0), 0, "increase strictly inside"),
    ((1.0, 1.0), 0, "increase strictly inside"),
    ((1.0, 2.0), 1, "values: need"),
], ids=["nan", "out-of-domain", "at-zero", "repeated", "length-mismatch"])
@pytest.mark.parametrize("name", list(PIECEWISE))
def test_every_piecewise_spec_checks_its_knots(name, knots, more, match):
    """One knot check for the four piecewise specs: finite numbers, knots
    strictly increasing inside the open domain ((0, pi) or (0, inf)), and
    the right number of values."""
    spec, extra = PIECEWISE[name]
    spec((1.0, 2.0), (1.0,) * (2 + extra))
    with pytest.raises(ValueError, match=match):
        spec(knots, (1.0,) * (len(knots) + extra + more))
