"""Empirical harness for coefficient decay in Jacobi and Laguerre expansions.

Normalized Jacobi polynomials evaluated two independent ways (three-term
recurrence and cosine-kernel integrals), weighted Gauss rules with absorbed
endpoint singularities, Fourier coefficient series with decay/growth slope
fits, the Laguerre analogue on the half-line, and the continuous transform
with its uniform envelope.
"""

from .errors import AccuracyError
from .specfun import (
    JacobiParams,
    PolyValue,
    jacobi_p,
    jacobi_p_one,
    jacobi_r,
    jacobi_r_table,
    laguerre_l,
    laguerre_r,
    laguerre_r_table,
    hyp2f1,
    h_normalizer_table,
)
from .quadrature import (
    QuadratureRule,
    gauss_jacobi_rule,
    gauss_legendre_rule,
    gauss_laguerre_rule,
    mapped_jacobi_rule,
    converge_doubling,
)
from .series import (
    StepFunction,
    PowerWeight,
    CosinePoly,
    GridSampled,
    CoefficientSeries,
    DecayReport,
    ParsevalReport,
    CounterexampleReport,
    coefficient,
    coefficient_series,
    norm_l,
    synthesize,
    parseval_check,
    decay_fit,
    decade_max,
    counterexample_slope,
    sup_norm_r,
    sup_norm_slope,
)
from .mehler import mehler_r, mehler_limit_r, kernel_mass_h
from .laguerre import (
    LaguerreStep,
    LaguerreExpDamped,
    HalfLineGrid,
    laguerre_coefficient,
    laguerre_coefficient_series,
    laguerre_norm,
    step_identity_check,
    laguerre_bound_profile,
    laguerre_decay,
)
from .jtransform import (
    Indicator,
    jacobi_function,
    transform,
    transform_sweep,
    EnvelopeReport,
    envelope_check,
)
from .selftest import CriterionResult, run_all

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "JacobiParams",
    "PolyValue",
    "jacobi_p",
    "jacobi_p_one",
    "jacobi_r",
    "jacobi_r_table",
    "laguerre_l",
    "laguerre_r",
    "laguerre_r_table",
    "hyp2f1",
    "h_normalizer_table",
    "QuadratureRule",
    "gauss_jacobi_rule",
    "gauss_legendre_rule",
    "gauss_laguerre_rule",
    "mapped_jacobi_rule",
    "converge_doubling",
    "StepFunction",
    "PowerWeight",
    "CosinePoly",
    "GridSampled",
    "CoefficientSeries",
    "DecayReport",
    "ParsevalReport",
    "CounterexampleReport",
    "coefficient",
    "coefficient_series",
    "norm_l",
    "synthesize",
    "parseval_check",
    "decay_fit",
    "decade_max",
    "counterexample_slope",
    "sup_norm_r",
    "sup_norm_slope",
    "mehler_r",
    "mehler_limit_r",
    "kernel_mass_h",
    "LaguerreStep",
    "LaguerreExpDamped",
    "HalfLineGrid",
    "laguerre_coefficient",
    "laguerre_coefficient_series",
    "laguerre_norm",
    "step_identity_check",
    "laguerre_bound_profile",
    "laguerre_decay",
    "Indicator",
    "jacobi_function",
    "transform",
    "transform_sweep",
    "EnvelopeReport",
    "envelope_check",
    "CriterionResult",
    "run_all",
]
