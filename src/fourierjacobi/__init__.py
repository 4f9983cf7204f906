"""Empirical harness for coefficient decay in Jacobi and Laguerre expansions.

Normalized Jacobi polynomials evaluated two independent ways (three-term
recurrence and cosine-kernel integrals), weighted Gauss rules with absorbed
endpoint singularities, Fourier coefficient series with decay/growth slope
fits, the Laguerre analogue on the half-line, and the continuous transform
with its uniform envelope.

The package exports what its modules list in their __all__, in module
order.  Return types (PolyValue, ParsevalReport, CounterexampleReport,
EnvelopeReport, CriterionResult) are not listed: import them from their
modules.
"""

from . import errors, specfun, quadrature, series, mehler, laguerre, jtransform, selftest
from .errors import *
from .specfun import *
from .quadrature import *
from .series import *
from .mehler import *
from .laguerre import *
from .jtransform import *
from .selftest import *

__version__ = "0.1.0"

__all__ = [name for module in (errors, specfun, quadrature, series, mehler, laguerre,
                               jtransform, selftest) for name in module.__all__]
