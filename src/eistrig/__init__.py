"""Verified construction of pi and the trigonometric functions from the
lattice sums eps_k(z) = sum_{n in Z} 1/(z - n)^k.

The double sum f = eps_2 alone determines everything here: its Laurent
coefficients give zeta values and pi^2 = 3 a0; its reciprocal satisfies a
linear second-order equation whose solutions are the circular functions.
Every numeric result carries an explicit error radius, and nothing in the
construction path calls platform trigonometry, exponentials, or pi.
"""

from .errors import (ConfigurationError, EistrigError,
                     InconclusiveNonvanishingError, PoleProximityError,
                     ToleranceUnreachableError, TruncationError)
from .precision import BoundedValue, PrecisionContext
from .sympoly import render_poly
from .laurent import (combination_first_order, combination_second_order,
                      derivative_polynomials, implied_identities, series_f)
from .zetasums import coeff_a, zeta_even
from .lattice import (eisenstein_k, naive_symmetric_value, strip_decay,
                      symmetric_tail_bound)
from .trig import (compute_pi, cosine, evaluator, pythagoras_residual, sine,
                   taylor_cosine)

__version__ = "0.1.0"

__all__ = [
    "BoundedValue", "ConfigurationError", "EistrigError",
    "InconclusiveNonvanishingError", "PoleProximityError", "PrecisionContext",
    "ToleranceUnreachableError", "TruncationError", "coeff_a",
    "combination_first_order", "combination_second_order", "compute_pi",
    "cosine", "derivative_polynomials", "eisenstein_k", "evaluator",
    "implied_identities", "naive_symmetric_value", "pythagoras_residual",
    "render_poly", "series_f", "sine", "strip_decay", "symmetric_tail_bound",
    "taylor_cosine", "zeta_even",
]
