"""Verified construction of pi and the trigonometric functions from the
lattice sums eps_k(z) = sum_{n in Z} 1/(z - n)^k.

The double sum f = eps_2 alone determines everything here: its Laurent
coefficients give zeta values and pi^2 = 3 a0; its reciprocal satisfies a
linear second-order equation whose solutions are the circular functions.
Every numeric result carries an explicit error radius, and nothing in the
construction path calls platform trigonometry, exponentials, or pi.

Importing the package loads only the errors.  Every other name of __all__,
and each submodule, is served lazily (PEP 562): the module behind it is
imported at its first use, and the name is then kept in the package's
globals.  So a process imports only the layers it runs.
"""

import importlib

from .errors import (ConfigurationError, EistrigError,
                     InconclusiveNonvanishingError, PoleProximityError,
                     ToleranceUnreachableError, TruncationError)

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

#: the submodule that defines each lazily served name of __all__
_HOMES = {
    "BoundedValue": "precision", "PrecisionContext": "precision",
    "render_poly": "sympoly",
    "combination_first_order": "laurent", "combination_second_order": "laurent",
    "derivative_polynomials": "laurent", "implied_identities": "laurent",
    "series_f": "laurent",
    "coeff_a": "zetasums", "zeta_even": "zetasums",
    "eisenstein_k": "lattice", "naive_symmetric_value": "lattice",
    "strip_decay": "lattice", "symmetric_tail_bound": "lattice",
    "compute_pi": "trig", "cosine": "trig", "evaluator": "trig",
    "pythagoras_residual": "trig", "sine": "trig", "taylor_cosine": "trig",
}

_SUBMODULES = ("cli", "errors", "fixedpoint", "lattice", "laurent", "precision",
               "printing", "sympoly", "trig", "verify", "zetasums")


def __getattr__(name: str):
    if name in _HOMES:
        value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
