"""Exact Hadamard/ene product calculus with a numerical contour cross-check.

Two independent engines:

* a symbolic one working in an exact constants field and the ring
  K[z^(+-1), log z], which evaluates the closed monodromy formulas for
  product singularities, and
* a numerical one that measures the same monodromies by deforming
  convolution contours and tracking branches, consulting no formula.

The oracle (`continuation`) needs numpy; the exact modules do not.  Its names
(the elements, paths and measurements) and the comparison of the two engines
(`crosscheck`, `OracleReport`, in `checks`) are served here on first use (PEP
562), each from the module `_LAZY_NAMES` gives, so `import hadene` and the
exact CLI commands load neither; `verify` loads both, `selftest` the oracle.

See README.md for a tour; the examples live under demos/.
"""

from .coeffs import ConstantSymbol, ExactCoeff, GaussianRational
from .logpoly import BranchPoint, LogLaurentPoly, integrate_u
from .monodromy import (
    Divisor,
    FunctionSpec,
    GermPart,
    MonodromyResult,
    Singularity,
    divisor_ene,
    ene_monodromy_general,
    hadamard_monodromy_general,
    polylog_function_spec,
    polylog_monodromy,
    product_set,
)
from .series import (
    TruncatedSeries,
    ene,
    ene_exp,
    eval_series,
    exp_series,
    hadamard,
    koebe,
    log_series,
    poly_from_roots,
    polylog_series,
)

__version__ = "0.1.0"

_LAZY_NAMES = dict.fromkeys((
    "AnalyticElement", "Arc", "ContourSpec", "Line", "LogBranchElement", "PolylogElement",
    "RationalElement", "SeriesElement", "SumElement", "build_traintrack", "continue_along",
    "ene_pincherle_eval", "monodromy_numeric", "pincherle_eval",
), "continuation") | {"OracleReport": "checks", "crosscheck": "checks"}


def __getattr__(name: str):
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_NAMES))
