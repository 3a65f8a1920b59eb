"""Exact Hadamard/ene product calculus with a numerical contour cross-check.

Two independent engines:

* a symbolic one working in an exact constants field and the ring
  K[z^(+-1), log z], which evaluates the closed monodromy formulas for
  product singularities, and
* a numerical one that measures the same monodromies by deforming
  convolution contours and tracking branches, consulting no formula.

The oracle (`continuation`) needs numpy; the exact modules do not.  Its names
(the elements, paths and measurements in `_ORACLE_NAMES`) are served here on
first use (PEP 562), so `import hadene` and the exact CLI commands start
without numpy; only measuring (`verify`, `selftest`) loads it.  The comparison
of the two engines (`crosscheck`, `OracleReport`) lives in `checks`, which
loads no numpy, and is imported eagerly.

See README.md for a tour; the examples live under demos/.
"""

from .checks import OracleReport, crosscheck
from .coeffs import ConstantSymbol, ExactCoeff, GaussianRational
from .logpoly import BiLogPoly, BranchPoint, LogLaurentPoly, integrate_u, lp_eval
from .monodromy import (
    Divisor,
    FunctionSpec,
    GermPart,
    MonodromyResult,
    Singularity,
    divisor_ene,
    ene_monodromy_general,
    ene_monodromy_total,
    ene_symmetry_check,
    hadamard_monodromy_general,
    hadamard_monodromy_total,
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

_ORACLE_NAMES = frozenset({
    "AnalyticElement", "Arc", "ContourSpec", "Line", "LogBranchElement", "PolylogElement",
    "RationalElement", "SeriesElement", "SumElement", "build_traintrack", "continue_along",
    "ene_pincherle_eval", "monodromy_numeric", "pincherle_eval",
})


def __getattr__(name: str):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import continuation

    value = globals()[name] = getattr(continuation, name)
    return value


def __dir__():
    return sorted(set(globals()) | _ORACLE_NAMES)
