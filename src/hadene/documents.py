"""Versioned document formats for series, functions, divisors, and results.

Everything is JSON with a `format: 1` field.  Exact values are strings:
Gaussian rationals as "p/q+r/si", constant-symbol monomials as key -> exponent
maps, so round trips are lossless.  Complex doubles serialize as [re, im]
pairs.
"""

from __future__ import annotations

import cmath
import json
from typing import TYPE_CHECKING, Any

from .coeffs import (
    GR_ZERO,
    MAX_EXPONENT,
    ExactCoeff,
    _make_monomial,
    parse_gaussian_rational,
    parse_rational,
    parse_symbol,
)
from .logpoly import LogLaurentPoly
from .monodromy import Divisor, FunctionSpec, GermPart, MonodromyResult, Singularity
from .series import FIELD_COMPLEX, FIELD_RATIONAL, TruncatedSeries

if TYPE_CHECKING:  # the oracle (and numpy) loads only where an element is read or written
    from .checks import OracleReport
    from .continuation import AnalyticElement

FORMAT_VERSION = 1
# Largest |zpow| and logpow a log-polynomial record may carry.  The exact
# engine raises locations to the power zpow, and its time and memory on one
# pair of singularities grow as the cube of their log powers.
MAX_ZPOW = 10 ** 6
MAX_LOGPOW = 1024
# Largest weight k of a polylog element.  The oracle's work per node grows with
# k: `verify` of Li_256 x Li_256 at one sample takes 1.6-2.5 s on a 2-vCPU
# host, Li_512 x Li_512 takes 3-4 s, and k = 100000 runs past a minute.
MAX_POLYLOG_K = 256
# Deepest nesting of sum element records.  The oracle walks a sum's parts
# recursively, so a deep enough sum exhausts Python's recursion limit: a verify
# of Li_1 wrapped in 450 single-part sums did.
MAX_ELEMENT_DEPTH = 64


class DocumentError(ValueError):
    """Malformed or unsupported document."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DocumentError(message)


def _integer(value: Any, what: str, bound: int | None = None) -> int:
    """A JSON integer (not a bool, float or string), at most `bound` in magnitude."""
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{what} must be an integer, not {value!r}")
    _require(bound is None or abs(value) <= bound, f"{what} {value} exceeds {bound} in magnitude")
    return value


def _complex_to_doc(value: complex) -> list[float]:
    return [value.real, value.imag]


def _complex_from_doc(pair: Any, what: str) -> complex:
    """A [re, im] pair of exactly two finite JSON numbers (not bools)."""
    _require(isinstance(pair, list) and len(pair) == 2
             and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair),
             f"{what} must be a pair of two numbers, not {pair!r}")
    try:
        value = complex(pair[0], pair[1])
    except OverflowError:  # an integer past a double's range
        value = cmath.inf
    _require(cmath.isfinite(value), f"{what} is not finite: {pair!r}")
    return value


def _check_header(doc: Any, kind: str) -> None:
    _require(isinstance(doc, dict), "document must be a JSON object")
    _require(doc.get("format") == FORMAT_VERSION, f"unsupported format {doc.get('format')!r}")
    _require(doc.get("kind") == kind, f"expected kind {kind!r}, got {doc.get('kind')!r}")


# --- exact coefficients -----------------------------------------------------------


def exact_coeff_to_doc(value: ExactCoeff) -> list[dict]:
    out = []
    for mono, coeff in value.sorted_terms():
        out.append({
            "coeff": str(coeff),
            "symbols": {sym.key: exp for sym, exp in mono},
        })
    return out


def _add_exact_terms(terms: dict, doc: Any) -> dict:
    """terms[monomial] += coeff for each term record of an exact coefficient document."""
    _require(isinstance(doc, list), "exact coefficient must be a list of term records")
    for record in doc:
        _require(isinstance(record, dict), "term record must be an object")
        symbols = record.get("symbols", {})
        _require(isinstance(symbols, dict), "term symbols must be an object of exponents")
        try:
            coeff = parse_gaussian_rational(record["coeff"])
            powers = {parse_symbol(k): _integer(e, f"exponent of {k}", MAX_EXPONENT) for k, e in symbols.items()}
        except (KeyError, ValueError) as exc:
            raise DocumentError(f"bad exact coefficient record: {exc}") from exc
        mono = _make_monomial(powers)
        terms[mono] = terms.get(mono, GR_ZERO) + coeff
    return terms


def exact_coeff_from_doc(doc: Any) -> ExactCoeff:
    return ExactCoeff(_add_exact_terms({}, doc))


def log_poly_to_doc(p: LogLaurentPoly) -> list[dict]:
    return [
        {"zpow": zpow, "logpow": logpow, "coeff": exact_coeff_to_doc(coeff)}
        for (zpow, logpow), coeff in p.sorted_terms()
    ]


def log_poly_from_doc(doc: Any) -> LogLaurentPoly:
    _require(isinstance(doc, list), "log polynomial must be a list of term records")
    terms: dict = {}
    for record in doc:
        try:
            key = (_integer(record["zpow"], "zpow", MAX_ZPOW), _integer(record["logpow"], "logpow", MAX_LOGPOW))
            _add_exact_terms(terms.setdefault(key, {}), record["coeff"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DocumentError(f"bad log-polynomial record: {exc}") from exc
        _require(key[1] >= 0, f"bad log-polynomial record: logpow {key[1]} is negative")
    return LogLaurentPoly({key: ExactCoeff(raw) for key, raw in terms.items()})


# --- series ------------------------------------------------------------------------


def series_to_doc(series: TruncatedSeries, polynomial: bool = False) -> dict:
    if series.field == FIELD_RATIONAL:
        coeffs = [str(c) for c in series.coeffs]
    elif series.field == FIELD_COMPLEX:
        coeffs = [_complex_to_doc(c) for c in series.coeffs]
    else:
        raise DocumentError("series documents support rational and complex fields")
    return {
        "format": FORMAT_VERSION,
        "kind": "series",
        "field": series.field,
        "order": series.order,
        "polynomial": polynomial,
        "coeffs": coeffs,
    }


def series_from_doc(doc: Any) -> tuple[TruncatedSeries, bool]:
    _check_header(doc, "series")
    field = doc.get("field", FIELD_RATIONAL)
    raw = doc.get("coeffs")
    _require(isinstance(raw, list) and raw, "series needs a nonempty coefficient list")
    try:
        if field == FIELD_RATIONAL:
            coeffs = [parse_rational(c) for c in raw]
        elif field == FIELD_COMPLEX:
            coeffs = [_complex_from_doc(c, f"coefficient {n}") for n, c in enumerate(raw)]
        else:
            raise DocumentError(f"unknown series field {field!r}")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise DocumentError(f"bad series coefficients: {exc}") from exc
    series = TruncatedSeries(coeffs, field)
    _require(doc.get("order", series.order) == series.order, "order disagrees with coefficients")
    return series, bool(doc.get("polynomial", False))


# --- function specs -----------------------------------------------------------------


def _germ_to_doc(germ: GermPart) -> dict:
    if not germ.polar:
        return {"type": "totally_holomorphic"}
    return {"type": "polar", "coeffs": [exact_coeff_to_doc(c) for c in germ.polar]}


def _germ_from_doc(doc: Any) -> GermPart:
    _require(isinstance(doc, dict), "germ must be an object")
    kind = doc.get("type")
    if kind == "totally_holomorphic":
        return GermPart.totally_holomorphic()
    if kind == "polar":
        raw = doc.get("coeffs", [])
        _require(isinstance(raw, list), "polar germ coefficients must be a list")
        coeffs = [exact_coeff_from_doc(c) for c in raw]
        try:
            return GermPart.polar_part(coeffs)
        except ValueError as exc:  # no coefficient, or a zero highest-order one
            raise DocumentError(str(exc)) from exc
    raise DocumentError(f"unknown germ type {kind!r}")


def _element_to_doc(element: AnalyticElement | None) -> dict | None:
    if element is None:
        return None
    from .continuation import LogBranchElement, PolylogElement, RationalElement, SeriesElement, SumElement

    if isinstance(element, PolylogElement):
        return {"kind": "polylog", "k": element.k}
    if isinstance(element, LogBranchElement):
        return {
            "kind": "logbranch",
            "location": _complex_to_doc(element.location),
            "prefactor": [_complex_to_doc(c) for c in element.prefactor],
        }
    if isinstance(element, SeriesElement):  # a RationalElement over the denominator 1
        return {
            "kind": "series",
            "coeffs": [_complex_to_doc(c) for c in element.num],
            "singularities": [_complex_to_doc(s) for s in element.poles],
        }
    if isinstance(element, RationalElement):
        return {
            "kind": "rational",
            "num": [_complex_to_doc(c) for c in element.num],
            "den": [_complex_to_doc(c) for c in element.den],
            "poles": [_complex_to_doc(p) for p in element.poles],
        }
    if isinstance(element, SumElement):
        return {"kind": "sum", "parts": [_element_to_doc(part) for part in element.parts]}
    raise DocumentError(f"unsupported element {type(element).__name__}")


def element_from_doc(doc: Any, depth: int = 0) -> AnalyticElement | None:
    """The oracle element of an `element` record of a function document (None
    reads as None); this loads the oracle and numpy."""
    if doc is None:
        return None
    from .continuation import LogBranchElement, PolylogElement, RationalElement, SeriesElement, SumElement

    _require(isinstance(doc, dict), "element must be an object")
    kind = doc.get("kind")
    try:
        if kind == "polylog":
            k = _integer(doc["k"], "polylog weight k", MAX_POLYLOG_K)
            _require(k >= 1, f"polylog weight k must be >= 1, not {k}")
            return PolylogElement(k)
        conv = lambda key, default=None: [_complex_from_doc(c, f"{kind} {key}[{n}]") for n, c in
                                          enumerate(doc[key] if default is None else doc.get(key, default))]
        if kind == "logbranch":
            return LogBranchElement(_complex_from_doc(doc["location"], "logbranch location"),
                                    conv("prefactor", [[1.0, 0.0]]))
        if kind == "rational":
            return RationalElement(conv("num"), conv("den"), conv("poles", []))
        if kind == "series":
            return SeriesElement(conv("coeffs"), conv("singularities", []))
        if kind == "sum":
            _require(depth < MAX_ELEMENT_DEPTH, f"element nests sum records deeper than {MAX_ELEMENT_DEPTH}")
            return SumElement([element_from_doc(part, depth + 1) for part in doc["parts"]])
    except DocumentError:  # names its fault already; a part's is not wrapped per level
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise DocumentError(f"bad element record: {exc}") from exc
    raise DocumentError(f"unknown element kind {kind!r}")


def function_spec_to_doc(spec: FunctionSpec, element: AnalyticElement | None = None) -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "function",
        "name": spec.name,
        "germ_at_zero": series_to_doc(spec.germ_at_zero) if spec.germ_at_zero else None,
        "element": _element_to_doc(element),
        "singularities": [
            {
                "location": str(s.location),
                "monodromy": log_poly_to_doc(s.monodromy),
                "germ": _germ_to_doc(s.germ),
            }
            for s in spec.singularities
        ],
    }


def function_spec_from_doc(doc: Any) -> FunctionSpec:
    _check_header(doc, "function")
    records = doc.get("singularities", [])
    _require(isinstance(records, list), "singularities must be a list")
    singularities = []
    for record in records:
        _require(isinstance(record, dict), "singularity must be an object")
        try:
            location = parse_gaussian_rational(record["location"])
        except (KeyError, ValueError) as exc:
            raise DocumentError(f"bad singularity location: {exc}") from exc
        monodromy = log_poly_from_doc(record.get("monodromy", []))
        germ = _germ_from_doc(record.get("germ", {"type": "totally_holomorphic"}))
        try:
            singularities.append(Singularity(location, monodromy, germ))
        except ValueError as exc:
            raise DocumentError(str(exc)) from exc
    germ_at_zero = None
    if doc.get("germ_at_zero") is not None:
        germ_at_zero, _ = series_from_doc(doc["germ_at_zero"])
    try:
        return FunctionSpec.of(doc.get("name", "unnamed"), singularities, germ_at_zero)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


# --- divisors -----------------------------------------------------------------------


def divisor_to_doc(divisor: Divisor) -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "divisor",
        "points": [
            {"location": str(loc), "multiplicity": mult} for loc, mult in divisor.points
        ],
    }


def divisor_from_doc(doc: Any) -> Divisor:
    _check_header(doc, "divisor")
    records = doc.get("points", [])
    _require(isinstance(records, list), "divisor points must be a list")
    points = []
    for record in records:
        try:
            points.append((parse_gaussian_rational(record["location"]),
                           _integer(record["multiplicity"], "multiplicity")))
        except (KeyError, TypeError, ValueError) as exc:
            raise DocumentError(f"bad divisor point: {exc}") from exc
    try:
        return Divisor.of(points)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


# --- results -------------------------------------------------------------------------


def monodromy_result_to_doc(result: MonodromyResult, advisory: str | None = None) -> dict:
    doc = {
        "format": FORMAT_VERSION,
        "kind": "monodromy",
        "gamma": str(result.gamma),
        "pairs": [[str(a), str(b)] for a, b in result.pairs],
        "contributions": [log_poly_to_doc(c) for c in result.contributions],
        "total": log_poly_to_doc(result.value),
    }
    if advisory:
        doc["advisory"] = advisory
    return doc


def oracle_report_to_doc(report: OracleReport) -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "oracle_report",
        "gamma": _complex_to_doc(report.gamma),
        "max_abs_error": report.max_abs_error,
        "metadata": report.metadata,
        "rows": [
            {
                "z": _complex_to_doc(row.z),
                "winding": row.winding,
                "symbolic": _complex_to_doc(row.symbolic),
                "numeric": None if row.numeric is None else _complex_to_doc(row.numeric),
                "abs_error": row.abs_error,
            }
            for row in report.rows
        ],
    }


# --- file IO --------------------------------------------------------------------------


def _reject_constant(name: str):
    raise DocumentError(f"{name} is not valid JSON")


def load_document(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_constant=_reject_constant)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # a constant _reject_constant refuses, or an integer past the digit limit
        raise DocumentError(f"{path} cannot be read: {exc}") from exc
    except RecursionError:
        raise DocumentError(f"{path} nests arrays or objects too deeply") from None


def dump_document(doc: Any, path: str | None) -> str:
    try:
        text = json.dumps(doc, indent=2, sort_keys=False, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError("the result holds a number that is not finite, which JSON cannot carry") from exc
    if path:
        _write_text(path, text)
    return text


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}") from exc
