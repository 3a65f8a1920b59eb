"""Document round trips and the command-line contract (exit codes, outputs)."""

import json
import math
from fractions import Fraction

import pytest

from hadene import cli
from hadene.cli import main
from hadene.coeffs import MAX_EXPONENT, ExactCoeff, GaussianRational, _TermMap, log_symbol
from hadene.continuation import LogBranchElement, PolylogElement, SumElement, geometric_element
from hadene.documents import (
    MAX_ELEMENT_DEPTH,
    MAX_LOGPOW,
    MAX_POLYLOG_K,
    DocumentError,
    divisor_from_doc,
    divisor_to_doc,
    dump_document,
    element_from_doc,
    exact_coeff_from_doc,
    exact_coeff_to_doc,
    function_spec_from_doc,
    function_spec_to_doc,
    log_poly_from_doc,
    log_poly_to_doc,
    series_from_doc,
    series_to_doc,
)
from hadene.logpoly import LogLaurentPoly
from hadene.monodromy import (
    Divisor,
    FunctionSpec,
    GermPart,
    Singularity,
    hadamard_monodromy_general,
    log_ladder_monodromy,
    polylog_function_spec,
)
from hadene.series import TruncatedSeries, polylog_series


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# --- document round trips -----------------------------------------------------------


def test_exact_coeff_round_trip():
    value = ExactCoeff.two_pi_i(2) * Fraction(3, 7) + ExactCoeff.from_gaussian(
        GaussianRational.of(Fraction(1, 2), Fraction(-2, 5))
    )
    assert exact_coeff_from_doc(exact_coeff_to_doc(value)) == value


def test_log_poly_round_trip():
    p = log_ladder_monodromy(4) + LogLaurentPoly.term(-2, 1, Fraction(5, 3))
    assert log_poly_from_doc(log_poly_to_doc(p)) == p


def test_coefficient_documents_parse_without_a_sum_per_record(monkeypatch):
    # a running sum copies its whole term map on every record: quadratic work
    calls = 0
    add = _TermMap.__add__

    def counting_add(self, other):
        nonlocal calls
        calls += 1
        return add(self, other)

    monkeypatch.setattr(_TermMap, "__add__", counting_add)
    counts = []
    for n in (500, 5000):
        records = [{"coeff": f"{i + 1}/7", "symbols": {"log(2)": i % 50, "2pii": i // 50}} for i in range(n)]
        calls = 0
        coeff = exact_coeff_from_doc(records)
        log_poly = log_poly_from_doc([{"zpow": 1, "logpow": 2, "coeff": [record]} for record in records])
        counts.append(calls)
        assert len(coeff.terms) == n
        assert log_poly.terms == {(1, 2): coeff}
    assert counts[1] == counts[0]


def test_series_round_trip_rational_and_complex():
    s = polylog_series(2, 6)
    parsed, is_poly = series_from_doc(series_to_doc(s))
    assert parsed == s and not is_poly
    c = TruncatedSeries([0j, 1 + 2j, -0.5j])
    parsed, _ = series_from_doc(series_to_doc(c))
    assert parsed == c


def test_function_spec_round_trip_with_element_and_polar_germ():
    spec = FunctionSpec.of("demo", [
        Singularity(GaussianRational.of(1), log_ladder_monodromy(2),
                    GermPart.polar_part([Fraction(-1), Fraction(-1)])),
        Singularity(GaussianRational.of(2), LogLaurentPoly.constant(1)),
    ])
    doc = function_spec_to_doc(spec, element=LogBranchElement(1.0, [0.0, 2.0]))
    parsed, element = function_spec_from_doc(doc), element_from_doc(doc["element"])
    assert parsed == spec
    assert isinstance(element, LogBranchElement)
    assert element.prefactor == [0j, 2 + 0j]


def test_sum_element_round_trip():
    from hadene.continuation import SumElement

    spec = FunctionSpec.of("two_logs", [
        Singularity(GaussianRational.of(2), LogLaurentPoly.constant(ExactCoeff.two_pi_i())),
        Singularity(GaussianRational.of(0, 2), LogLaurentPoly.constant(ExactCoeff.two_pi_i())),
    ])
    element = SumElement([LogBranchElement(2.0), LogBranchElement(2j)])
    doc = function_spec_to_doc(spec, element=element)
    parsed, parsed_element = function_spec_from_doc(doc), element_from_doc(doc["element"])
    assert parsed == spec
    assert isinstance(parsed_element, SumElement)
    assert sorted(s.real for s in parsed_element.singularities()) == [0.0, 2.0]


# one element record of each kind, as the documents write them
ELEMENT_DOCS = {
    "polylog": {"kind": "polylog", "k": 3},
    "logbranch": {"kind": "logbranch", "location": [2.0, 0.5], "prefactor": [[1.0, 0.0], [0.0, -1.0]]},
    "rational": {"kind": "rational", "num": [[0.0, 0.0], [1.0, 0.0]], "den": [[1.0, 0.0], [-1.0, 0.0]],
                 "poles": [[1.0, 0.0]]},
    # a series element is a rational one over the denominator 1, and keeps its own kind
    "series": {"kind": "series", "coeffs": [[1.0, 0.0], [0.5, 0.25]], "singularities": [[1.5, 0.0]]},
}
ELEMENT_DOCS["sum"] = {"kind": "sum", "parts": list(ELEMENT_DOCS.values())}


@pytest.mark.parametrize("doc", ELEMENT_DOCS.values(), ids=list(ELEMENT_DOCS))
def test_element_documents_round_trip(doc):
    element = element_from_doc(doc)
    assert function_spec_to_doc(polylog_function_spec(1), element=element)["element"] == doc


def test_divisor_round_trip():
    d = Divisor.of({GaussianRational.of(2): 1, GaussianRational.of(Fraction(1, 3)): -2})
    assert divisor_from_doc(divisor_to_doc(d)) == d


def test_malformed_documents_raise():
    with pytest.raises(DocumentError):
        series_from_doc({"format": 99, "kind": "series", "coeffs": ["1"]})
    with pytest.raises(DocumentError):
        series_from_doc({"format": 1, "kind": "function", "coeffs": ["1"]})
    with pytest.raises(DocumentError):
        exact_coeff_from_doc([{"coeff": "not-a-number", "symbols": {}}])


ONE = [{"coeff": "1", "symbols": {}}]
FUNCTION = {"format": 1, "kind": "function"}
DIVISOR = {"format": 1, "kind": "divisor"}
COMPLEX_SERIES = {"format": 1, "kind": "series", "field": "complex"}

# decoder, document, id: each record breaks one assumption about JSON types or sizes
MALFORMED_RECORDS = [
    (exact_coeff_from_doc, [{"coeff": "1", "symbols": [["2pii", 1]]}], "symbols-not-object"),
    (exact_coeff_from_doc, [{"coeff": "1", "symbols": {"2pii": 0.5}}], "exponent-not-integer"),
    (exact_coeff_from_doc, [{"coeff": 3, "symbols": {}}], "coeff-not-string"),
    (log_poly_from_doc, [{"zpow": -1e300, "logpow": 0, "coeff": ONE}], "zpow-float"),
    (log_poly_from_doc, [{"zpow": 10 ** 6 + 1, "logpow": 0, "coeff": ONE}], "zpow-too-large"),
    (log_poly_from_doc, [{"zpow": 0, "logpow": 1025, "coeff": ONE}], "logpow-too-large"),
    (function_spec_from_doc, {**FUNCTION, "singularities": 5}, "singularities-not-list"),
    (function_spec_from_doc, {**FUNCTION, "singularities": [{"location": 2}]}, "location-not-string"),
    (function_spec_from_doc, {**FUNCTION, "singularities": [{"location": "2", "germ": {"type": "polar", "coeffs": 5}}]},
     "polar-coeffs-not-list"),
    (function_spec_from_doc, {**FUNCTION, "singularities": [{"location": "2", "germ": {"type": "polar", "coeffs": [ONE, [{"coeff": "0"}]]}}]},
     "polar-highest-coeff-zero"),
    (function_spec_from_doc, {**FUNCTION, "singularities": [{"location": "2", "germ": {"type": "polar", "coeffs": [ONE, []]}}]},
     "polar-highest-coeff-empty"),
    (divisor_from_doc, {**DIVISOR, "points": 5}, "points-not-list"),
    (divisor_from_doc, {**DIVISOR, "points": [{"location": "2", "multiplicity": 0.5}]}, "multiplicity-float"),
    # a complex pair is exactly two finite JSON numbers, not bools
    (element_from_doc, {"kind": "logbranch", "location": [1e400, 0]}, "element-pair-infinite"),
    (element_from_doc, {"kind": "rational", "num": [[1, 0]], "den": [[10 ** 400, 0]]}, "element-pair-int-overflow"),
    (element_from_doc, {"kind": "rational", "num": [[1.0, 0, 7]], "den": [[1, 0]]}, "element-pair-three-numbers"),
    (element_from_doc, {"kind": "series", "coeffs": [[True, False]]}, "element-pair-bools"),
    (element_from_doc, {"kind": "rational", "num": [[1, 0]], "den": [[0, 0]], "poles": [[1, 0]]}, "rational-den-zero"),
    (element_from_doc, {"kind": "rational", "num": [[1, 0]], "den": [], "poles": [[1, 0]]}, "rational-den-empty"),
    (series_from_doc, {**COMPLEX_SERIES, "coeffs": [[1, 0], [10 ** 400, 0]]}, "series-pair-int-overflow"),
    (series_from_doc, {**COMPLEX_SERIES, "coeffs": [[1.0, 0, 7]]}, "series-pair-three-numbers"),
    (series_from_doc, {**COMPLEX_SERIES, "coeffs": [[True, False]]}, "series-pair-bools"),
]


@pytest.mark.parametrize("decode, doc", [case[:2] for case in MALFORMED_RECORDS],
                         ids=[case[2] for case in MALFORMED_RECORDS])
def test_malformed_records_are_document_errors(decode, doc):
    with pytest.raises(DocumentError):
        decode(doc)


def test_log_polynomial_bounds_are_inclusive():
    p = log_poly_from_doc([{"zpow": -10 ** 6, "logpow": 1024, "coeff": ONE}])
    assert p == LogLaurentPoly.term(-10 ** 6, 1024)


# --- CLI: series ------------------------------------------------------------------------


def one_plus_z_doc():
    return series_to_doc(TruncatedSeries([Fraction(1), Fraction(1)]), polynomial=True)


def test_cli_ene_of_one_plus_z(tmp_path, capsys):
    f = write_doc(tmp_path, "f.json", one_plus_z_doc())
    out = tmp_path / "result.json"
    code = main(["series", "--op", "ene", "-f", f, "-g", f, "--order", "8", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["coeffs"] == ["1", "-1"] + ["0"] * 7


def test_cli_hadamard_of_polylogs(tmp_path, capsys):
    doc = series_to_doc(polylog_series(1, 8))
    f = write_doc(tmp_path, "li1.json", doc)
    code = main(["series", "--op", "hadamard", "-f", f, "-g", f])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["coeffs"] == [str(c) for c in polylog_series(2, 8).coeffs]


def test_cli_series_parse_error_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["series", "--op", "hadamard", "-f", str(bad), "-g", str(bad)]) == 2


def test_cli_series_precondition_is_exit_3(tmp_path):
    # ene requires unit constant terms
    doc = series_to_doc(TruncatedSeries([Fraction(0), Fraction(1)]))
    f = write_doc(tmp_path, "f.json", doc)
    assert main(["series", "--op", "ene", "-f", f, "-g", f]) == 3


# --- CLI: monodromy / polylog / divisor ----------------------------------------------------


def test_cli_monodromy_polylog_pair(tmp_path, capsys):
    f = write_doc(tmp_path, "li1.json", function_spec_to_doc(polylog_function_spec(1)))
    code = main(["monodromy", "--product", "hadamard", "-f", f, "-g", f, "--gamma", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pairs"] == [["1", "1"]]
    assert log_poly_from_doc(doc["total"]) == log_ladder_monodromy(2)


def test_cli_monodromy_without_factorization_adds_advisory(tmp_path, capsys):
    f = write_doc(tmp_path, "li1.json", function_spec_to_doc(polylog_function_spec(1)))
    code = main(["monodromy", "-f", f, "-g", f, "--gamma", "5"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total"] == [] and "advisory" in doc


def test_cli_monodromy_on_divisor_documents(tmp_path, capsys):
    # divisor is the one command for divisor documents; monodromy refuses them (REFUSED_INPUTS)
    f = write_doc(tmp_path, "a.json", divisor_to_doc(Divisor.of({GaussianRational.of(2): 1,
                                                                 GaussianRational.of(3): 1})))
    g = write_doc(tmp_path, "b.json", divisor_to_doc(Divisor.of({GaussianRational.of(3): 1,
                                                                 GaussianRational.of(2): 1})))
    code = main(["divisor", "-f", f, "-g", g])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    points = {rec["location"]: rec["multiplicity"] for rec in doc["points"]}
    assert points == {"4": 1, "6": 2, "9": 1}


def test_cli_divisor_command(tmp_path, capsys):
    f = write_doc(tmp_path, "a.json", divisor_to_doc(Divisor.of({GaussianRational.of(2): 1})))
    g = write_doc(tmp_path, "b.json", divisor_to_doc(Divisor.of({GaussianRational.of(3): -1})))
    assert main(["divisor", "-f", f, "-g", g]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points"] == [{"location": "6", "multiplicity": -1}]


def test_cli_polylog_ladder(tmp_path, capsys):
    code = main(["polylog", "--k", "3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert log_poly_from_doc(doc["total"]) == log_ladder_monodromy(3)


def test_cli_monodromy_is_exact_past_a_doubles_range(tmp_path, capsys):
    huge = write_doc(tmp_path, "huge.json", huge_location_doc())
    assert main(["monodromy", "-f", huge, "-g", huge, "--gamma", str(HUGE ** 2)]) == 0
    doc = json.loads(capsys.readouterr().out)
    spec = function_spec_from_doc(huge_location_doc())
    assert doc["gamma"] == str(HUGE ** 2) and doc["pairs"] == [[str(HUGE), str(HUGE)]]
    assert log_poly_from_doc(doc["total"]) == hadamard_monodromy_general(spec, spec, HUGE ** 2).value

    f = write_doc(tmp_path, "log_symbol.json", log_symbol_doc())
    g = write_doc(tmp_path, "li1.json", li1_function_doc())
    assert main(["monodromy", "-f", f, "-g", g]) == 0
    log_huge = ExactCoeff.monomial({log_symbol(HUGE): 1})
    total = log_poly_from_doc(json.loads(capsys.readouterr().out)["total"])
    assert total == log_ladder_monodromy(2).scale(log_huge)


# --- CLI: verify ------------------------------------------------------------------------------


def li1_function_doc():
    return function_spec_to_doc(polylog_function_spec(1), element=PolylogElement(1))


HUGE = 10 ** 400  # past a double's range


def huge_location_doc():
    doc = li1_function_doc()
    doc["singularities"][0]["location"] = str(HUGE)
    return doc


def log_symbol_doc():
    """Li_1 with its monodromy multiplied by the symbol log(HUGE)."""
    doc = li1_function_doc()
    doc["singularities"][0]["monodromy"][0]["coeff"][0]["symbols"][f"log({HUGE})"] = 1
    return doc


def test_cli_verify_polylog_pair_exit_0(tmp_path, capsys):
    f = write_doc(tmp_path, "li1.json", li1_function_doc())
    code = main(["verify", "-f", f, "-g", f, "--gamma", "1",
                 "--samples", "0.9,0.93+0.02i", "--check-tol", "1e-6"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_abs_error"] < 1e-6
    assert len(doc["rows"]) == 2


def test_cli_verify_measures_where_the_circle_passes_close_to_z0(tmp_path, capsys):
    # z0 = 0.95 e^{45i deg}: the circle r = sqrt|z0| passes 0.025 inside z0, so the
    # detours' bound 2 (r - |z0|) = 0.05 lies below 0.1 |1 - z0| = 0.073
    li2 = function_spec_to_doc(polylog_function_spec(2), element=PolylogElement(2))
    f = write_doc(tmp_path, "li2.json", li2)
    g = write_doc(tmp_path, "li1.json", li1_function_doc())
    assert main(["verify", "-f", f, "-g", g, "--samples", "0.6717+0.6717i"]) == 0
    assert json.loads(capsys.readouterr().out)["max_abs_error"] < 1e-8


def test_cli_verify_measures_a_small_z0(tmp_path, capsys):
    # z0 = 0.05 lies closer to 0 than the loop radius 0.1 |1 - z0| would be
    f = write_doc(tmp_path, "li1.json", li1_function_doc())
    assert main(["verify", "-f", f, "-g", f, "--gamma", "1", "--samples", "0.05"]) == 0
    assert json.loads(capsys.readouterr().out)["max_abs_error"] < 1e-8


def test_cli_verify_corrupted_symbolic_is_exit_4(tmp_path, capsys):
    doc = li1_function_doc()
    # corrupt the declared monodromy: the measurement will contradict it
    doc["singularities"][0]["monodromy"] = log_poly_to_doc(
        LogLaurentPoly.constant(ExactCoeff.two_pi_i() * Fraction(-3, 2))
    )
    f = write_doc(tmp_path, "bad_li1.json", doc)
    g = write_doc(tmp_path, "li1.json", li1_function_doc())
    code = main(["verify", "-f", f, "-g", g, "--gamma", "1", "--samples", "0.9"])
    assert code == 4


def test_cli_verify_infeasible_geometry_is_exit_5(tmp_path):
    f = write_doc(tmp_path, "li1.json", li1_function_doc())
    code = main(["verify", "-f", f, "-g", f, "--gamma", "1", "--samples", "1.2"])
    assert code == 5


def test_cli_verify_missing_element_is_exit_3(tmp_path):
    f = write_doc(tmp_path, "li1.json", function_spec_to_doc(polylog_function_spec(1)))
    code = main(["verify", "-f", f, "-g", f, "--gamma", "1", "--samples", "0.9"])
    assert code == 3


def test_cli_verify_csv_output(tmp_path, capsys):
    f = write_doc(tmp_path, "li1.json", li1_function_doc())
    out = tmp_path / "report.csv"
    code = main(["verify", "-f", f, "-g", f, "--gamma", "1", "--samples", "0.9",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("z_re,z_im,winding")


def test_cli_verify_sum_element_with_two_parts_at_one_location(tmp_path, capsys):
    # log(1 - u) + 1/(1 - u): both parts sit at 1, which the element lists once
    spec = FunctionSpec.of("log_plus_pole", [Singularity(
        GaussianRational.of(1), LogLaurentPoly.constant(ExactCoeff.two_pi_i()),
        GermPart.polar_part([Fraction(-1)]))])
    element = SumElement([LogBranchElement(1.0), geometric_element()])
    f = write_doc(tmp_path, "log_plus_pole.json", function_spec_to_doc(spec, element=element))
    g = write_doc(tmp_path, "li1.json", li1_function_doc())
    code = main(["verify", "-f", f, "-g", g, "--gamma", "1", "--samples", "0.9,0.93+0.02i"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["max_abs_error"] < 1e-6


def log_branch_doc(location):
    """u log(1 - u/location), realized by its log-branch element: monodromy 2pii z at the location."""
    spec = FunctionSpec.of("u_log_branch", [Singularity(
        GaussianRational.of(location), LogLaurentPoly.term(1, 0, 1).scale(ExactCoeff.two_pi_i()))])
    return function_spec_to_doc(spec, element=LogBranchElement(location, [0.0, 1.0]))


@pytest.mark.parametrize("sample", ["-5.4+0.27i", "-5.4-0.27i"], ids=["above", "below"])
def test_cli_verify_either_side_of_a_negative_gamma(tmp_path, capsys, sample):
    # Log(-6) = log 6 + i pi, so the result's log z is the branch continuous with
    # it from the upper half-plane: below the axis the check evaluates it on
    # winding 1 of the principal log, where the measurement lands (on winding 0
    # the two would differ by 213)
    f = write_doc(tmp_path, "f.json", log_branch_doc(-2))
    g = write_doc(tmp_path, "g.json", log_branch_doc(3))
    assert main(["verify", "-f", f, "-g", g, "--gamma=-6", f"--samples={sample}"]) == 0
    assert json.loads(capsys.readouterr().out)["max_abs_error"] <= 1e-8


# --- CLI: inputs and results refused with an exit code ------------------------------------------

# argv (documents named by placeholders), exit code, text the message must contain
REFUSED_INPUTS = [
    (["monodromy", "-f", "{li1}", "-g", "{li1}", "--gamma", "1/0"], 3, "'1/0'"),
    (["series", "--op", "ene", "-f", "{zero_den}", "-g", "{zero_den}"], 2, "'1/0'"),
    (["series", "--op", "hadamard", "-f", "{infinite}", "-g", "{infinite}"], 2, "Infinity"),
    (["series", "--op", "hadamard", "-f", "{overflow}", "-g", "{overflow}"], 2, "coefficient 1 is not finite"),
    (["series", "--op", "hadamard", "-f", "{huge}", "-g", "{huge}"], 3, "not finite"),
    (["series", "--op", "hadamard", "-f", "{int_overflow}", "-g", "{int_overflow}"], 2,
     "coefficient 1 is not finite"),
    (["verify", "-f", "{li1}", "-g", "{li1}", "--samples", "0.9", "--winding", "1"], 3, "winding 0"),
    (["verify", "-f", "{li1}", "-g", "{li1}", "--samples", "0.9,nan"], 3, "'nan'"),
    (["verify", "-f", "{li1}", "-g", "{li1}", "--samples", "0.9", "--nodes", "64"], 5, "node budget 64 spent"),
    (["monodromy", "-f", "{negative_logpow}", "-g", "{li1}"], 2, "logpow -1 is negative"),
    (["verify", "-f", "{zpow_overflow}", "-g", "{li1}", "--samples", "0.9"], 3, "overflows a double"),
    (["verify", "-f", "{huge_location}", "-g", "{huge_location}", "--gamma", str(HUGE ** 2), "--samples", "0.9"],
     3, "overflows a double"),
    (["verify", "-f", "{log_symbol}", "-g", "{li1}", "--samples", "0.9"], 3, "overflows a double"),
    # a file cannot be a directory, so no output path under it can be written
    (["monodromy", "-f", "{li1}", "-g", "{li1}", "--out", "{li1}/out.json"], 2, "cannot write"),
    (["verify", "-f", "{li1}", "-g", "{li1}", "--samples", "0.9", "--out", "{li1}/out.json"], 2,
     "cannot write"),
    (["verify", "-f", "{li1}", "-g", "{li1}", "--samples", "0.9", "--format", "csv",
      "--out", "{li1}/out.csv"], 2, "cannot write"),
    (["verify", "-f", "{li1}", "-g", "{li1}", "--samples", "0.9", "--check-tol", "nan"], 3,
     "--check-tol must be finite and positive"),
    (["verify", "-f", "{li1}", "-g", "{li1}", "--samples", "0.9", "--check-tol", "-1"], 3,
     "--check-tol must be finite and positive"),
    (["verify", "-f", "{li1}", "-g", "{li1}", "--samples", "0.9", "--tol", "nan"], 3,
     "--tol must be finite and positive"),
    (["verify", "-f", "{li1}", "-g", "{li1}", "--samples", "0.9", "--nodes", "0"], 3, "--nodes must be >= 1"),
    (["verify", "-f", "{li1}", "-g", "{li1}", "--samples", "0.9", "--nodes", "-3"], 3, "--nodes must be >= 1"),
    (["series", "--op", "hadamard", "-f", "{huge}", "-g", "{huge}", "--order", "99999999999999999999"], 3,
     "--order must be in 1..65536"),
    (["verify", "-f", "{li1}", "-g", "{li1}", "--samples", "0.9", "--gamma", "1e400"], 3, "overflows a double"),
    (["divisor", "-f", "{not_utf8}", "-g", "{not_utf8}"], 2, "is not UTF-8 text"),
    (["divisor", "-f", "{deep}", "-g", "{deep}"], 2, "nests arrays or objects too deeply"),
    (["verify", "-f", "{k_too_large}", "-g", "{li1}", "--samples", "0.9"], 2,
     f"polylog weight k {MAX_POLYLOG_K + 1} exceeds {MAX_POLYLOG_K}"),
    (["verify", "-f", "{k_float}", "-g", "{li1}", "--samples", "0.9"], 2, "polylog weight k must be an integer"),
    (["verify", "-f", "{k_zero}", "-g", "{li1}", "--samples", "0.9"], 2, "polylog weight k must be >= 1"),
    (["verify", "-f", "{deep_sum}", "-g", "{li1}", "--samples", "0.9"], 2,
     f"element nests sum records deeper than {MAX_ELEMENT_DEPTH}"),
    # 0.9 is measured; 1.2 lies outside |z0| < 1, where no circle separates
    (["verify", "-f", "{li1}", "-g", "{li1}", "--samples", "0.9,1.2"], 5,
     "at z0 = (1.2+0j): no separating circle"),
    (["series", "--op", "hadamard", "-f", "{long_int}", "-g", "{long_int}"], 2,
     "long_int.json cannot be read: Exceeds the limit"),
    # z0 = 1e-320 is a subnormal so near 0 that no detour loop fits between it and 0
    (["verify", "-f", "{li1}", "-g", "{li1}", "--samples", "1e-320"], 5, "at z0 = (1e-320+0j)"),
    (["monodromy", "--product", "hadamard", "--gamma", "7", "-f", "{divisor}", "-g", "{divisor}"], 2,
     "expected kind 'function', got 'divisor'"),
    # a symbol exponent past the bound would overflow its field of a monomial
    (["monodromy", "-f", "{symbol_exponent}", "-g", "{li1}"], 2,
     f"exponent of 2pii {MAX_EXPONENT + 1} exceeds {MAX_EXPONENT} in magnitude"),
    # the ladder's log power k - 1 would pass what a function document accepts
    (["polylog", "--k", str(MAX_LOGPOW + 2)], 3, f"--k must be in 1..{MAX_LOGPOW + 1}"),
]


@pytest.mark.parametrize("argv, code, message", REFUSED_INPUTS,
                         ids=["gamma-1/0", "series-coeff-1/0", "series-infinity", "series-overflowing-literal",
                              "series-non-finite-result", "series-int-overflow", "verify-no-winding-0", "verify-nan-sample",
                              "verify-node-budget", "negative-logpow", "verify-overflow",
                              "verify-huge-location-overflow", "verify-log-symbol-overflow",
                              "monodromy-unwritable-out", "verify-unwritable-out", "verify-csv-unwritable-out",
                              "verify-check-tol-nan", "verify-check-tol-negative", "verify-tol-nan",
                              "verify-nodes-0", "verify-nodes-negative", "series-order-too-large",
                              "verify-gamma-overflow", "document-not-utf8", "document-nested-too-deeply",
                              "verify-polylog-k-too-large", "verify-polylog-k-float", "verify-polylog-k-zero",
                              "verify-sum-nested-too-deeply", "verify-names-the-failing-sample",
                              "series-int-past-digit-limit", "verify-z0-subnormal", "monodromy-divisor-documents",
                              "monodromy-symbol-exponent-too-large", "polylog-k-too-large"])
def test_cli_refuses_bad_input_with_exit_code(tmp_path, capsys, argv, code, message):
    docs = {
        "li1": write_doc(tmp_path, "li1.json", li1_function_doc()),
        "zero_den": write_doc(tmp_path, "zero_den.json", {
            "format": 1, "kind": "series", "field": "rational", "coeffs": ["1", "1/0"],
        }),
        "infinite": write_doc(tmp_path, "infinite.json", {
            "format": 1, "kind": "series", "field": "complex", "coeffs": [[1, 0], [math.inf, 0]],
        }),
        "huge": write_doc(tmp_path, "huge.json", {
            "format": 1, "kind": "series", "field": "complex", "coeffs": [[1, 0], [1e200, 0]],
        }),
        "int_overflow": write_doc(tmp_path, "int_overflow.json", {
            "format": 1, "kind": "series", "field": "complex", "coeffs": [[1, 0], [HUGE, 0]],
        }),
        "huge_location": write_doc(tmp_path, "huge_location.json", huge_location_doc()),
        "log_symbol": write_doc(tmp_path, "log_symbol.json", log_symbol_doc()),
        "divisor": write_doc(tmp_path, "divisor.json", divisor_to_doc(Divisor.of({2: 1, 3: -1}))),
    }
    negative_logpow = li1_function_doc()
    negative_logpow["singularities"][0]["monodromy"][0]["logpow"] = -1
    docs["negative_logpow"] = write_doc(tmp_path, "negative_logpow.json", negative_logpow)
    zpow_overflow = li1_function_doc()
    zpow_overflow["singularities"][0]["monodromy"][0]["zpow"] = -1000000
    docs["zpow_overflow"] = write_doc(tmp_path, "zpow_overflow.json", zpow_overflow)
    symbol_exponent = li1_function_doc()
    symbol_exponent["singularities"][0]["monodromy"][0]["coeff"][0]["symbols"]["2pii"] = MAX_EXPONENT + 1
    docs["symbol_exponent"] = write_doc(tmp_path, "symbol_exponent.json", symbol_exponent)
    for name, k in (("k_too_large", MAX_POLYLOG_K + 1), ("k_float", 2.5), ("k_zero", 0)):
        polylog_k = li1_function_doc()
        polylog_k["element"]["k"] = k
        docs[name] = write_doc(tmp_path, f"{name}.json", polylog_k)
    deep_sum = li1_function_doc()
    for _ in range(MAX_ELEMENT_DEPTH + 1):
        deep_sum["element"] = {"kind": "sum", "parts": [deep_sum["element"]]}
    docs["deep_sum"] = write_doc(tmp_path, "deep_sum.json", deep_sum)
    docs["not_utf8"] = str(tmp_path / "not_utf8.json")
    (tmp_path / "not_utf8.json").write_bytes(b'{"format": 1, "kind": "divisor", "points": []}\xff')
    docs["deep"] = str(tmp_path / "deep.json")
    (tmp_path / "deep.json").write_text("[" * 200000 + "]" * 200000)
    # strict JSON whose number overflows a double; json.dumps cannot write it
    docs["overflow"] = str(tmp_path / "overflow.json")
    (tmp_path / "overflow.json").write_text(
        '{"format": 1, "kind": "series", "field": "complex", "coeffs": [[1, 0], [1e400, 0]]}')
    # an integer longer than the interpreter converts from a string by default
    docs["long_int"] = str(tmp_path / "long_int.json")
    (tmp_path / "long_int.json").write_text(
        '{"format": 1, "kind": "series", "field": "complex", "coeffs": [[1, 0], [%s, 0]]}' % ("9" * 5001))
    assert main([arg.format(**docs) for arg in argv]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv", [
    ["selftest", "--tol", "nan"],
    ["series", "--op", "ene", "-f", "F.json", "-g", "G.json", "--format", "csv"],
], ids=["selftest-tol", "series-format"])
def test_cli_commands_offer_only_the_options_they_read(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_verify_refuses_an_unknown_format(capsys):
    # argparse's choices refuse it before any option is validated
    with pytest.raises(SystemExit) as stop:
        main(["verify", "-f", "F.json", "-g", "G.json", "--format", "xml"])
    assert stop.value.code == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err


# --- CLI: selftest -----------------------------------------------------------------------------


def test_cli_selftest_passes(capsys):
    code = main(["selftest"])
    output = capsys.readouterr().out
    assert code == 0
    assert "0 failure(s)" in output
    assert "FAIL" not in output


def test_cli_failing_selftest_is_exit_4(monkeypatch, capsys):
    def crash():
        raise RuntimeError("fixture crashed")

    monkeypatch.setattr(cli, "_selftest_fixtures", lambda: [("wrong", lambda: False), ("crash", crash)])
    assert main(["selftest"]) == 4
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].startswith("wrong") and "FAIL" in rows[0]
    assert rows[1].startswith("crash (RuntimeError)") and "FAIL" in rows[1]
    assert rows[2] == "2 failure(s) out of 2 fixtures"


def test_cli_round_trip_of_emitted_series(tmp_path, capsys):
    f = write_doc(tmp_path, "li1.json", series_to_doc(polylog_series(1, 6)))
    main(["series", "--op", "hadamard", "-f", f, "-g", f])
    emitted = json.loads(capsys.readouterr().out)
    parsed, _ = series_from_doc(emitted)
    assert series_to_doc(parsed) == emitted
