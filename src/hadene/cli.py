"""Command-line surface: series products, monodromy formulas, dual-engine verify.

Commands
    series     hadamard / ene_exp / ene of two series documents
    monodromy  symbolic product monodromy at gamma; reads function documents only
    divisor    product divisor of two divisor documents
    polylog    weight-k ladder monodromy, computed by iterated integration
    verify     symbolic result vs contour-measured monodromy at sample points
    selftest   run the embedded fixture table

Exit codes are a stable contract: 0 success, 2 document/parse error,
3 precondition violation, 4 verification failure, 5 quadrature or geometry
failure.

Only `verify` and `selftest` load the contour oracle (`continuation`) and
numpy, and only `verify` the comparison (`checks`), inside the command; the
exact commands start without them.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
import time
from dataclasses import dataclass, fields

from .coeffs import parse_gaussian_rational
from .documents import (
    MAX_LOGPOW,
    DocumentError,
    _write_text,
    divisor_from_doc,
    divisor_to_doc,
    dump_document,
    element_from_doc,
    function_spec_from_doc,
    load_document,
    monodromy_result_to_doc,
    oracle_report_to_doc,
    series_from_doc,
    series_to_doc,
)
from .monodromy import (
    MonodromyResult,
    divisor_ene,
    ene_monodromy_general,
    hadamard_monodromy_general,
    log_ladder_monodromy,
    polylog_monodromy,
)
from .series import FieldMismatch, ene, ene_exp, hadamard

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY = 4
EXIT_QUADRATURE = 5

MAX_ORDER = 1 << 16


@dataclass
class JobConfig:
    """Validated options for one invocation; each command offers only those it reads.

    The fields state the defaults: the parser leaves out options not given.
    """

    order: int = 64
    tol: float = 1e-9
    check_tol: float = 1e-6
    nodes: int = 1 << 16
    out: str | None = None
    fmt: str = "json"
    windings: tuple[int, ...] = (0,)

    def __post_init__(self):
        if not 1 <= self.order <= MAX_ORDER:
            raise ValueError(f"--order must be in 1..{MAX_ORDER}")
        for name, value in (("--tol", self.tol), ("--check-tol", self.check_tol)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, not {value:g}")
        if self.nodes < 1:
            raise ValueError("--nodes must be >= 1")


def _job_from_args(args) -> JobConfig:
    given = {f.name: getattr(args, f.name) for f in fields(JobConfig) if hasattr(args, f.name)}
    if "windings" in given:
        windings = tuple(int(w) for w in given["windings"].split(",") if w != "")
        given["windings"] = windings or JobConfig.windings
    return JobConfig(**given)


def _emit(doc, job: JobConfig) -> None:
    sys.stdout.write(dump_document(doc, job.out))


def _parse_samples(text: str) -> list[complex]:
    samples = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            z = complex(chunk.replace("i", "j"))
        except ValueError:
            raise ValueError(f"sample {chunk!r} is not a complex number") from None
        if not cmath.isfinite(z):
            raise ValueError(f"sample {chunk!r} is not finite")
        samples.append(z)
    if not samples:
        raise ValueError("no sample points given")
    return samples


# --- commands -----------------------------------------------------------------------


def cmd_series(args) -> int:
    job = _job_from_args(args)
    f, f_poly = series_from_doc(load_document(args.f))
    g, g_poly = series_from_doc(load_document(args.g))
    if f_poly:
        f = f.pad(job.order)
    if g_poly:
        g = g.pad(job.order)
    op = {"hadamard": hadamard, "ene_exp": ene_exp, "ene": ene}[args.op]
    result = op(f.truncate(job.order), g.truncate(job.order))
    _emit(series_to_doc(result), job)
    return EXIT_OK


def cmd_monodromy(args) -> int:
    job = _job_from_args(args)
    f_spec = function_spec_from_doc(load_document(args.f))
    g_spec = function_spec_from_doc(load_document(args.g))
    gamma = parse_gaussian_rational(args.gamma)
    engine = hadamard_monodromy_general if args.product == "hadamard" else ene_monodromy_general
    result: MonodromyResult = engine(f_spec, g_spec, gamma)
    advisory = None
    if not result.pairs:
        advisory = "gamma is not a product of declared singularity locations; result is zero"
    _emit(monodromy_result_to_doc(result, advisory), job)
    return EXIT_OK


def cmd_divisor(args) -> int:
    job = _job_from_args(args)
    f = divisor_from_doc(load_document(args.f))
    g = divisor_from_doc(load_document(args.g))
    _emit(divisor_to_doc(divisor_ene(f, g)), job)
    return EXIT_OK


def cmd_polylog(args) -> int:
    job = _job_from_args(args)
    # the weight-k ladder monodromy has log power k - 1, which documents bound
    if not 1 <= args.k <= MAX_LOGPOW + 1:
        raise ValueError(f"--k must be in 1..{MAX_LOGPOW + 1}")
    value = polylog_monodromy(args.k)
    result = MonodromyResult(
        gamma=parse_gaussian_rational("1"),
        pairs=((parse_gaussian_rational("1"), parse_gaussian_rational("1")),),
        value=value,
        contributions=(value,),
    )
    _emit(monodromy_result_to_doc(result), job)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .checks import crosscheck
    from .continuation import MEASUREMENT_FAILURES

    job = _job_from_args(args)
    f_doc = load_document(args.f)
    f_spec, f_element = function_spec_from_doc(f_doc), element_from_doc(f_doc.get("element"))
    g_doc = load_document(args.g)
    g_spec, g_element = function_spec_from_doc(g_doc), element_from_doc(g_doc.get("element"))
    if f_element is None or g_element is None:
        raise ValueError("verify needs an oracle element realization in both function documents")
    gamma = parse_gaussian_rational(args.gamma)
    samples = _parse_samples(args.samples)
    try:
        report = crosscheck(
            f_spec, g_spec, gamma, samples,
            f_element=f_element, g_element=g_element,
            windings=job.windings, tol=min(job.tol, job.check_tol),
            node_budget=job.nodes,
        )
    except MEASUREMENT_FAILURES as exc:
        # two of these are ValueErrors, which main would report as exit 3
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_QUADRATURE
    if job.fmt == "csv":
        text = report.to_csv()
        if job.out:
            _write_text(job.out, text)
        sys.stdout.write(text)
    else:
        _emit(oracle_report_to_doc(report), job)
    if not (report.max_abs_error <= job.check_tol):
        sys.stderr.write(
            f"verification failed: max abs error {report.max_abs_error:.3e} > {job.check_tol:g}\n"
        )
        return EXIT_VERIFY
    return EXIT_OK


# --- selftest -------------------------------------------------------------------------


def _selftest_fixtures():
    import random
    from fractions import Fraction

    from .coeffs import ExactCoeff, GaussianRational
    from .continuation import PolylogElement, geometric_element, monodromy_numeric, pincherle_eval
    from .logpoly import LogLaurentPoly
    from .monodromy import (
        Divisor,
        FunctionSpec,
        Singularity,
        ene_monodromy_general,
        hadamard_monodromy_general,
        koebe_polar_function_spec,
        polylog_function_spec,
    )
    from .series import TruncatedSeries, koebe, poly_from_roots

    def ladder_exact():
        for k in range(1, 7):
            if polylog_monodromy(k) != log_ladder_monodromy(k):
                return False
        return True

    def ene_ladder_exact():
        for k in (2, 3):
            for l in (2, 3):
                got = ene_monodromy_general(polylog_function_spec(k), polylog_function_spec(l), 1)
                if got.value != -log_ladder_monodromy(k + l - 1):
                    return False
        return True

    def koebe_relation():
        rng = random.Random(101)
        n = 32
        k = koebe(n)
        for _ in range(10):
            f = TruncatedSeries([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n + 1)])
            g = TruncatedSeries([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n + 1)])
            if ene_exp(f, g) != -hadamard(k, hadamard(f, g)):
                return False
        return True

    def root_products():
        rng = random.Random(102)
        for _ in range(5):
            roots_a = [Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2])) for _ in range(2)]
            roots_b = [Fraction(rng.choice([1, -2, 3]), rng.choice([1, 2])) for _ in range(2)]
            f, g = poly_from_roots(roots_a, 16), poly_from_roots(roots_b, 16)
            expected = poly_from_roots([a * b for a in roots_a for b in roots_b], 16)
            if ene(f, g) != expected:
                return False
        return True

    def koebe_polar_action():
        rng = random.Random(103)
        koebe_spec = koebe_polar_function_spec()
        for _ in range(5):
            p = LogLaurentPoly({(rng.randint(0, 3), rng.randint(0, 2)):
                                ExactCoeff.from_rational(Fraction(rng.randint(1, 4)))})
            g = FunctionSpec.of("g", [Singularity(GaussianRational.of(1), p)])
            got = hadamard_monodromy_general(koebe_spec, g, 1).value
            if got != -(LogLaurentPoly.z() * p.derivative()):
                return False
        return True

    def divisor_example():
        f = Divisor.of({GaussianRational.of(2): 1, GaussianRational.of(3): 1})
        g = Divisor.of({GaussianRational.of(3): 1, GaussianRational.of(2): 1})
        return divisor_ene(f, g).as_dict() == {
            GaussianRational.of(6): 2, GaussianRational.of(4): 1, GaussianRational.of(9): 1,
        }

    def pincherle_geometric():
        geo = geometric_element()
        return abs(pincherle_eval(geo, geo, 0.3, radius=0.6) - 1 / 0.7) < 1e-10

    def traintrack_polylog():
        li1 = PolylogElement(1)
        measured = monodromy_numeric(li1, li1, 1.0, 0.9, tol=1e-7)
        return abs(measured - (-2j * math.pi * math.log(0.9))) < 1e-6

    def borel_zero():
        f = FunctionSpec.of("f", [Singularity(GaussianRational.of(2), LogLaurentPoly.zero())])
        symbolic_zero = hadamard_monodromy_general(f, f, 4).value.is_zero()
        geo = geometric_element()
        numeric_zero = abs(monodromy_numeric(geo, geo, 1.0, 0.9, tol=1e-8)) < 1e-10
        return symbolic_zero and numeric_zero

    return [
        ("polylog ladder, exact", ladder_exact),
        ("ene polylog ladder, exact", ene_ladder_exact),
        ("koebe relation, exact", koebe_relation),
        ("ene root products, exact", root_products),
        ("koebe polar action -z d/dz, exact", koebe_polar_action),
        ("divisor multiplicities", divisor_example),
        ("pincherle quadrature", pincherle_geometric),
        ("train-track monodromy", traintrack_polylog),
        ("borel degenerate case", borel_zero),
    ]


def cmd_selftest(args) -> int:
    failures = 0
    rows = []
    for name, check in _selftest_fixtures():
        start = time.perf_counter()
        try:
            ok = check()
        except Exception as exc:  # a fixture crash is a failure, not an abort
            ok = False
            name = f"{name} ({type(exc).__name__})"
        elapsed = time.perf_counter() - start
        rows.append((name, ok, elapsed))
        failures += 0 if ok else 1
    width = max(len(name) for name, _, _ in rows)
    for name, ok, elapsed in rows:
        sys.stdout.write(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {elapsed:7.3f}s\n")
    sys.stdout.write(f"{failures} failure(s) out of {len(rows)} fixtures\n")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# --- argument parsing -----------------------------------------------------------------


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output path (stdout always gets a copy)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hadene",
        description="Hadamard/ene products and product-singularity monodromies, exact and measured",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="coefficientwise products of series documents")
    p.add_argument("--op", choices=("hadamard", "ene_exp", "ene"), required=True)
    p.add_argument("-f", required=True, help="first series document")
    p.add_argument("-g", required=True, help="second series document")
    p.add_argument("--order", type=int, default=argparse.SUPPRESS,
                   help=f"truncation order, 1..{MAX_ORDER} (default {JobConfig.order})")
    _add_out(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("monodromy", help="symbolic product monodromy at gamma")
    p.add_argument("--product", choices=("hadamard", "ene"), default="hadamard")
    p.add_argument("-f", required=True, help="function document")
    p.add_argument("-g", required=True, help="function document")
    p.add_argument("--gamma", default="1", help="product location, e.g. 3/2 or 1+2i")
    _add_out(p)
    p.set_defaults(func=cmd_monodromy)

    p = sub.add_parser("divisor", help="product divisor of two divisor documents")
    p.add_argument("-f", required=True)
    p.add_argument("-g", required=True)
    _add_out(p)
    p.set_defaults(func=cmd_divisor)

    p = sub.add_parser("polylog", help="ladder monodromy at 1 for weight k")
    p.add_argument("--k", type=int, required=True, help=f"ladder weight, 1..{MAX_LOGPOW + 1}")
    _add_out(p)
    p.set_defaults(func=cmd_polylog)

    p = sub.add_parser("verify", help="dual-engine check at sample points")
    p.add_argument("-f", required=True)
    p.add_argument("-g", required=True)
    p.add_argument("--gamma", default="1")
    p.add_argument("--samples", required=True, help="comma-separated complex points, e.g. 0.9,0.92+0.05i")
    p.add_argument("--check-tol", type=float, default=argparse.SUPPRESS,
                   help="acceptance threshold for max error")
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS, help="quadrature tolerance")
    p.add_argument("--nodes", type=int, default=argparse.SUPPRESS,
                   help="quadrature nodes, transit-arc nodes included, one measurement may track "
                        "(exit 5 when spent)")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default=argparse.SUPPRESS)
    p.add_argument("--winding", dest="windings", metavar="WINDING", default=argparse.SUPPRESS,
                   help="comma-separated log z sheets, counted from the one continuous with Log gamma: "
                        "the principal sheet, or winding 1 of it below a gamma on the negative real axis")
    _add_out(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", help="run the embedded fixture table")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        sys.stderr.write(f"document error: {exc}\n")
        return EXIT_PARSE
    except (FieldMismatch, ValueError) as exc:
        sys.stderr.write(f"precondition violated: {exc}\n")
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
