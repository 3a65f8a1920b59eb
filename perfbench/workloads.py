"""Seeded job pools for the four benchmark workloads.

A job is one closed-loop request: ``compute`` calls the library on inputs
that were generated before any timing starts, ``expect`` produces the value
the answer must match (it may call the library too: symmetry and identity
checks compare two library routes), and ``compare`` decides pass or fail and
returns the numeric error where there is one.

Every pool follows a fixed schedule of job classes and structural parameters
(orders, root counts, term counts, which singularities are polar); the seed
draws only the values inside that schedule.  Runs on different seeds therefore
do the same kind and amount of work on different numbers, which keeps the
run-to-run spread small.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from hadene import cli as CLI
from hadene import coeffs as CO
from hadene import continuation as C
from hadene import documents as D
from hadene import logpoly as L
from hadene import monodromy as M
from hadene import series as S

GR = CO.GaussianRational

# Exact locations from which singularities and divisor points are drawn.
LOCATIONS = (
    GR.of(1), GR.of(2), GR.of(3), GR.of(Fraction(1, 2)), GR.of(Fraction(3, 2)),
    GR.of(-2), GR.of(1, 1), GR.of(2, -1),
)


@dataclass
class Job:
    """One request: its class, the library call, the expected value, the check."""

    cls: str
    compute: Callable[[], Any]
    expect: Callable[[], Any]
    compare: Callable[[Any, Any], tuple[bool, float | None]]
    # cli-jobs only: the same command run through hadene.cli.main in this process
    inproc: Callable[[], Any] | None = None


def exact(result, expected) -> tuple[bool, None]:
    return result == expected, None


def within(tol: float) -> Callable[[Any, Any], tuple[bool, float]]:
    def compare(result, expected):
        err = abs(result - expected)
        return err <= tol, err  # a NaN error fails
    return compare


@dataclass
class Context:
    """What a pool builder may use besides the seed: a scratch directory for
    documents and the runner that starts CLI children."""

    work_dir: Path
    runner: "ChildRunner"


# --- series-exact ----------------------------------------------------------------------

# The root products take most of the time; the exp/log round trips are half the
# jobs, so the median job is one of them and does not move with the mix of orders.
_SERIES_ROUND = ("ene_roots", "exp_log", "koebe", "exp_log", "ene_roots", "exp_log",
                 "ene_roots", "exp_log")
# (order, roots of f, roots of g): a Latin square over the four orders, so that
# every root-count pair occurs once and each order meets every root count on each
# side.  A run covers the cycle several times.
_ENE_PLAN = [(32, 1, 1), (128, 1, 4), (64, 1, 2), (96, 1, 3),
             (96, 2, 4), (64, 2, 3), (128, 2, 1), (32, 2, 2),
             (64, 3, 4), (32, 3, 3), (96, 3, 1), (128, 3, 2),
             (128, 4, 3), (96, 4, 2), (32, 4, 4), (64, 4, 1)]


def _root(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))


def _random_rational_series(rng: random.Random, order: int) -> S.TruncatedSeries:
    return S.TruncatedSeries([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)])


def _ene_roots_job(rng: random.Random, i: int) -> Job:
    order, a, b = _ENE_PLAN[i % len(_ENE_PLAN)]
    roots_f = [_root(rng) for _ in range(a)]
    roots_g = [_root(rng) for _ in range(b)]
    roots_fg = [x * y for x in roots_f for y in roots_g]
    return Job(
        "ene_roots",
        lambda: S.ene(S.poly_from_roots(roots_f, order), S.poly_from_roots(roots_g, order)),
        lambda: S.poly_from_roots(roots_fg, order),
        exact,
    )


def _koebe_job(rng: random.Random, i: int) -> Job:
    order = 256
    f, g = _random_rational_series(rng, order), _random_rational_series(rng, order)
    return Job(
        "koebe",
        lambda: S.ene_exp(f, g),
        lambda: -S.hadamard(S.koebe(order), S.hadamard(f, g)),
        exact,
    )


def _exp_log_job(rng: random.Random, i: int) -> Job:
    f = S.TruncatedSeries([1] + [rng.randint(-3, 3) for _ in range(64)])
    return Job("exp_log", lambda: S.exp_series(S.log_series(f)), lambda: f, exact)


def build_series_exact(rng: random.Random, ctx: Context, size: int) -> list[Job]:
    makers = {"ene_roots": _ene_roots_job, "koebe": _koebe_job, "exp_log": _exp_log_job}
    return _scheduled(rng, _SERIES_ROUND, makers, size)


# --- symbolic-monodromy --------------------------------------------------------------------

# Product monodromies are 8 of 14 jobs, so the median job is one of the cheaper
# of them, inside their continuous spread of costs rather than at a class edge.
_SYMBOLIC_ROUND = ("hadamard", "ene", "ladder", "hadamard", "ene", "kernel", "hadamard",
                   "ene", "ene_ladder", "koebe_polar", "hadamard", "ene", "leibniz", "divisor")
_ENE_LADDER_PLAN = [(k, l) for k in range(2, 8) for l in range(2, 8)]


def _small_gaussian(rng: random.Random) -> GR:
    re = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.3 else Fraction(0)
    return GR(re, im)


def _log_poly(rng: random.Random, terms: int, with_two_pi_i: bool, first_logpow: int,
              zpows: tuple[int, int] = (0, 4)) -> L.LogLaurentPoly:
    """1-3 terms; the log powers cycle through 0, 1, 2 from `first_logpow`, since
    they set the cost of the exact integrals."""
    out = {}
    for t in range(terms):
        coeff = _small_gaussian(rng)
        value = CO.ExactCoeff.two_pi_i(1, coeff) if with_two_pi_i else CO.ExactCoeff.from_gaussian(coeff)
        out[(rng.randint(*zpows), (first_logpow + t) % 3)] = value
    return L.LogLaurentPoly(out)


class _SpecMaker:
    """Function specs whose structure follows a fixed cycle over singularities:
    1-3 monodromy terms, every other one carrying 2pii, every fourth polar."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.count = 0

    def singularity(self, location: GR) -> M.Singularity:
        n = self.count
        self.count += 1
        monodromy = _log_poly(self.rng, 1 + n % 3, n % 2 == 0, n // 3)
        germ = M.GermPart.totally_holomorphic()
        if n % 4 == 3:
            order = 1 + (n // 4) % 2
            lead = Fraction(self.rng.choice((-1, 1)) * self.rng.randint(1, 3))
            lower = [Fraction(self.rng.randint(-3, 3), self.rng.randint(1, 3)) for _ in range(order - 1)]
            germ = M.GermPart.polar_part(lower + [lead])
        return M.Singularity(location, monodromy, germ)

    def spec(self, name: str, locations) -> M.FunctionSpec:
        return M.FunctionSpec.of(name, [self.singularity(loc) for loc in locations])


def _pair_specs(rng: random.Random, maker: _SpecMaker, i: int):
    """Every fifth pair puts both functions on the same two locations, so the
    product location alpha1*alpha2 collects two factorizations."""
    if i % 5 == 4:
        a1, a2 = rng.sample(LOCATIONS, 2)
        return maker.spec("f", (a1, a2)), maker.spec("g", (a2, a1)), a1 * a2
    a, b = rng.choice(LOCATIONS), rng.choice(LOCATIONS)
    return maker.spec("f", (a,)), maker.spec("g", (b,)), a * b


def _kernel_coeff(rng: random.Random, terms: int) -> CO.ExactCoeff:
    """`terms` monomials in one or two symbols each: the term counts, not the seed,
    set the size of a product, whose cost would otherwise swing with the seed."""
    alphas = rng.sample(LOCATIONS[1:], 2)
    symbols = [CO.two_pi_i_symbol()] + [CO.log_symbol(a) for a in alphas] + [CO.loc_symbol(a) for a in alphas]
    total = CO.ExactCoeff.zero()
    for t in range(terms):
        powers = {sym: rng.choice((-2, -1, 1, 2)) for sym in rng.sample(symbols, 1 + t % 2)}
        total = total + CO.ExactCoeff.monomial(powers, _small_gaussian(rng))
    return total


def _fold_mul(values):
    out = values[0]
    for v in values[1:]:
        out = out * v
    return out


def _fold_add(values):
    out = values[0]
    for v in values[1:]:
        out = out + v
    return out


def _divisor(rng: random.Random) -> M.Divisor:
    points = rng.sample(LOCATIONS, rng.randint(2, 4))
    return M.Divisor.of([(p, rng.choice((-1, 1)) * rng.randint(1, 3)) for p in points])


def _divisor_compare(result: M.Divisor, expected) -> tuple[bool, None]:
    degree, max_support = expected
    mults = [m for _, m in result.points]
    ok = sum(mults) == degree and all(mults) and len(mults) <= max_support
    return ok, None


def build_symbolic_monodromy(rng: random.Random, ctx: Context, size: int) -> list[Job]:
    maker = _SpecMaker(rng)
    koebe = M.koebe_polar_function_spec()
    pair_index = itertools.count()

    def pair_job(product: str) -> Callable[[random.Random, int], Job]:
        engine = "hadamard_monodromy_general" if product == "hadamard" else "ene_monodromy_general"

        def make(rng: random.Random, i: int) -> Job:
            f, g, gamma = _pair_specs(rng, maker, next(pair_index))
            # both products are symmetric in their arguments, exactly
            return Job(
                product,
                lambda: getattr(M, engine)(f, g, gamma).value,
                lambda: getattr(M, engine)(g, f, gamma).value,
                exact,
            )
        return make

    def ladder(rng: random.Random, i: int) -> Job:
        k = 8 + i % 9
        return Job("ladder", lambda: M.polylog_monodromy(k), lambda: M.log_ladder_monodromy(k), exact)

    def ene_ladder(rng: random.Random, i: int) -> Job:
        k, l = _ENE_LADDER_PLAN[i % len(_ENE_LADDER_PLAN)]
        f, g = M.polylog_function_spec(k), M.polylog_function_spec(l)
        return Job(
            "ene_ladder",
            lambda: M.ene_monodromy_general(f, g, 1).value,
            lambda: -M.log_ladder_monodromy(k + l - 1),
            exact,
        )

    def koebe_polar(rng: random.Random, i: int) -> Job:
        p = _log_poly(rng, 1 + i % 3, i % 2 == 0, i // 3, zpows=(0, 3))
        g = M.FunctionSpec.of("g", [M.Singularity(GR.of(1), p)])
        return Job(
            "koebe_polar",
            lambda: M.hadamard_monodromy_general(koebe, g, 1).value,
            lambda: -(L.LogLaurentPoly.z() * p.derivative()),
            exact,
        )

    def divisor(rng: random.Random, i: int) -> Job:
        f, g = _divisor(rng), _divisor(rng)
        degree = sum(m for _, m in f.points) * sum(m for _, m in g.points)
        return Job("divisor", lambda: M.divisor_ene(f, g),
                   lambda: (degree, len(f.points) * len(g.points)), _divisor_compare)

    def kernel(rng: random.Random, i: int) -> Job:
        cs = [_kernel_coeff(rng, 1 + (i + t) % 3) for t in range(4 + i % 5)]
        head, rest = cs[0], cs[1:]
        return Job(
            "kernel",
            lambda: (_fold_mul(cs), _fold_add(cs), head * _fold_add(rest)),
            lambda: (_fold_mul(cs[::-1]), _fold_add(cs[::-1]), _fold_add([head * c for c in rest])),
            exact,
        )

    def leibniz(rng: random.Random, i: int) -> Job:
        # the monodromy operator M = sigma - 1 obeys M(pq) = M(p)q + pM(q) + M(p)M(q)
        p = _log_poly(rng, 1 + i % 3, False, i // 3, zpows=(-2, 3))
        q = _log_poly(rng, 1 + (i + 1) % 3, True, i // 3 + 1, zpows=(-2, 3))

        def expect():
            mp, mq = p.monodromy_at_zero(), q.monodromy_at_zero()
            return mp * q + p * mq + mp * mq
        return Job("leibniz", lambda: (p * q).monodromy_at_zero(), expect, exact)

    makers = {
        "hadamard": pair_job("hadamard"), "ene": pair_job("ene"), "ladder": ladder,
        "ene_ladder": ene_ladder, "koebe_polar": koebe_polar, "divisor": divisor,
        "kernel": kernel, "leibniz": leibniz,
    }
    return _scheduled(rng, _SYMBOLIC_ROUND, makers, size)


# --- oracle-traintrack -----------------------------------------------------------------------

# 40% train-track by count.  The loop ("continue") jobs are 40% too, and the
# quadrature jobs are cheaper than the train-track ones, so the median job falls
# among the loops around Li_3 (k alternates 2, 3), away from any step in the cost
# distribution; it does not jump between classes from one run to the next.
_ORACLE_ROUND = ("traintrack", "continue", "pincherle", "traintrack", "continue",
                 "ene_pincherle", "traintrack", "continue", "continue", "traintrack")
TRAINTRACK_TOL = 1e-6
QUADRATURE_TOL = 1e-10


def _polylog_reference(k: int, z: complex) -> complex:
    """Li_k(z) for |z| <= 0.7 by direct summation: the benchmark's own reference."""
    total, n, power = 0j, 1, z
    while abs(power) > 1e-19 * n ** k:
        total += power / n ** k
        n += 1
        power *= z
    return total


def _function_pairs() -> dict:
    """name -> ((f spec, f element), (g spec, g element)): the exact spec feeds the
    symbolic side, the element the oracle, which never sees the spec."""
    two_pi_i = CO.ExactCoeff.two_pi_i()

    def li(k):
        return M.polylog_function_spec(k), C.PolylogElement(k)

    def at_one(name, monodromy):
        return M.FunctionSpec.of(name, [M.Singularity(GR.of(1), monodromy)])

    geo = at_one("geo", L.LogLaurentPoly.zero())
    return {
        "li1xli1": (li(1), li(1)), "li2xli1": (li(2), li(1)),
        "li3xli1": (li(3), li(1)), "li2xli2": (li(2), li(2)),
        "logbranch": (
            (at_one("f", L.LogLaurentPoly.term(1, 0, 1).scale(two_pi_i)), C.LogBranchElement(1.0, [0.0, 1.0])),
            (at_one("g", L.LogLaurentPoly.constant(two_pi_i)), C.LogBranchElement(1.0)),
        ),
        "geometric": ((geo, C.geometric_element()), (geo, C.geometric_element())),
    }


def _near_one(rng: random.Random) -> complex:
    rho = rng.uniform(0.07, 0.12)
    theta = math.radians(rng.uniform(120.0, 240.0))
    return 1.0 + rho * cmath.exp(1j * theta)


def _format_point(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}i"


def _inside_disc(rng: random.Random) -> complex:
    return rng.uniform(0.1, 0.5) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def build_oracle_traintrack(rng: random.Random, ctx: Context, size: int) -> list[Job]:
    kinds = list(_function_pairs().items())
    # symbolic values are inputs of the check, computed once per class before timing
    symbolic = {name: M.hadamard_monodromy_general(fs, gs, 1).value for name, ((fs, _), (gs, _)) in kinds}

    def traintrack(rng: random.Random, i: int) -> Job:
        name, ((_, f), (_, g)) = kinds[i % len(kinds)]
        z0 = complex(rng.uniform(0.88, 0.94)) if name == "geometric" else _near_one(rng)
        sym = symbolic[name]
        return Job(
            "traintrack",
            lambda: C.monodromy_numeric(f, g, 1.0, z0, tol=1e-8),
            lambda: sym.lp_eval(L.BranchPoint(z0, 0)),
            within(TRAINTRACK_TOL),
        )

    def pincherle(rng: random.Random, i: int) -> Job:
        k = 1 + i % 2
        z = _inside_disc(rng)
        f, g, ref = C.PolylogElement(k), C.geometric_element(), _polylog_reference(k, z)
        return Job("pincherle", lambda: C.pincherle_eval(f, g, z), lambda: ref, within(QUADRATURE_TOL))

    def ene_pincherle(rng: random.Random, i: int) -> Job:
        z = _inside_disc(rng)
        geo, ref = C.geometric_element(), -z / (1.0 - z) ** 2
        return Job("ene_pincherle", lambda: C.ene_pincherle_eval(geo, geo, z), lambda: ref,
                   within(QUADRATURE_TOL))

    def loop(rng: random.Random, i: int) -> Job:
        # one positive loop around 1 adds the ladder jump -(2pii/(k-1)!) log(u)^(k-1)
        k = 2 + i % 2
        radius = rng.uniform(0.3, 0.6)
        phi = math.radians(rng.uniform(150.0, 210.0))
        start = 1.0 + radius * cmath.exp(1j * phi)
        path = [C.Arc(1.0, radius, phi, phi + 2.0 * math.pi)]
        element, before = C.PolylogElement(k), _polylog_reference(k, start)
        jump = -2j * math.pi / math.factorial(k - 1) * cmath.log(start) ** (k - 1)
        return Job("continue", lambda: C.continue_along(element, path)[0] - before, lambda: jump,
                   within(QUADRATURE_TOL))

    makers = {"traintrack": traintrack, "pincherle": pincherle, "ene_pincherle": ene_pincherle,
              "continue": loop}
    return _scheduled(rng, _ORACLE_ROUND, makers, size)


# --- cli-jobs --------------------------------------------------------------------------------

# Two verify jobs in six, three of four with two samples: these are the dearest
# jobs.  In a pass of 24 the median and the tail (11 jobs beyond it) both fall
# among the commands whose time is mostly start-up, away from the step up to verify.
_CLI_ROUND = ("polylog", "verify", "monodromy", "series", "divisor", "verify")


class ChildRunner:
    """Starts one `python -m hadene.cli` child at a time and keeps the largest
    peak RSS among them.  Children inherit the driver's environment, in which
    the BLAS thread counts are pinned to 1."""

    def __init__(self, src: Path, work_dir: Path):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.err_path = work_dir / "child.stderr"
        self.max_rss_kb = 0

    def run(self, argv: list[str]) -> tuple[int, str]:
        with open(self.err_path, "w+b") as err:
            child = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE, stderr=err,
                                     env=self.env)
            with child.stdout:
                out = child.stdout.read()
            # wait4 reaps the child and reports the peak RSS of this child alone
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
            self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
            if child.returncode != 0:
                err.seek(0)
                raise RuntimeError(f"exit {child.returncode}: {err.read()[-300:].decode(errors='replace')}")
        return child.returncode, out.decode()


def cli_in_process(args: list[str]) -> tuple[int, str]:
    """The CLI's own load -> compute -> dump chain, run through cli.main here."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = CLI.main(args)
        except SystemExit as exc:  # argparse exits on a bad command line, as the CLI would
            code = exc.code
    return code, buffer.getvalue()


def _cli_compare(result: tuple[int, str], expected: str) -> tuple[bool, float | None]:
    code, out = result
    return code == 0 and out == expected, None


def _verify_compare(result: tuple[int, str], expected: str) -> tuple[bool, float | None]:
    ok, _ = _cli_compare(result, expected)
    try:
        err = float(json.loads(result[1])["max_abs_error"])
    except (ValueError, KeyError, TypeError):
        return False, None
    return ok, err


def build_cli_jobs(rng: random.Random, ctx: Context, size: int) -> list[Job]:
    maker = _SpecMaker(rng)
    pairs = _function_pairs()
    verify_pairs = [pairs[name] for name in ("li1xli1", "logbranch", "geometric")]

    def write(name: str, doc) -> str:
        path = ctx.work_dir / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def job(cls: str, args: list[str], compare=_cli_compare) -> Job:
        # the reference is this process's stdout; the check also demands exit 0
        _, expected = cli_in_process(args)
        return Job(cls, lambda: ctx.runner.run(["-m", "hadene.cli", *args]), lambda: expected,
                   compare, inproc=lambda: cli_in_process(args))

    def polylog(rng, i):
        return job("polylog", ["polylog", "--k", "12"])

    def monodromy(rng, i):
        f, g, gamma = _pair_specs(rng, maker, i)
        product = ("hadamard", "ene")[i % 2]
        return job("monodromy", ["monodromy", "--product", product,
                                 "-f", write(f"mono{i}_f", D.function_spec_to_doc(f)),
                                 "-g", write(f"mono{i}_g", D.function_spec_to_doc(g)),
                                 f"--gamma={gamma}"])

    def series(rng, i):
        docs = []
        for side in "fg":
            roots = [_root(rng) for _ in range(1 + (i + len(docs)) % 3)]
            poly = S.poly_from_roots(roots, len(roots))
            docs.append(write(f"series{i}_{side}", D.series_to_doc(poly, polynomial=True)))
        return job("series", ["series", "--op", "ene", "--order", "64", "-f", docs[0], "-g", docs[1]])

    def divisor(rng, i):
        return job("divisor", ["divisor", "-f", write(f"div{i}_f", D.divisor_to_doc(_divisor(rng))),
                               "-g", write(f"div{i}_g", D.divisor_to_doc(_divisor(rng)))])

    def verify(rng, i):
        (fs, fe), (gs, ge) = verify_pairs[i % len(verify_pairs)]
        samples = ",".join(_format_point(_near_one(rng)) for _ in range(1 if i % 4 == 3 else 2))
        return job("verify", ["verify", "-f", write(f"verify{i}_f", D.function_spec_to_doc(fs, fe)),
                              "-g", write(f"verify{i}_g", D.function_spec_to_doc(gs, ge)),
                              "--gamma", "1", "--samples", samples], _verify_compare)

    makers = {"polylog": polylog, "monodromy": monodromy, "series": series, "divisor": divisor,
              "verify": verify}
    return _scheduled(rng, _CLI_ROUND, makers, size)


# --- registry ------------------------------------------------------------------------------------


def _scheduled(rng: random.Random, schedule, makers, size: int) -> list[Job]:
    """Fill `size` slots by cycling through `schedule`; each class numbers its own jobs."""
    seen = {cls: 0 for cls in makers}
    jobs = []
    for slot in range(size):
        cls = schedule[slot % len(schedule)]
        jobs.append(makers[cls](rng, seen[cls]))
        seen[cls] += 1
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random, Context, int], list[Job]]
    jobs: int   # jobs in one pass: the timed run repeats the pass, the traced run makes it once


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "series-exact",
            "exact rational series products: O(N^2) cauchy_mul and the log/exp recurrences "
            "take the time; coeffs symbols, logpoly and continuation do not run",
            build_series_exact, jobs=48,
        ),
        Workload(
            "symbolic-monodromy",
            "exact product monodromies, ladders and kernels: symbol-heavy ExactCoeff and "
            "integrate_u work takes the time, with no floats",
            build_symbolic_monodromy, jobs=280,
        ),
        Workload(
            "oracle-traintrack",
            "contour oracle: train-track jobs set the rate and the tail, short quadrature "
            "jobs set the median, so a tracking speed-up that slows the principal path shows",
            build_oracle_traintrack, jobs=40,
        ),
        Workload(
            "cli-jobs",
            "one CLI child at a time on generated documents: the only workload where "
            "documents, cli and per-process start-up (import hadene) cost anything",
            build_cli_jobs, jobs=24,
        ),
    )
}
