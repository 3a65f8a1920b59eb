"""hadene benchmark: four seeded workloads, closed loop, one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload series-exact --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

`--trace 0` runs the timed loop and reports the end-to-end metrics; `--trace 1`
runs the traced pass and reports the per-layer metrics; `--workload all` runs
both for every workload, each in its own process.  Each job starts when the
previous one has finished and checks its own answer; a failed job is counted,
never fatal.  The timed loop repeats one pass over the workload's jobs.  The
times it reports are corrected for other load on the host, which a calibration
probe after every job measures (see `end_to_end`).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# Pinned before numpy loads (through hadene), and inherited by every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_PROBES = 3
MIN_PASSES = 3      # the timed run repeats every job at least this often
PROBE_WINDOW = 0.25  # seconds either side of an interval whose probes measure the host
SETUP_BURST = 10     # probes before and after each set-up, which has no probes inside
START_PROBES = 5
# -log10 of the smallest error counted (double precision); also the value on
# workloads whose checks are all exact
DIGITS_CAP = 16.0
TAIL_BEYOND = 10    # samples that must lie beyond the reported tail percentile

E2E_UNITS = {
    "jobs_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms", "fail_ratio": "1",
    "agree_digits": "digits", "setup_s": "s", "peak_rss_mb": "MB",
}
# Printed with the others but left out of the result line: it is 0 on a healthy
# run, and the result line carries the same numbers as `attempted` and `failed`.
NOT_IN_RESULT = ("fail_ratio",)
CLI_COMMANDS = ("polylog", "monodromy", "series", "divisor", "verify")


def per_layer_units(layer_spans) -> dict[str, str]:
    units = {}
    for name in layer_spans:
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s", f"{name}.self_s": "s"})
    units.update({
        "coeffs.terms_out": "count", "series.order_sum": "count", "series.coeff_bits_max": "bits",
        "logpoly.terms_out": "count", "monodromy.result_terms": "count", "monodromy.pairs": "count",
        "continuation.agree_digits_min": "digits",
        "cli.python_start_ms": "ms", "cli.import_ms": "ms",
        **{f"cli.{cmd}.p50_ms": "ms" for cmd in CLI_COMMANDS},
        "cli.child_rss_mb": "MB", "bench.check.self_s": "s", "bench.trace_overhead": "ratio",
    })
    return units


# --- running jobs ------------------------------------------------------------------------


class Outcome(NamedTuple):
    cls: str
    latency: float          # seconds, compute and check together
    ok: bool
    err: float | None       # numeric error, for checks with a tolerance
    error: str | None       # the exception, if the job raised one


def run_job(job, compute=None, expected=None, tracer=None, job_id=0) -> Outcome:
    """Compute, then check; an exception is a failed job, not an abort.  With a
    tracer, the job span is the root and the check gets a span of its own."""
    compute = compute or job.compute
    if tracer is not None:
        tracer.job_id = job_id
    t0 = time.perf_counter()
    root = tracer.open(tracer.name_id(tracer.JOB)) if tracer is not None else None
    try:
        result = compute()
        check = tracer.open(tracer.name_id(tracer.CHECK)) if tracer is not None else None
        try:
            want = job.expect() if expected is None else expected
            ok, err = job.compare(result, want)
        finally:
            if check is not None:
                tracer.close(check)
        error = None
    except Exception as exc:  # the run records the failure and goes on
        ok, err, error = False, None, f"{type(exc).__name__}: {exc}"
    finally:
        if root is not None:
            tracer.close(root)
    return Outcome(job.cls, time.perf_counter() - t0, bool(ok), err, error)


def warm_up(pool) -> list[Outcome]:
    """One job of each class, in pool order."""
    seen, out = set(), []
    for job in pool:
        if job.cls not in seen:
            seen.add(job.cls)
            out.append(run_job(job))
    return out


def self_check(pool) -> bool:
    """Feed a job the expected value of another job of its class; the check
    must count that as a failure."""
    for i, job in enumerate(pool):
        mine = job.expect()
        for other in pool[i + 1:]:
            if other.cls == job.cls:
                wrong = other.expect()
                if wrong != mine:
                    return not run_job(job, expected=wrong).ok
    raise RuntimeError("self-check found no two jobs of one class with different expected values")


def digits(outcomes) -> float:
    """min(-log10 err) over the jobs with a numeric error; 0 if one is NaN or infinite."""
    errs = [o.err for o in outcomes if o.err is not None]
    if not errs:
        return DIGITS_CAP
    if not all(math.isfinite(e) for e in errs):
        return 0.0
    worst = max(errs)
    return DIGITS_CAP if worst <= 10.0 ** -DIGITS_CAP else -math.log10(worst)


def report_failures(outcomes, label: str) -> None:
    bad = [o for o in outcomes if not o.ok]
    for o in bad[:5]:
        print(f"{label}: failed {o.cls} job: {o.error or f'wrong answer (err={o.err})'}", file=sys.stderr)
    if len(bad) > 5:
        print(f"{label}: {len(bad) - 5} more failures", file=sys.stderr)


# --- the two kinds of run ----------------------------------------------------------------


def calibration_kernel() -> None:
    """About a millisecond of fixed interpreter work (rational products, dict
    updates, a sort) that uses nothing from hadene, so no change to the library
    moves it; only the host's speed does."""
    values = [Fraction(3 * i - 17, 5 * i + 7) for i in range(12)]
    product = [Fraction(0)] * 23
    for i, x in enumerate(values):
        for j, y in enumerate(values):
            product[i + j] += x * y
    counts: dict[tuple[int, int], int] = {}
    for k in range(600):
        counts[(k % 31, k % 7)] = counts.get((k % 31, k % 7), 0) + k * k
    sorted(counts.items())


class HostMeter:
    """Calibration probes taken through a run.  On a shared host other tenants
    slow this process by up to half for seconds or minutes at a time; the probes
    nearest an interval say by how much, and the fastest probe of the run is
    the quiet host."""

    def __init__(self):
        self.at: list[float] = []     # perf_counter at the end of each probe, ascending
        self.took: list[float] = []   # duration of each probe

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            calibration_kernel()
            now = time.perf_counter()
            self.at.append(now)
            self.took.append(now - t0)

    def factor(self, begin: float, end: float) -> float:
        """Fastest probe over the mean probe within PROBE_WINDOW of [begin, end]:
        1 on a quiet host, less while the host is busy."""
        lo = bisect.bisect_left(self.at, begin - PROBE_WINDOW)
        hi = bisect.bisect_right(self.at, end + PROBE_WINDOW)
        return min(self.took) / statistics.fmean(self.took[lo:hi])


def timed_run(jobs, seconds: float, meter: HostMeter) -> tuple[list[Outcome], list[float], int, float]:
    """Closed loop over passes of `jobs`, in order, until `seconds` have passed
    and MIN_PASSES passes are complete; the last pass may stop part way.  A
    probe follows every job.  Also returns when each outcome began, and the
    passes begun."""
    outcomes, starts = [], []
    start = time.perf_counter()
    deadline = start + seconds
    passes = 0
    while True:
        passes += 1
        for i, job in enumerate(jobs):
            starts.append(time.perf_counter())
            outcomes.append(run_job(job))
            meter.probe()
            now = time.perf_counter()
            complete = passes - (i < len(jobs) - 1)
            if now >= deadline and complete >= MIN_PASSES:
                return outcomes, starts, passes, now - start


def tail(latencies) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(0, n - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / n


def setup_intervals(workload: str, seed: int, meter: HostMeter) -> list[tuple[float, float]]:
    """Start and end of fresh interpreters that import hadene, build the pool
    and warm up, with probes just before and after each."""
    intervals = []
    for _ in range(SETUP_PROBES):
        meter.probe(SETUP_BURST)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        intervals.append((t0, time.perf_counter()))
        meter.probe(SETUP_BURST)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-400:]}")
    return intervals


def end_to_end(wl, pool, seed: int, seconds: float, runner) -> tuple[dict, dict, list[Outcome]]:
    """Times are host-corrected: each wall time is scaled by the meter's factor
    around it, so that it reads what the work takes on a quiet host.  A job's
    latency is the median of its corrected repeats.  The info line keeps the
    wall-clock figures."""
    meter = HostMeter()
    setups = setup_intervals(wl.name, seed, meter)
    outcomes, starts, passes, elapsed = timed_run(pool, seconds, meter)
    n = len(pool)
    repeats: list[list[float]] = [[] for _ in pool]
    factors = []
    for i, (begin, o) in enumerate(zip(starts, outcomes)):
        factors.append(meter.factor(begin, begin + o.latency))
        repeats[i % n].append(o.latency * factors[-1])
    latencies = [statistics.median(r) for r in repeats]
    tail_value, tail_pct = tail(latencies)
    correct_jobs = n - len({i % n for i, o in enumerate(outcomes) if not o.ok})
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + runner.max_rss_kb
    metrics = {
        "jobs_per_s": correct_jobs / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_value,
        "fail_ratio": sum(not o.ok for o in outcomes) / len(outcomes),
        "agree_digits": digits(outcomes[:n]),
        "setup_s": statistics.median((end - begin) * meter.factor(begin, end) for begin, end in setups),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    info = {
        "jobs_per_pass": n,
        "passes": passes,
        "samples": len(outcomes),
        "latency_tail_percentile": round(tail_pct, 2),
        "host_factor_median": statistics.median(factors),
        "wall_elapsed_s": elapsed,
        "wall_jobs_per_s": len(outcomes) / elapsed,
        "wall_latency_p50_ms": 1e3 * statistics.median(o.latency for o in outcomes),
        "wall_setup_s": [end - begin for begin, end in setups],
        "by_class": _by_class(pool, latencies),
    }
    return metrics, info, outcomes


def _by_class(jobs, latencies) -> dict[str, dict]:
    """Job count and median latency of each job class in a pass."""
    by_cls: dict[str, list[float]] = {}
    for job, latency in zip(jobs, latencies):
        by_cls.setdefault(job.cls, []).append(latency)
    return {cls: {"jobs": len(v), "p50_ms": 1e3 * statistics.median(v)} for cls, v in by_cls.items()}


def start_probes_ms(code: str) -> float:
    """Median wall time of `python -c code` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(START_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def import_probe_ms() -> float:
    """Median time of `import hadene` measured inside fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import time; t = time.perf_counter(); import hadene; print(time.perf_counter() - t)"
    times = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True).stdout) for _ in range(START_PROBES)]
    return 1e3 * statistics.median(times)


def traced_run(wl, pool, runner) -> tuple[dict, dict, list[Outcome]]:
    """One pass, each job run untraced and then traced (so that drift in the
    machine's speed hits both alike); cli-jobs also runs them as children."""
    import tracing

    jobs = pool
    children = [run_job(job) for job in jobs if job.inproc]
    tracer = tracing.Tracer()
    instrumented = tracing.Instrumented(tracer)
    untraced, traced = [], []
    for i, job in enumerate(jobs):
        compute = job.inproc or job.compute
        untraced.append(run_job(job, compute))
        with instrumented:
            traced.append(run_job(job, compute, tracer=tracer, job_id=i))
    outcomes = children + untraced + traced
    untraced_s = sum(o.latency for o in untraced)
    traced_s = sum(o.latency for o in traced)

    spans = tracer.summary()
    metrics = {}
    for name in tracing.LAYER_SPANS:
        calls, busy, own = spans.get(name, (0, 0.0, 0.0))
        metrics.update({f"{name}.calls": calls, f"{name}.busy_s": busy, f"{name}.self_s": own})
    metrics.update(tracer.counts)
    metrics["continuation.agree_digits_min"] = digits(traced)
    metrics["cli.python_start_ms"] = start_probes_ms("pass")
    metrics["cli.import_ms"] = import_probe_ms()
    for cmd in CLI_COMMANDS:
        mine = [o.latency for o in children if o.cls == cmd]
        metrics[f"cli.{cmd}.p50_ms"] = 1e3 * statistics.median(mine) if mine else 0.0
    metrics["cli.child_rss_mb"] = runner.max_rss_kb / 1024.0
    metrics["bench.check.self_s"] = spans.get(tracer.CHECK, (0, 0.0, 0.0))[2]
    metrics["bench.trace_overhead"] = traced_s / untraced_s

    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"trace-{wl.name}-{os.getpid()}.npz"
    tracer.write(trace_path)
    info = {"traced_jobs": len(jobs), "spans": len(tracer.start), "untraced_s": untraced_s,
            "traced_s": traced_s, "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, info, outcomes


# --- entry points ------------------------------------------------------------------------


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(), "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_one(args) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    work_dir = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = workloads.ChildRunner(SRC, work_dir)
        pool = wl.build(random.Random(args.seed), workloads.Context(work_dir, runner), wl.jobs)
        warm = warm_up(pool)
        report_failures(warm, "warm-up")
        if args.setup_probe:
            return 0  # a failed warm-up job is reported, and counted by the measuring run
        caught = self_check(pool)
        if not caught:
            print("self-check: a wrong expected value was not counted as a failure", file=sys.stderr)
        if args.trace:
            import tracing

            metrics, info, outcomes = traced_run(wl, pool, runner)
            units = per_layer_units(tracing.LAYER_SPANS)
        else:
            metrics, info, outcomes = end_to_end(wl, pool, args.seed, args.seconds, runner)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    report_failures(outcomes, wl.name)
    failed = sum(not o.ok for o in outcomes)
    correct = failed == 0 and caught and all(o.ok for o in warm)
    print(f"# {wl.name}: {wl.why}")
    for name, value in metrics.items():
        print(f"{wl.name}  {name:<48} {value:>16.6f} {units[name]}")
    print(json.dumps({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                      "self_check_caught": caught, "environment": environment(), **info}))
    print(json.dumps({
        "correct": correct, "attempted": len(outcomes), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if name not in NOT_IN_RESULT},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"{name} (trace {trace}) exited {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "hadene" / "__init__.py").is_file():
        print(f"no hadene sources under {SRC}; run from the root of a hadene checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
