"""The benchmark's traced pass runs and its jobs pass their checks.

`run.py --trace 1` swaps every function named in perfbench/tracing.py's
`TRACED` for a recording wrapper, found by attribute name.  A rename or
removal in `hadene` then fails the traced half of `run.py --workload all`
(`getattr` raises), and a wrapper that alters an answer fails a job's check.
This loads both benchmark files from their paths, builds each workload's pool
on one fixed seed and runs every job once inside `Instrumented`, computing
and checking as the traced pass does.  cli-jobs run through the CLI in this
process (`Job.inproc`): no child is started.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def load(name, filename):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


W = load("perfbench_workloads", "workloads.py")
T = load("perfbench_tracing", "tracing.py")


@pytest.mark.parametrize("owner, attr", [(owner, attr) for owner, attrs, _, _ in T.TRACED for attr in attrs],
                         ids=lambda value: value if isinstance(value, str) else getattr(value, "__name__", None))
def test_every_traced_attribute_resolves(owner, attr):
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_every_job_passes_its_check_in_the_traced_pass(name, tmp_path):
    workload = W.WORKLOADS[name]
    context = W.Context(tmp_path, W.ChildRunner(ROOT / "src", tmp_path))
    pool = workload.build(random.Random(SEED), context, workload.jobs)
    tracer = T.Tracer()
    instrumented = T.Instrumented(tracer)
    failures = []
    for i, job in enumerate(pool):
        with instrumented:
            ok, err = job.compare((job.inproc or job.compute)(), job.expect())
        if not ok:
            failures.append((i, job.cls, err))
    assert not failures
    assert len(tracer.start) > 0
    assert set(tracer.summary()) == set(tracer.names)
