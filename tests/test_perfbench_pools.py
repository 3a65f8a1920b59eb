"""Every benchmark job passes its own check.

The benchmark counts a job whose answer fails its check as a failure, and a
run with failures as incorrect.  This builds each workload's pool from
perfbench/workloads.py on one fixed seed and runs every job once through its
own check, so a change that breaks a benchmark answer fails here.  cli-jobs
run through the CLI in this process (`Job.inproc`): no child is started.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


W = load_workloads()


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_every_job_of_the_pool_passes_its_check(name, tmp_path):
    workload = W.WORKLOADS[name]
    context = W.Context(tmp_path, W.ChildRunner(ROOT / "src", tmp_path))
    pool = workload.build(random.Random(SEED), context, workload.jobs)
    assert len(pool) == workload.jobs
    failures = []
    for i, job in enumerate(pool):
        ok, err = job.compare((job.inproc or job.compute)(), job.expect())
        if not ok:
            failures.append((i, job.cls, err))
    assert not failures
