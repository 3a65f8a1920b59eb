"""Every demo script runs to completion; the exact-only ring demo prints its pinned output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# demo 03 is exact only, so its output is the same on every machine
LOG_POLYNOMIAL_RING_OUTPUT = (
    "monodromy of log z          : [(1)*2pii]*1\n"
    "monodromy of z^3            : 0\n"
    "monodromy of (log z)^2      : [(1)*2pii^2]*1 + [(2)*2pii]*log z\n"
    "\n"
    "leibniz identity exactly    : True\n"
    "triple loop = binomial sum  : True\n"
    "\n"
    "integral of du/u from 1 to z          : [(1)]*log z\n"
    "integral of (log u)^2 du/u from 1 to z: [(1/3)]*(log z)^3\n"
    "integral of u log u du from 2 to z/2  : [(1) + (-2)*log(2)]*1 + [(-1/16) + (-1/8)*log(2)]*z^2 + [(1/8)]*z^2*log z\n"
)


def run_demo(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_zero(script):
    done = run_demo(script)
    assert done.returncode == 0, done.stderr


def test_log_polynomial_ring_demo_prints_its_pinned_output():
    done = run_demo(ROOT / "demos" / "03_log_polynomial_ring.py")
    assert done.stdout == LOG_POLYNOMIAL_RING_OUTPUT, done.stderr
