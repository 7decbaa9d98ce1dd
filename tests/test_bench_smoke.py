"""The benchmark harness runs end to end against this library.

`bench/tracer.py` patches solver names and `bench/workloads.py` passes
keywords and builds policies, so a change to the solver's, the arena's or
a policy's API can break the benchmark without failing any other test.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "workload, trace",
    [("solve-refute", 0), ("solve-refute", 1), ("solve-copwin", 0), ("exhaust-policy", 0),
     ("exhaust-policy", 1)],
    ids=["0", "1", "copwin-0", "exhaust-0", "exhaust-1"],
)
def test_bench_run_completes(workload, trace):
    # Every operation's answer is checked, so this also holds each solve
    # instance to its pinned winner and capture rounds.
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True, proc.stdout
