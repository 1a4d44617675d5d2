"""Smoke runs of the benchmark harness on its LMI workloads."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def traced_run(workload, seed):
    cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    return result


def test_affine_lmi_export_traced_run():
    result = traced_run("affine-lmi-export", 97)
    # the tracer reads LmiProblem.basis.nbytes; the entry list is a few MB at dim 1110
    assert result["metrics"]["synthesis.basis_mb"]["value"] < 10


def test_example2_sampled_synthesis_traced_run():
    result = traced_run("example2-sampled-synthesis", 13)
    # eleven bisection probes of the dim-39 LMI, each a few dozen Newton steps
    assert result["metrics"]["synthesis.solver_iterations"]["value"] < 2000
