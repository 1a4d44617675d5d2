"""Smoke run of the benchmark harness on its LMI export workload."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_affine_lmi_export_traced_run():
    cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload",
           "affine-lmi-export", "--seed", "97", "--seconds", "0", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    # the tracer reads LmiProblem.basis.nbytes; the entry list is a few MB at dim 1110
    assert result["metrics"]["synthesis.basis_mb"]["value"] < 10
