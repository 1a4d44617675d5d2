"""The package's public surface: every exported name resolves; imports stay light."""

import os
import subprocess
import sys
from pathlib import Path

import stochlyap

SRC = Path(__file__).resolve().parents[1] / "src"


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from stochlyap import *", namespace)
    namespace.pop("__builtins__")
    assert len(set(stochlyap.__all__)) == len(stochlyap.__all__)
    assert sorted(namespace) == sorted(stochlyap.__all__)


def test_import_pulls_in_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import stochlyap, stochlyap.cli, sys; assert 'scipy' not in sys.modules"
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
