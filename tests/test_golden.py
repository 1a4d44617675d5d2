"""Regression corpus: seeded outputs checked against ``golden/outputs.json``.

Each entry is a scalar or a small array stored as ``float.hex`` strings, or
a model fingerprint.  Under the numpy version recorded in the file the
entries must match exactly; under any other version arrays are compared
to 1e-12 relative, because another BLAS or numpy may sum in another order.

An intended change of outputs regenerates the file with
``PYTHONPATH=src python tests/test_golden.py``; CHANGES.md then lists each
regenerated entry and why it moved.
"""

import json
import os

import numpy as np
import pytest

from stochlyap.demo_models import example1_model
from stochlyap.dist import Discrete, DistributionSpec, Exponential, Normal, Uniform
from stochlyap.moments import model_fingerprint, second_moment_analytic
from stochlyap.simulate import run_ensemble
from stochlyap.sysmodel import AffineForm, PolyEntry, PolyForm, SwitchedForm

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "outputs.json")

#: Relative tolerance for arrays under a numpy version other than the recorded one.
OTHER_VERSION_RTOL = 1e-12


def _switched():
    dist = DistributionSpec((Discrete((1.0, 2.0), (0.3, 0.7)),))
    a = (np.array([[1.1, -0.4], [0.3, 0.2]]), np.array([[-0.5, 0.9], [0.0, 0.7]]))
    b = (np.array([[1.0, 0.0], [0.5, -1.0]]), np.array([[-0.3, 0.2], [1.0, 0.4]]))
    return SwitchedForm(a, dist, b)


def _affine(rng):
    n, m = 3, 2
    dist = DistributionSpec((Normal(0.3, 0.7), Uniform(-0.4, 1.1), Exponential(2.5)))
    a = tuple(rng.normal(size=(n, n)) for _ in range(4))
    b = tuple(rng.normal(size=(n, m)) for _ in range(4))
    return AffineForm(a, dist, b)


def _poly(rng):
    # the discrete law's probabilities sum to 0.9999999999999999 in floats,
    # so a degree-0 moment read as the sum of the probabilities would show
    n, m = 3, 2
    dist = DistributionSpec((Normal(-0.2, 0.5), Discrete((-1.0, 0.5, 2.0), (0.7, 0.2, 0.1))))
    monomials = [a for a in np.ndindex(3, 3) if sum(a) <= 2]

    def entry():
        keep = rng.random(len(monomials)) < 0.6
        return PolyEntry(tuple((rng.normal(), a) for a, k in zip(monomials, keep) if k))

    a = tuple(tuple(entry() for _ in range(n)) for _ in range(n))
    b = tuple(tuple(entry() for _ in range(m)) for _ in range(n))
    return PolyForm(a, dist, b)


def _models():
    rng = np.random.default_rng(2019)
    models = {"example1": example1_model(), "switched": _switched(),
              "affine": _affine(rng), "poly": _poly(rng)}
    for name in ("switched", "affine", "poly"):
        model = models[name]
        models[f"{name}-closed-loop"] = model.closed_loop(rng.normal(size=(model.m, model.n)))
    return models


def _hex(a):
    a = np.asarray(a, dtype=float)
    return {"shape": list(a.shape), "hex": [float(v).hex() for v in a.ravel()]}


def _unhex(obj):
    return np.array([float.fromhex(v) for v in obj["hex"]]).reshape(obj["shape"])


def compute_outputs() -> dict:
    """Every corpus entry, computed by the current code."""
    out = {}
    for name, model in _models().items():
        data = second_moment_analytic(model)
        out[f"{name}/g2"] = _hex(data.g2)
        out[f"{name}/mean"] = _hex(data.mean)
        out[f"{name}/fingerprint"] = model_fingerprint(model)
    ens = run_ensemble(example1_model(), [1.0, 0.0, 0.0], 100, 4096, seed=5)
    out["example1/ensemble-rms"] = _hex(ens.rms)
    return out


def write_golden(path: str = GOLDEN_PATH) -> None:
    """Record the corpus from the current code (the only way to regenerate it)."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    obj = {"numpy": np.__version__, "entries": compute_outputs()}
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")


def _read_golden() -> dict:
    if not os.path.exists(GOLDEN_PATH):
        return {"numpy": None, "entries": {}}
    with open(GOLDEN_PATH) as f:
        return json.load(f)


GOLDEN = _read_golden()


@pytest.fixture(scope="module")
def outputs():
    return compute_outputs()


def test_entry_names(outputs):
    assert sorted(outputs) == sorted(GOLDEN["entries"])


@pytest.mark.parametrize("key", sorted(GOLDEN["entries"]))
def test_entry(outputs, key):
    want, got = GOLDEN["entries"][key], outputs[key]
    if isinstance(want, str) or GOLDEN["numpy"] == np.__version__:
        assert got == want
        return
    want, got = _unhex(want), _unhex(got)
    assert got.shape == want.shape
    scale = max(float(np.abs(want).max()), np.finfo(float).tiny)
    assert float(np.abs(got - want).max()) <= OTHER_VERSION_RTOL * scale, (
        f"{key} moved beyond {OTHER_VERSION_RTOL:g} relative under numpy "
        f"{np.__version__} (recorded under {GOLDEN['numpy']})"
    )


if __name__ == "__main__":
    write_golden()
