"""Second-moment data of the random coefficients and its rearrangements.

The stability machinery never needs the full law of the coefficients,
only the Gram matrix of the row-vectorized pair ``g = [row(A), row(B)]``:

    G2 = E[g^T g],

whose blocks hold every second-order entry product ``E[A_ij A_kl]``,
``E[A_ij B_kq]``, ``E[B_iq B_kr]``.  ``G2`` is computed either exactly
(affine, switched, polynomial forms) or by seeded Monte Carlo (any form,
required for sampled-data models).

Factorization ``Gbar^T Gbar = G2`` and the stacked column-block
rearrangements ``GpA`` / ``GpB`` move decision variables out of the
expectation; they are the raw material of the synthesis inequality.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .dist import substream
from .errors import DimensionMismatch, NonFiniteSample, NotPSD, StochLyapError, UnsupportedForm
from .fileio import write_atomic
from .sysmodel import AffineForm, PolyForm, SwitchedForm, SystemModel

#: Samples per Monte-Carlo block.  Block ``b`` draws from
#: ``substream(seed, b)``, and block sums are added in block order, so
#: the estimate depends only on the seed and the sample count.
MC_BLOCK = 8192

_PSD_TOL = 1e-9


@dataclass(frozen=True)
class MonteCarlo:
    """Provenance of a Monte-Carlo moment estimate."""

    samples: int
    seed: int
    max_entry_stderr: float


@dataclass(frozen=True)
class Analytic:
    """Provenance marker for exact closed-form moments."""


@dataclass(frozen=True, eq=False)
class SecondMomentData:
    """Gram matrix ``E[g^T g]`` of ``g = [row(A), row(B)]`` plus the mean.

    ``g2`` is ``(n+m)n`` square, symmetric and positive semidefinite up
    to tolerance; ``mean`` is the ``n x (n+m)`` matrix ``E[[A, B]]``.
    ``m = 0`` is the analysis-only case.
    """

    g2: np.ndarray
    mean: np.ndarray
    method: Analytic | MonteCarlo
    n: int
    m: int
    Z: int

    def __post_init__(self):
        w = (self.n + self.m) * self.n
        g2 = np.asarray(self.g2, dtype=float)
        if g2.shape != (w, w):
            raise DimensionMismatch(f"g2 shape {g2.shape}, expected ({w}, {w})")
        scale = max(1.0, float(np.abs(g2).max()))
        if np.abs(g2 - g2.T).max() > 1e-12 * scale:
            raise StochLyapError("g2 must be symmetric to 1e-12")
        g2 = (g2 + g2.T) / 2.0
        tr = float(np.trace(g2))
        wmin = float(np.linalg.eigvalsh(g2)[0])
        if wmin < -_PSD_TOL * max(tr, 1.0):
            raise NotPSD(f"g2 minimum eigenvalue {wmin:.3e} below tolerance")
        object.__setattr__(self, "g2", g2)
        mean = np.asarray(self.mean, dtype=float)
        if mean.shape != (self.n, self.n + self.m):
            raise DimensionMismatch(f"mean shape {mean.shape}, expected ({self.n}, {self.n + self.m})")
        object.__setattr__(self, "mean", mean)

    @property
    def a_block(self) -> np.ndarray:
        """Top-left ``n^2 x n^2`` block: all products ``E[A_ij A_kl]``."""
        nn = self.n * self.n
        return self.g2[:nn, :nn]

    @property
    def mean_a(self) -> np.ndarray:
        return self.mean[:, : self.n]

    @property
    def mean_b(self) -> np.ndarray:
        return self.mean[:, self.n:]

    def to_obj(self) -> dict:
        if isinstance(self.method, MonteCarlo):
            method = {"monte_carlo": {"samples": self.method.samples,
                                      "seed": self.method.seed,
                                      "max_entry_stderr": self.method.max_entry_stderr}}
        else:
            method = {"analytic": {}}
        return {"n": self.n, "m": self.m, "Z": self.Z, "method": method,
                "g2": self.g2.tolist(), "mean": self.mean.tolist()}

    @staticmethod
    def from_obj(obj: dict) -> "SecondMomentData":
        if "monte_carlo" in obj["method"]:
            mc = obj["method"]["monte_carlo"]
            method = MonteCarlo(int(mc["samples"]), int(mc["seed"]), float(mc["max_entry_stderr"]))
        else:
            method = Analytic()
        return SecondMomentData(
            np.asarray(obj["g2"], float), np.asarray(obj["mean"], float),
            method, int(obj["n"]), int(obj["m"]), int(obj["Z"]),
        )


@dataclass(frozen=True, eq=False)
class RearrangedFactors:
    """Factor ``Gbar`` of ``G2`` and its stacked column-block rearrangements.

    ``gbar`` is the symmetric PSD square root of ``g2``.  For column
    group ``i`` (one per state), the A-columns are ``[i n, (i+1) n)`` and
    the B-columns are ``[n^2 + i m, n^2 + (i+1) m)``; ``gpa`` and ``gpb``
    stack those column blocks vertically.  In the analysis case (m = 0)
    ``gpa`` is the ``n^3 x n`` stacked factor and ``gpb`` is None.
    """

    gbar: np.ndarray
    gpa: np.ndarray
    gpb: np.ndarray | None
    n: int
    m: int


def operator_matrix(gram: np.ndarray, n: int) -> np.ndarray:
    """Matrix of ``P -> E[A^T P A]`` from the Gram matrix of ``row(A)``.

    ``gram[(i, j), (k, l)] = E[A_ij A_kl]`` (``n^2`` square, or the same
    array as ``[i, j, k, l]``) becomes ``M[(j, l), (i, k)]`` in
    row-vectorization coordinates: a pure index permutation, no arithmetic.
    """
    return gram.reshape(n, n, n, n).transpose(1, 3, 0, 2).reshape(n * n, n * n)


def _flat_to_mean(flat: np.ndarray, n: int, m: int) -> np.ndarray:
    """``E[g]`` reshaped to the ``n x (n+m)`` matrix ``E[[A, B]]``."""
    return np.hstack([flat[: n * n].reshape(n, n), flat[n * n:].reshape(n, m)])


def _rows(a_mats, b_mats) -> np.ndarray:
    """One row ``[row(A_k), row(B_k)]`` per coefficient pair (no ``B`` when ``m = 0``)."""
    mats = [a_mats] + ([] if b_mats is None else [b_mats])
    return np.hstack([np.stack(M).reshape(len(a_mats), -1) for M in mats])


def _coefficient_basis(model: SystemModel):
    """Write ``g(xi) = phi(xi)^T C`` and return ``(C, E[phi phi^T], E[phi])``.

    ``C`` has one row per basis function: ``phi = [1, xi]`` for affine
    forms, the distinct monomials of the entries for polynomial forms,
    and the mode indicators for switched forms, whose moments are
    ``diag(p)`` and ``p``.
    """
    if isinstance(model, SwitchedForm):
        p = model.mode_probs
        return _rows(model.a_modes, model.b_modes), np.diag(p), p
    Z = model.Z
    if isinstance(model, AffineForm):
        alphas = [(0,) * Z] + [tuple(int(t == q) for t in range(Z)) for q in range(Z)]
        C = _rows(model.a_mats, model.b_mats)
    elif isinstance(model, PolyForm):
        entries = [e for row in model.a_entries for e in row]
        entries += [e for row in model.b_entries or () for e in row]
        alphas = sorted({alpha for e in entries for _, alpha in e.terms})
        row_of = {alpha: k for k, alpha in enumerate(alphas)}
        C = np.zeros((len(alphas), len(entries)))
        for u, e in enumerate(entries):
            for coeff, alpha in e.terms:
                C[row_of[alpha], u] = coeff
    else:
        raise UnsupportedForm(
            f"no analytic moments for {type(model).__name__}; use second_moment_mc"
        )
    phi2 = np.array([[model.dist.moment(tuple(x + y for x, y in zip(a, b))) for b in alphas]
                     for a in alphas]).reshape(len(alphas), len(alphas))
    mu = np.array([model.dist.moment(a) for a in alphas])
    return C, phi2, mu


def second_moment_analytic(model: SystemModel) -> SecondMomentData:
    """Exact second-moment data from the coefficient basis.

    Every exact form is linear in a few basis functions,
    ``g(xi) = phi(xi)^T C``, so ``G2 = C^T E[phi phi^T] C`` and
    ``E[g] = C^T E[phi]`` need only the ``K x K`` moments of ``phi``.
    Supported for affine, switched and polynomial forms; sampled-data
    models have no closed-form moments here and must use
    :func:`second_moment_mc`.
    """
    C, phi2, mu = _coefficient_basis(model)
    g2 = C.T @ phi2 @ C  # symmetric only up to rounding, which can exceed the 1e-12 check
    return SecondMomentData((g2 + g2.T) / 2.0, _flat_to_mean(C.T @ mu, model.n, model.m),
                            Analytic(), model.n, model.m, model.Z)


def _mc_block(model: SystemModel, seed: int, block: int, count: int):
    rng = substream(seed, block)
    Xi = model.dist.sample_block(rng, count)
    A, B = model.evaluate_block(Xi)
    g = A.reshape(count, -1) if B is None else np.hstack(
        [A.reshape(count, -1), B.reshape(count, -1)]
    )
    if not np.isfinite(g).all():
        raise NonFiniteSample(f"non-finite coefficient entry in block {block}")
    sq = g * g
    return g.T @ g, sq.T @ sq, g.sum(axis=0)


def second_moment_mc(model: SystemModel, samples: int, seed: int) -> SecondMomentData:
    """Monte-Carlo estimate of the second-moment data.

    Draws are organized in fixed blocks of :data:`MC_BLOCK` samples;
    block ``b`` uses ``substream(seed, b)``, so different seeds share no
    block.

    Parameters
    ----------
    model : SystemModel
    samples : int
        Number of draws, at least 1000.
    seed : int
        Root seed recorded in the result.

    Returns
    -------
    SecondMomentData
        With Monte-Carlo provenance, including the largest entrywise
        standard error of ``g2``.
    """
    if samples < 1000:
        raise StochLyapError("Monte-Carlo moments need at least 1000 samples")
    n, m = model.n, model.m
    w = (n + m) * n
    counts = [MC_BLOCK] * (samples // MC_BLOCK)
    if samples % MC_BLOCK:
        counts.append(samples % MC_BLOCK)

    g2 = np.zeros((w, w))
    sq = np.zeros((w, w))
    gsum = np.zeros(w)
    for b, count in enumerate(counts):
        gram, gram_sq, s = _mc_block(model, seed, b, count)
        g2 += gram
        sq += gram_sq
        gsum += s
    g2 /= samples
    g2 = (g2 + g2.T) / 2.0
    var = np.maximum(sq / samples - g2 * g2, 0.0)
    stderr = float(np.sqrt(var / samples).max())
    mean = _flat_to_mean(gsum / samples, n, m)
    return SecondMomentData(g2, mean, MonteCarlo(samples, seed, stderr), n, m, model.Z)


def factorize(data: SecondMomentData) -> RearrangedFactors:
    """Symmetric PSD square root of ``g2`` and its stacked rearrangements.

    The symmetric root is the unique PSD factor, which keeps results
    reproducible; a Cholesky factor would not exist for the singular
    ``g2`` of, say, constant systems.  Eigenvalues in ``[-tol, 0)`` are
    clamped to zero; anything lower raises :class:`NotPSD`.
    """
    n, m = data.n, data.m
    w, U = np.linalg.eigh(data.g2)
    tol = _PSD_TOL * max(float(np.trace(data.g2)), 1.0)
    if w[0] < -tol:
        raise NotPSD(f"g2 minimum eigenvalue {w[0]:.3e} below -{tol:.3e}")
    gbar = (U * np.sqrt(np.clip(w, 0.0, None))) @ U.T
    gbar = (gbar + gbar.T) / 2.0
    gpa = np.vstack([gbar[:, i * n: (i + 1) * n] for i in range(n)])
    gpb = None
    if m:
        base = n * n
        gpb = np.vstack([gbar[:, base + i * m: base + (i + 1) * m] for i in range(n)])
    return RearrangedFactors(gbar, gpa, gpb, n, m)


def expected_quadratic(data: SecondMomentData, P: np.ndarray) -> np.ndarray:
    """The map ``P -> E[A^T P A]`` evaluated on one symmetric ``P``.

    A direct contraction of the A-block of ``g2`` against ``P``; no
    intermediate factor.
    """
    n = data.n
    P = np.asarray(P, dtype=float)
    if P.shape != (n, n):
        raise DimensionMismatch(f"P shape {P.shape}, expected ({n}, {n})")
    out = np.einsum("ik,ijkl->jl", P, data.a_block.reshape(n, n, n, n))
    return (out + out.T) / 2.0


def closed_loop_second_moment(data: SecondMomentData, F: np.ndarray) -> SecondMomentData:
    """Exact second-moment data of ``A + B F`` from open-loop data.

    Entry products of the closed loop expand into the four open-loop
    blocks, so no re-sampling is involved: ``row(A + B F) = L g`` for a
    gain-dependent matrix ``L``, giving ``G2_cl = L G2 L^T``.
    """
    n, m = data.n, data.m
    if m == 0:
        raise StochLyapError("open-loop data has no input blocks (m = 0)")
    F = np.atleast_2d(np.asarray(F, dtype=float))
    if F.shape != (m, n):
        raise DimensionMismatch(f"gain shape {F.shape} != ({m}, {n})")
    L = np.hstack([np.eye(n * n), np.kron(np.eye(n), F.T)])
    g2 = L @ data.g2 @ L.T
    g2 = (g2 + g2.T) / 2.0
    mean = data.mean_a + data.mean_b @ F
    return SecondMomentData(g2, mean, data.method, n, 0, data.Z)


def model_fingerprint(model: SystemModel) -> str:
    """SHA-256 of the model's canonical JSON (sorted keys, no whitespace)."""
    text = json.dumps(model.to_obj(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def save_moments(data: SecondMomentData, path: str, model: SystemModel) -> None:
    """Write moment data as JSON, atomically (temp file + rename).

    The file records :func:`model_fingerprint` of ``model``, which
    :func:`load_moments` checks.
    """
    obj = {"schema": "stochlyap-moments/1", **data.to_obj(),
           "model_sha256": model_fingerprint(model)}
    write_atomic(path, [json.dumps(obj, indent=1)])


def load_moments(path: str, model: SystemModel) -> SecondMomentData:
    """Read moment data written by :func:`save_moments` for ``model``.

    Raises :class:`StochLyapError` unless the file records the
    fingerprint of exactly that model.
    """
    with open(path) as f:
        obj = json.load(f)
    if obj.get("model_sha256") != model_fingerprint(model):
        raise StochLyapError(
            f"moment cache {path} was not computed for this model "
            f"(fingerprint {obj.get('model_sha256')!r})"
        )
    return SecondMomentData.from_obj(obj)
