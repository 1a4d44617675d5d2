"""Monte-Carlo trajectory ensembles and empirical decay rates.

Estimates ``sqrt(E[||x_k||^2])`` over seeded sample paths.  Path ``p``
draws its entire parameter history from ``substream(seed, p)``
(coordinate-major, see ``DistributionSpec.sample_block``), and paths are
accumulated in fixed blocks of :data:`PATH_BLOCK` with pairwise
summation inside each block and a fixed-order reduction across blocks.
The result therefore depends only on the model, the initial state, the
seed and the path and step counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import substream
from .errors import DegenerateWindow, StochLyapError
from .fileio import write_atomic
from .sysmodel import SystemModel

#: Paths per accumulation block; it fixes the summation order and the
#: memory that one block's draws take.
PATH_BLOCK = 1024

#: State-norm ceiling; paths exceeding it are rescaled onto it and counted.
OVERFLOW_NORM = 1e150


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Ensemble estimate of the root mean squared state norm.

    ``rms[k]`` estimates ``sqrt(E[||x_k||^2])``; ``rms[0]`` equals
    ``||x0||`` exactly since the initial state is deterministic.
    ``overflow_paths`` counts paths that hit the norm ceiling (unstable
    systems); their states are clamped to the ceiling, not dropped.
    """

    k_max: int
    rms: np.ndarray
    n_paths: int
    seed: int
    x0: np.ndarray
    overflow_paths: int
    path_sq: np.ndarray | None = None


def _block_sums(model, x0, k_max, seed, lo, hi):
    """Squared-norm column sums and overflow count for paths [lo, hi)."""
    count = hi - lo
    Z = model.Z
    xi = np.empty((count, k_max, Z))
    for p in range(count):
        xi[p] = model.dist.sample_block(substream(seed, lo + p), k_max).reshape(k_max, Z)
    x = np.broadcast_to(x0, (count, x0.size)).copy()
    sq = np.empty((count, k_max + 1))
    sq[:, 0] = float(x0 @ x0)
    clamped = np.zeros(count, dtype=bool)
    for k in range(k_max):
        A, _ = model.evaluate_block(xi[:, k, :])
        x = np.einsum("pij,pj->pi", A, x)
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.linalg.norm(x, axis=1)
        over = ~np.isfinite(norms) | (norms > OVERFLOW_NORM)
        if over.any():
            # rescale onto the ceiling; the norm itself may have overflowed,
            # so normalize by the largest entry first
            xs = np.nan_to_num(x[over], nan=0.0,
                               posinf=OVERFLOW_NORM, neginf=-OVERFLOW_NORM)
            s = np.max(np.abs(xs), axis=1)
            s[s == 0.0] = 1.0
            y = xs / s[:, None]
            x[over] = y * (OVERFLOW_NORM / np.linalg.norm(y, axis=1))[:, None]
            clamped |= over
            norms[over] = OVERFLOW_NORM
        sq[:, k + 1] = norms * norms
    return np.sum(sq, axis=0), int(clamped.sum()), sq


def run_ensemble(
    model: SystemModel,
    x0,
    k_max: int,
    n_paths: int,
    seed: int,
    F=None,
    store_paths: bool = False,
) -> EnsembleResult:
    """Simulate ``n_paths`` state trajectories and estimate the RMS norm.

    Parameters
    ----------
    model : SystemModel
    x0 : array_like
        Deterministic initial state.
    k_max : int
        Number of steps; the result has ``k_max + 1`` RMS values.
    n_paths : int
        Ensemble size.
    seed : int
        Root seed; path ``p`` uses ``substream(seed, p)``, so runs with
        different seeds share no path.
    F : array_like, optional
        State-feedback gain folded into the model before simulation.
    store_paths : bool
        Keep the per-path squared-norm trajectories on the result.

    Returns
    -------
    EnsembleResult
    """
    if n_paths < 1:
        raise StochLyapError("need at least one path")
    if k_max < 0:
        raise StochLyapError("k_max must be nonnegative")
    x0 = np.asarray(x0, dtype=float)
    if F is not None:
        model = model.closed_loop(F)
    if model.m != 0:
        raise StochLyapError("open-loop input channel present; pass the gain F")

    bounds = [(lo, min(lo + PATH_BLOCK, n_paths)) for lo in range(0, n_paths, PATH_BLOCK)]
    parts = [_block_sums(model, x0, k_max, seed, lo, hi) for lo, hi in bounds]

    total = np.sum(np.stack([p[0] for p in parts]), axis=0)
    overflow = sum(p[1] for p in parts)
    rms = np.sqrt(total / n_paths)
    rms[0] = float(np.linalg.norm(x0))
    path_sq = np.concatenate([p[2] for p in parts]) if store_paths else None
    return EnsembleResult(k_max, rms, n_paths, seed, x0, overflow, path_sq)


def decay_rate(result: EnsembleResult, k1: int = 50, k2: int = 100) -> float:
    """Empirical decay rate ``(rms[k2] / rms[k1]) ** (1 / (k2 - k1))``.

    The default window matches the regime where the RMS curve has
    settled onto its asymptotic slope; both endpoints must be positive
    and finite.
    """
    if not 0 <= k1 < k2 <= result.k_max:
        raise StochLyapError(f"window ({k1}, {k2}) outside [0, {result.k_max}]")
    a, b = result.rms[k1], result.rms[k2]
    if not (np.isfinite(a) and np.isfinite(b)) or a <= 0 or b <= 0:
        raise DegenerateWindow(f"rms values ({a}, {b}) unusable for a rate")
    return float((b / a) ** (1.0 / (k2 - k1)))


def attractivity_probe(
    model: SystemModel,
    x0_set,
    k_max: int,
    n_paths: int,
    seed: int,
    threshold: float,
) -> list[bool]:
    """Empirical attractivity check per initial state.

    True when ``rms[k_max] / rms[0] < threshold``.  This is a sampling
    proxy for the second moment tending to zero, not a certificate.
    """
    if not 0.0 < threshold < 1.0:
        raise StochLyapError("threshold must lie in (0, 1)")
    out = []
    for x0 in x0_set:
        r = run_ensemble(model, x0, k_max, n_paths, seed)
        out.append(bool(r.rms[k_max] < threshold * r.rms[0]))
    return out


def write_rms_csv(result: EnsembleResult, path: str) -> None:
    """Write ``k,rms`` rows with 17 significant digits, atomically."""
    lines = ["k,rms"]
    lines += [f"{k},{v:.17g}" for k, v in enumerate(result.rms)]
    write_atomic(path, ["\n".join(lines) + "\n"])
