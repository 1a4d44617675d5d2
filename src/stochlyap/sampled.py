"""Discretization of a continuous-time plant under varying sampling intervals.

A linear plant dx/dt = A_c x + B_c u sampled with interval h and a
zero-order hold turns into the discrete pair

    A_op = exp(A_c h),    B_op = integral_0^h exp(A_c t) B_c dt.

Both are read off one matrix exponential of the augmented block matrix
[[A_c, B_c], [0, 0]] * h, evaluated by scaling-and-squaring with diagonal
Pade approximants (degree 13 via scipy).  That is deliberately tighter
than low-order Pade schemes; discrepancies against such schemes are an
accuracy improvement, not a bug.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import DimensionMismatch, StochLyapError


@dataclass(frozen=True)
class ContinuousPlant:
    """Continuous-time LTI plant (A_c, B_c)."""

    A_c: np.ndarray
    B_c: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A_c, dtype=float)
        B = np.asarray(self.B_c, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        object.__setattr__(self, "A_c", A)
        object.__setattr__(self, "B_c", B)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A_c must be square, got {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise DimensionMismatch(f"B_c rows {B.shape[0]} != n = {A.shape[0]}")
        if not (np.isfinite(A).all() and np.isfinite(B).all()):
            raise StochLyapError("plant matrices must be finite")

    @property
    def n(self) -> int:
        return self.A_c.shape[0]

    @property
    def m(self) -> int:
        return self.B_c.shape[1]

    def to_obj(self):
        return {"A_c": self.A_c.tolist(), "B_c": self.B_c.tolist()}

    @staticmethod
    def from_obj(obj: dict) -> "ContinuousPlant":
        return ContinuousPlant(np.asarray(obj["A_c"], float), np.asarray(obj["B_c"], float))


def _augmented(plant: ContinuousPlant) -> np.ndarray:
    n, m = plant.n, plant.m
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = plant.A_c
    aug[:n, n:] = plant.B_c
    return aug


def discretize_batch(plant: ContinuousPlant, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold discretization over an array of sampling intervals.

    Parameters
    ----------
    plant : ContinuousPlant
    h : array_like
        Sampling intervals, each positive and finite.

    Returns
    -------
    (A_op, B_op) : tuple of numpy.ndarray
        Stacked ``(len(h), n, n)`` state propagators and ``(len(h), n, m)``
        held-input matrices.  Each slice equals the result for a batch of
        its interval alone.
    """
    h = np.asarray(h, dtype=float)
    if not ((h > 0).all() and np.isfinite(h).all()):
        raise StochLyapError("all sampling intervals must be positive and finite")
    n = plant.n
    E = expm(_augmented(plant)[None, :, :] * h[:, None, None])
    return E[:, :n, :n], E[:, :n, n:]


def discretize(plant: ContinuousPlant, h: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`discretize_batch` for one sampling interval ``h``: ``(A_op, B_op)``."""
    A_op, B_op = discretize_batch(plant, np.array([h], dtype=float))
    return A_op[0], B_op[0]


def intersample_trajectory(
    plant: ContinuousPlant,
    F: np.ndarray,
    instants: np.ndarray,
    x0: np.ndarray,
    dt_plot: float,
):
    """Continuous-time response under sampled state feedback u = F x(t_k).

    The input is held constant over each sampling interval; within an
    interval the state is propagated with the exact interval propagator,
    so the trajectory at the sampling instants coincides with the
    discrete-time recursion.

    Parameters
    ----------
    plant : ContinuousPlant
    F : numpy.ndarray
        Feedback gain, ``m x n``.
    instants : array_like
        Strictly increasing sampling instants starting at 0.
    x0 : array_like
        Initial state at t = 0.
    dt_plot : float
        Plot grid resolution; every interval also contributes its exact
        endpoints.

    Returns
    -------
    (t, x, u) : tuple of numpy.ndarray
        Times ``(T,)``, states ``(T, n)`` and held inputs ``(T, m)``.
    """
    if not dt_plot > 0:
        raise StochLyapError("dt_plot must be positive")
    instants = np.asarray(instants, dtype=float)
    if instants[0] != 0.0 or np.any(np.diff(instants) <= 0):
        raise StochLyapError("instants must start at 0 and increase strictly")
    F = np.atleast_2d(np.asarray(F, dtype=float))
    if F.shape != (plant.m, plant.n):
        raise DimensionMismatch(f"gain shape {F.shape} != ({plant.m}, {plant.n})")
    x0 = np.asarray(x0, dtype=float)

    # exact state at the instants via the discrete recursion
    hs = np.diff(instants)
    A_ops, B_ops = discretize_batch(plant, hs)
    xk = np.empty((len(instants), plant.n))
    xk[0] = x0
    for k in range(len(hs)):
        u = F @ xk[k]
        xk[k + 1] = A_ops[k] @ xk[k] + B_ops[k] @ u

    ts, xs, us = [], [], []
    for k in range(len(hs)):
        t0, t1 = instants[k], instants[k + 1]
        inner = np.arange(t0 + dt_plot, t1, dt_plot)
        taus = np.concatenate([[0.0], inner - t0])
        u = F @ xk[k]
        seg = np.empty((len(taus), plant.n))
        seg[0] = xk[k]
        if len(taus) > 1:
            Ai, Bi = discretize_batch(plant, taus[1:])
            seg[1:] = Ai @ xk[k] + (Bi @ u)
        ts.append(t0 + taus)
        xs.append(seg)
        us.append(np.broadcast_to(u, (len(taus), plant.m)))
    ts.append(instants[-1:])
    xs.append(xk[-1:])
    us.append((F @ xk[-1])[None, :])
    return np.concatenate(ts), np.concatenate(xs), np.concatenate(us)
