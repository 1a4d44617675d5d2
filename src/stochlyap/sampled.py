"""Discretization of a continuous-time plant under varying sampling intervals.

A linear plant dx/dt = A_c x + B_c u sampled with interval h and a
zero-order hold turns into the discrete pair

    A_op = exp(A_c h),    B_op = integral_0^h exp(A_c t) B_c dt.

Both are read off one matrix exponential of the augmented block matrix
[[A_c, B_c], [0, 0]] * h.  The exponential is the library's own stacked
scaling and squaring with the degree-13 diagonal Pade approximant
(Higham, "The scaling and squaring method for the matrix exponential
revisited", SIAM J. Matrix Anal. Appl. 26(4), 2005), evaluated for a whole
stack of intervals at once.  Each slice gets its own scaling exponent, so
a slice's result does not depend on the batch it is computed in.  That is
deliberately tighter than low-order Pade schemes; discrepancies against
such schemes are an accuracy improvement, not a bug.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, StochLyapError

#: Padé-13 coefficients ``b_k`` of Higham (2005), divided by ``b_0`` so that
#: a zero slice gives ``V = I``, ``U = 0`` and an exponential of exactly ``I``.
_PADE13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
]) / 64764752532480000.0

#: Largest 1-norm at which Padé 13 is accurate to unit roundoff without scaling.
_THETA13 = 5.371920351148152

#: Slices per stacked evaluation; keeps the intermediates of a large
#: stack small.  Slices are independent, so the chunking changes no bit.
_EXPM_CHUNK = 1024


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


def _expm_chunk(M: np.ndarray) -> np.ndarray:
    """``exp`` of every slice of a ``(N, k, k)`` stack by Padé-13 scaling and squaring.

    Slice ``i`` is scaled by ``2^-s_i`` with the smallest ``s_i >= 0`` that
    brings its 1-norm below ``theta_13``, and squared back ``s_i`` times.
    """
    c = _PADE13
    with np.errstate(over="ignore", divide="ignore"):
        norm = np.abs(M).sum(axis=1).max(axis=1)
        s = np.maximum(0.0, np.ceil(np.log2(norm / _THETA13)))
    if not np.isfinite(norm).all():
        raise StochLyapError("matrix exponential of a slice whose 1-norm is not finite")
    A = M * np.exp2(-s)[:, None, None]
    eye = np.eye(M.shape[1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (A6 @ (c[13] * A6 + c[11] * A4 + c[9] * A2)
             + c[7] * A6 + c[5] * A4 + c[3] * A2 + c[1] * eye)
    V = (A6 @ (c[12] * A6 + c[10] * A4 + c[8] * A2)
         + c[6] * A6 + c[4] * A4 + c[2] * A2 + c[0] * eye)
    E = np.linalg.solve(V - U, V + U)
    for j in range(1, int(s.max(initial=0.0)) + 1):
        sel = s >= j
        E[sel] = E[sel] @ E[sel]
    return E


def expm_stack(M: np.ndarray) -> np.ndarray:
    """Matrix exponential of each slice of a ``(N, k, k)`` stack.

    Evaluated in chunks of :data:`_EXPM_CHUNK` slices by :func:`_expm_chunk`;
    each slice equals the result for a stack of that slice alone.
    """
    M = np.asarray(M, dtype=float)
    out = np.empty_like(M)
    for lo in range(0, len(M), _EXPM_CHUNK):
        out[lo: lo + _EXPM_CHUNK] = _expm_chunk(M[lo: lo + _EXPM_CHUNK])
    return out


def discretize_batch(plant: ContinuousPlant, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold discretization over an array of sampling intervals.

    Parameters
    ----------
    plant : ContinuousPlant
    h : array_like
        One-dimensional array of sampling intervals, each positive and finite.

    Returns
    -------
    (A_op, B_op) : tuple of numpy.ndarray
        Stacked ``(len(h), n, n)`` state propagators and ``(len(h), n, m)``
        held-input matrices.  Each slice equals the result for a batch of
        its interval alone.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 1:
        raise DimensionMismatch("h must be one-dimensional")
    if not ((h > 0).all() and np.isfinite(h).all()):
        raise StochLyapError("all sampling intervals must be positive and finite")
    n = plant.n
    E = expm_stack(_augmented(plant)[None, :, :] * h[:, None, None])
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
