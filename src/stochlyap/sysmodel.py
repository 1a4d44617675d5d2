"""System models: the random coefficient maps xi -> A(xi) and xi -> (A, B).

Four concrete forms share one interface:

* ``AffineForm``      A(xi) = A0 + sum_i Ai xi_i, likewise for B.
* ``SwitchedForm``    A(xi) = A[xi], mode index drawn from a discrete law.
* ``PolyForm``        every entry a polynomial of degree <= 2 in xi.
* ``SampledDataForm`` A(xi) = exp(A_c h(xi)) with a random interval h.

Models are immutable.  ``m = 0`` means analysis-only (no input channel);
``closed_loop`` folds a static gain into the model and always yields an
analysis-only model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sampled as _sampled
from .dist import Constant, Discrete, DistributionSpec, Exponential, Normal, Uniform
from .errors import (
    DimensionMismatch,
    InvalidMode,
    NoInputChannel,
    StochLyapError,
    UnsupportedForm,
    UnsupportedMoment,
)

#: Highest polynomial degree of a matrix entry.  Products of two entries
#: then stay within the moment cap of :mod:`stochlyap.dist`.
MAX_ENTRY_DEGREE = 2


@dataclass(frozen=True)
class PolyEntry:
    """One matrix entry as a polynomial ``sum_t coeff_t * xi^alpha_t``.

    Terms are stored sorted by multi-index with exact-zero coefficients
    dropped, so equal polynomials compare equal.
    """

    terms: tuple

    def __post_init__(self):
        seen = set()
        norm = []
        for coeff, alpha in self.terms:
            alpha = tuple(int(a) for a in alpha)
            if any(a < 0 for a in alpha):
                raise StochLyapError("multi-index entries must be nonnegative")
            if sum(alpha) > MAX_ENTRY_DEGREE:
                raise StochLyapError(
                    f"entry degree {sum(alpha)} exceeds cap {MAX_ENTRY_DEGREE}"
                )
            if alpha in seen:
                raise StochLyapError(f"duplicate multi-index {alpha} in entry")
            seen.add(alpha)
            if coeff != 0.0:
                norm.append((float(coeff), alpha))
        norm.sort(key=lambda t: t[1])
        object.__setattr__(self, "terms", tuple(norm))

    @staticmethod
    def constant(value: float, Z: int) -> "PolyEntry":
        return PolyEntry(((value, (0,) * Z),))

    @staticmethod
    def combine(parts) -> "PolyEntry":
        """Linear combination ``sum_k weight_k * entry_k`` with term merging."""
        acc: dict = {}
        for weight, entry in parts:
            for coeff, alpha in entry.terms:
                acc[alpha] = acc.get(alpha, 0.0) + weight * coeff
        return PolyEntry(tuple((c, a) for a, c in acc.items()))

    def eval_block(self, Xi: np.ndarray) -> np.ndarray:
        """Evaluate on a ``(count, Z)`` block of parameter vectors."""
        out = np.zeros(Xi.shape[0])
        for c, alpha in self.terms:
            term = np.full(Xi.shape[0], c)
            for i, a in enumerate(alpha):
                if a == 1:
                    term = term * Xi[:, i]
                elif a > 1:
                    term = term * Xi[:, i] ** a
            out += term
        return out

    def to_obj(self):
        return {"terms": [[c, list(a)] for c, a in self.terms]}


def _as_matrix(M, rows, cols, name) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.shape != (rows, cols):
        raise DimensionMismatch(f"{name} has shape {M.shape}, expected ({rows}, {cols})")
    return M


class SystemModel:
    """Interface shared by all model forms (see module docstring)."""

    n: int
    m: int
    dist: DistributionSpec

    @property
    def Z(self) -> int:
        return self.dist.Z

    def evaluate(self, xi) -> tuple[np.ndarray, np.ndarray | None]:
        """Coefficient matrices for one parameter vector.

        Returns ``(A, B)`` where ``B`` is None for analysis-only models.
        """
        A, B = self.evaluate_block(np.asarray(xi, dtype=float)[None, :])
        return A[0], (None if B is None else B[0])

    def evaluate_block(self, Xi: np.ndarray):
        raise NotImplementedError

    def closed_loop(self, F) -> "SystemModel":
        raise NotImplementedError

    def _check_gain(self, F) -> np.ndarray:
        if self.m == 0:
            raise NoInputChannel("model has no input channel (m = 0)")
        F = np.atleast_2d(np.asarray(F, dtype=float))
        if F.shape != (self.m, self.n):
            raise DimensionMismatch(f"gain shape {F.shape} != ({self.m}, {self.n})")
        return F

    def _check_block(self, Xi: np.ndarray) -> np.ndarray:
        Xi = np.asarray(Xi, dtype=float)
        if Xi.ndim != 2 or Xi.shape[1] != self.Z:
            raise DimensionMismatch(f"parameter block shape {Xi.shape}, expected (*, {self.Z})")
        return Xi

    def to_obj(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class AffineForm(SystemModel):
    """Affine parameter dependence ``A(xi) = A0 + sum_i Ai xi_i``."""

    a_mats: tuple
    dist: DistributionSpec
    b_mats: tuple | None = None

    def __post_init__(self):
        Z = self.dist.Z
        if len(self.a_mats) != Z + 1:
            raise DimensionMismatch(f"need {Z + 1} A matrices, got {len(self.a_mats)}")
        n = np.asarray(self.a_mats[0]).shape[0]
        a = tuple(_as_matrix(M, n, n, f"A{i}") for i, M in enumerate(self.a_mats))
        object.__setattr__(self, "a_mats", a)
        if self.b_mats is not None:
            if len(self.b_mats) != Z + 1:
                raise DimensionMismatch(f"need {Z + 1} B matrices, got {len(self.b_mats)}")
            m = np.atleast_2d(np.asarray(self.b_mats[0])).shape[1]
            b = tuple(_as_matrix(np.atleast_2d(M), n, m, f"B{i}") for i, M in enumerate(self.b_mats))
            object.__setattr__(self, "b_mats", b)

    @property
    def n(self) -> int:
        return self.a_mats[0].shape[0]

    @property
    def m(self) -> int:
        return 0 if self.b_mats is None else self.b_mats[0].shape[1]

    def evaluate_block(self, Xi):
        Xi = self._check_block(Xi)
        A = np.broadcast_to(self.a_mats[0], (Xi.shape[0], self.n, self.n)).copy()
        for i in range(self.Z):
            A += Xi[:, i, None, None] * self.a_mats[i + 1]
        if self.b_mats is None:
            return A, None
        B = np.broadcast_to(self.b_mats[0], (Xi.shape[0], self.n, self.m)).copy()
        for i in range(self.Z):
            B += Xi[:, i, None, None] * self.b_mats[i + 1]
        return A, B

    def closed_loop(self, F):
        F = self._check_gain(F)
        return AffineForm(
            tuple(A + B @ F for A, B in zip(self.a_mats, self.b_mats)), self.dist
        )

    def to_obj(self):
        obj = {"form": "affine", "n": self.n, "Z": self.Z,
               "A": [M.tolist() for M in self.a_mats], "dist": self.dist.to_obj()}
        if self.b_mats is not None:
            obj["m"] = self.m
            obj["B"] = [M.tolist() for M in self.b_mats]
        return obj


@dataclass(frozen=True, eq=False)
class SwitchedForm(SystemModel):
    """Mode switching ``A(xi) = A[xi]`` driven by a discrete coordinate.

    The distribution must be a single :class:`~stochlyap.dist.Discrete`
    coordinate over the exact mode indices ``1..S``.
    """

    a_modes: tuple
    dist: DistributionSpec
    b_modes: tuple | None = None

    def __post_init__(self):
        S = len(self.a_modes)
        if S < 1:
            raise StochLyapError("need at least one mode")
        n = np.asarray(self.a_modes[0]).shape[0]
        a = tuple(_as_matrix(M, n, n, f"A[{i + 1}]") for i, M in enumerate(self.a_modes))
        object.__setattr__(self, "a_modes", a)
        if self.b_modes is not None:
            if len(self.b_modes) != S:
                raise DimensionMismatch("B modes must match A modes in count")
            m = np.atleast_2d(np.asarray(self.b_modes[0])).shape[1]
            b = tuple(_as_matrix(np.atleast_2d(M), n, m, f"B[{i + 1}]") for i, M in enumerate(self.b_modes))
            object.__setattr__(self, "b_modes", b)
        if self.dist.Z != 1 or not isinstance(self.dist.coords[0], Discrete):
            raise StochLyapError("switched form needs a single Discrete coordinate")
        if tuple(self.dist.coords[0].values) != tuple(float(i) for i in range(1, S + 1)):
            raise StochLyapError(f"mode distribution values must be exactly 1..{S}")

    @property
    def n(self) -> int:
        return self.a_modes[0].shape[0]

    @property
    def m(self) -> int:
        return 0 if self.b_modes is None else self.b_modes[0].shape[1]

    @property
    def mode_probs(self) -> np.ndarray:
        return np.asarray(self.dist.coords[0].probs)

    def _mode_indices(self, Xi):
        raw = Xi[:, 0]
        idx = np.rint(raw).astype(int)
        bad = (np.abs(raw - idx) > 1e-9) | (idx < 1) | (idx > len(self.a_modes))
        if bad.any():
            raise InvalidMode(f"switch value {raw[bad][0]} outside modes 1..{len(self.a_modes)}")
        return idx - 1

    def evaluate_block(self, Xi):
        Xi = self._check_block(Xi)
        idx = self._mode_indices(Xi)
        A = np.stack(self.a_modes)[idx]
        B = None if self.b_modes is None else np.stack(self.b_modes)[idx]
        return A, B

    def closed_loop(self, F):
        F = self._check_gain(F)
        return SwitchedForm(
            tuple(A + B @ F for A, B in zip(self.a_modes, self.b_modes)), self.dist
        )

    def to_obj(self):
        obj = {"form": "switched", "n": self.n, "Z": 1,
               "modes": [M.tolist() for M in self.a_modes], "dist": self.dist.to_obj()}
        if self.b_modes is not None:
            obj["m"] = self.m
            obj["B_modes"] = [M.tolist() for M in self.b_modes]
        return obj


@dataclass(frozen=True, eq=False)
class PolyForm(SystemModel):
    """Entrywise polynomial dependence of degree at most 2."""

    a_entries: tuple
    dist: DistributionSpec
    b_entries: tuple | None = None

    def __post_init__(self):
        a = tuple(tuple(row) for row in self.a_entries)
        n = len(a)
        if n < 1 or any(len(row) != n for row in a):
            raise DimensionMismatch("A entry grid must be square")
        self._check_grid(a)
        object.__setattr__(self, "a_entries", a)
        if self.b_entries is not None:
            b = tuple(tuple(row) for row in self.b_entries)
            if len(b) != n or len({len(row) for row in b}) != 1:
                raise DimensionMismatch("B entry grid must be n x m")
            self._check_grid(b)
            object.__setattr__(self, "b_entries", b)

    def _check_grid(self, grid):
        for row in grid:
            for e in row:
                if not isinstance(e, PolyEntry):
                    raise StochLyapError("grid entries must be PolyEntry")
                for _, alpha in e.terms:
                    if len(alpha) != self.dist.Z:
                        raise DimensionMismatch(
                            f"multi-index length {len(alpha)} != Z = {self.dist.Z}"
                        )

    @property
    def n(self) -> int:
        return len(self.a_entries)

    @property
    def m(self) -> int:
        return 0 if self.b_entries is None else len(self.b_entries[0])

    def evaluate_block(self, Xi):
        Xi = self._check_block(Xi)

        def grid_eval(grid, cols):
            out = np.empty((Xi.shape[0], self.n, cols))
            for i, row in enumerate(grid):
                for j, e in enumerate(row):
                    out[:, i, j] = e.eval_block(Xi)
            return out

        A = grid_eval(self.a_entries, self.n)
        B = None if self.b_entries is None else grid_eval(self.b_entries, self.m)
        return A, B

    def closed_loop(self, F):
        F = self._check_gain(F)
        new = tuple(
            tuple(
                PolyEntry.combine(
                    [(1.0, self.a_entries[i][j])]
                    + [(F[q, j], self.b_entries[i][q]) for q in range(self.m)]
                )
                for j in range(self.n)
            )
            for i in range(self.n)
        )
        return PolyForm(new, self.dist)

    def to_obj(self):
        obj = {"form": "poly", "n": self.n, "Z": self.Z,
               "entries": [[e.to_obj() for e in row] for row in self.a_entries],
               "dist": self.dist.to_obj()}
        if self.b_entries is not None:
            obj["m"] = self.m
            obj["input_entries"] = [[e.to_obj() for e in row] for row in self.b_entries]
        return obj


def _support_min(coord) -> float:
    if isinstance(coord, Normal):
        return -np.inf
    if isinstance(coord, Uniform):
        return coord.lo
    if isinstance(coord, Exponential):
        return 0.0
    if isinstance(coord, Discrete):
        return min(coord.values)
    if isinstance(coord, Constant):
        return coord.value
    raise UnsupportedForm(f"unknown coordinate type {type(coord).__name__}")


@dataclass(frozen=True, eq=False)
class SampledDataForm(SystemModel):
    """Plant discretized under the random interval ``h = offset + scale * xi[coord]``."""

    plant: _sampled.ContinuousPlant
    dist: DistributionSpec
    offset: float
    scale: float = 1.0
    coord: int = 0

    def __post_init__(self):
        if not self.offset > 0:
            raise StochLyapError("interval offset must be positive")
        if self.scale < 0:
            raise StochLyapError("interval scale must be nonnegative")
        if not 0 <= self.coord < self.dist.Z:
            raise StochLyapError(f"interval coordinate {self.coord} out of range")
        if self.scale > 0 and _support_min(self.dist.coords[self.coord]) < 0:
            raise StochLyapError(
                "interval coordinate must have nonnegative support so that h > 0"
            )

    @property
    def n(self) -> int:
        return self.plant.n

    @property
    def m(self) -> int:
        return self.plant.m

    def interval(self, Xi: np.ndarray) -> np.ndarray:
        """Sampling intervals ``h`` of a ``(count, Z)`` block of parameter vectors."""
        return self.offset + self.scale * Xi[:, self.coord]

    def evaluate_block(self, Xi):
        Xi = self._check_block(Xi)
        return _sampled.discretize_batch(self.plant, self.interval(Xi))

    def check_second_moment(self) -> None:
        """Raise :class:`UnsupportedMoment` unless ``E[exp(h K)]`` is finite.

        Products of two coefficient entries are entries of
        ``exp(h K)``, ``K = Aug ⊕ Aug`` (Kronecker sum of the augmented
        generator).  Under an exponential interval coordinate of rate
        ``r`` the expectation exists only when ``r > scale * max Re eig K``;
        bounded interval laws always pass.
        """
        law = self.dist.coords[self.coord]
        if self.scale == 0 or not isinstance(law, Exponential):
            return
        aug = _sampled._augmented(self.plant)
        eye = np.eye(len(aug))
        K = np.kron(aug, eye) + np.kron(eye, aug)
        bound = self.scale * float(np.linalg.eigvals(K).real.max())
        if not law.rate > bound:
            raise UnsupportedMoment(
                f"second moment is infinite: exponential interval rate {law.rate:g} "
                f"must exceed the bound scale * max Re eig(Aug (+) Aug) = {bound:.6g}"
            )

    def closed_loop(self, F):
        F = self._check_gain(F)
        return ClosedLoopSampledForm(self, F)

    def to_obj(self):
        return {"form": "sampled", "n": self.n, "m": self.m, "Z": self.Z,
                "plant": self.plant.to_obj(),
                "interval": {"offset": self.offset, "scale": self.scale, "coord": self.coord},
                "dist": self.dist.to_obj()}


@dataclass(frozen=True, eq=False)
class ClosedLoopSampledForm(SystemModel):
    """Sampled-data model with a gain folded in by composition."""

    base: SampledDataForm
    F: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "F", np.atleast_2d(np.asarray(self.F, dtype=float)))

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def m(self) -> int:
        return 0

    @property
    def dist(self) -> DistributionSpec:
        return self.base.dist

    def evaluate_block(self, Xi):
        A, B = self.base.evaluate_block(Xi)
        return A + B @ self.F, None

    def check_second_moment(self) -> None:
        """:meth:`SampledDataForm.check_second_moment` of the open-loop model."""
        self.base.check_second_moment()

    def closed_loop(self, F):
        raise NoInputChannel("model has no input channel (m = 0)")

    def to_obj(self):
        return {"form": "sampled-closed-loop", "base": self.base.to_obj(),
                "F": self.F.tolist()}


def model_from_obj(obj: dict) -> SystemModel:
    """Decode a model from its JSON object form."""
    form = obj.get("form")
    dist = None if "dist" not in obj else DistributionSpec.from_obj(obj["dist"])
    if form == "affine":
        a = tuple(np.asarray(M, float) for M in obj["A"])
        b = None if "B" not in obj else tuple(np.asarray(M, float) for M in obj["B"])
        return AffineForm(a, dist, b)
    if form == "switched":
        a = tuple(np.asarray(M, float) for M in obj["modes"])
        b = None if "B_modes" not in obj else tuple(np.asarray(M, float) for M in obj["B_modes"])
        return SwitchedForm(a, dist, b)
    if form == "poly":
        def grid(rows):
            return tuple(
                tuple(PolyEntry(tuple((c, tuple(a)) for c, a in e["terms"])) for e in row)
                for row in rows
            )
        a = grid(obj["entries"])
        b = None if "input_entries" not in obj else grid(obj["input_entries"])
        return PolyForm(a, dist, b)
    if form == "sampled":
        iv = obj["interval"]
        return SampledDataForm(
            _sampled.ContinuousPlant.from_obj(obj["plant"]), dist,
            offset=float(iv["offset"]), scale=float(iv.get("scale", 1.0)),
            coord=int(iv.get("coord", 0)),
        )
    if form == "sampled-closed-loop":
        base = model_from_obj(obj["base"])
        return ClosedLoopSampledForm(base, np.asarray(obj["F"], float))
    raise StochLyapError(f"unknown model form {form!r}")
