"""System models: the random coefficient maps xi -> A(xi) and xi -> (A, B).

Four concrete forms share one interface:

* ``AffineForm``      A(xi) = A0 + sum_i Ai xi_i, likewise for B.
* ``SwitchedForm``    A(xi) = A[xi], mode index drawn from a discrete law.
* ``PolyForm``        every entry a polynomial of degree <= 2 in xi.
* ``SampledDataForm`` A(xi) = exp(A_c h(xi)) with a random interval h.

The three exact forms are front-ends of one :class:`CoefficientForm`:
each is linear in a few basis functions, ``g(xi) = phi(xi)^T C`` with
``g = [row(A), row(B)]``, and ``phi`` is ``[1, xi]`` (affine), the
distinct monomials of the entries (polynomial) or the mode indicators
(switched).  Evaluation, closing the loop and the moments of ``phi``
are written once, on the coefficient form.  The sampled-data forms are
not linear in a finite basis and stay separate.

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


class CoefficientForm(SystemModel):
    """Internal base of the exact forms: ``g(xi) = phi(xi)^T C``.

    ``C`` has one row ``[row(A_k), row(B_k)]`` per basis function
    ``phi_k``.  By default ``phi`` is the monomials ``xi^alpha`` whose
    multi-indices (total degree <= 2) are the rows of ``exponents``; each
    is the product of two columns of ``[1, xi]``, never a float power.
    A front-end calls :meth:`_set_coefficients` in its constructor, and
    its ``_analysis_model(A)`` rebuilds it without input from the
    closed-loop basis matrices ``A[k] = A_k + B_k F``.
    """

    C: np.ndarray
    exponents: np.ndarray | None

    def _set_coefficients(self, a_mats, b_mats, exponents) -> None:
        A = np.asarray(a_mats, dtype=float)
        K, n = A.shape[:2]
        B = np.zeros((K, n, 0)) if b_mats is None else np.asarray(b_mats, dtype=float)
        C = np.hstack([A.reshape(K, n * n), B.reshape(K, n * B.shape[2])])
        if not np.isfinite(C).all():
            raise StochLyapError(f"{type(self).__name__} has a non-finite coefficient")
        pairs = None
        if exponents is not None:
            cols = [[0, 0] + [q + 1 for q, a in enumerate(alpha) for _ in range(a)]
                    for alpha in exponents.tolist()]
            pairs = np.array([c[-2:] for c in cols], dtype=int).reshape(K, 2).T
        # the front-ends are frozen dataclasses: derived attributes bypass __setattr__
        vars(self).update(C=C, n=n, m=B.shape[2], exponents=exponents, _pairs=pairs)

    def basis_block(self, Xi: np.ndarray) -> np.ndarray:
        """``phi`` on a ``(count, Z)`` block, as a ``(count, K)`` array."""
        cols = np.hstack([np.ones((Xi.shape[0], 1)), Xi])
        return cols[:, self._pairs[0]] * cols[:, self._pairs[1]]

    def basis_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """``(E[phi phi^T], E[phi])``, gathered from the raw-moment table.

        ``E[xi^(a+b)]`` is the product over coordinates ``q`` of
        ``E[xi_q^(a_q + b_q)]``, multiplied in coordinate order.
        """
        E = self.exponents
        phi2, mu = np.ones((len(E), len(E))), np.ones(len(E))
        for q, row in enumerate(self.dist.moment_table(2 * int(E.max(initial=0)))):
            phi2 *= row[E[:, q, None] + E[None, :, q]]
            mu *= row[E[:, q]]
        return phi2, mu

    def evaluate_block(self, Xi):
        Xi = self._check_block(Xi)
        g = self.basis_block(Xi) @ self.C
        n, nn = self.n, self.n * self.n
        B = None if self.m == 0 else g[:, nn:].reshape(-1, n, self.m)
        return g[:, :nn].reshape(-1, n, n), B

    def closed_loop(self, F):
        F = self._check_gain(F)
        K, n, nn = len(self.C), self.n, self.n * self.n
        A, B = self.C[:, :nn].reshape(K, n, n), self.C[:, nn:].reshape(K, n, self.m)
        return self._analysis_model(A + B @ F)


@dataclass(frozen=True, eq=False)
class AffineForm(CoefficientForm):
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
        self._set_coefficients(a, self.b_mats, np.vstack([np.zeros(Z, int), np.eye(Z, dtype=int)]))

    # a binding of its own: bench/tracing.py wraps vars(cls)["evaluate_block"]
    evaluate_block = CoefficientForm.evaluate_block

    def _analysis_model(self, A):
        return AffineForm(tuple(A), self.dist)

    def to_obj(self):
        obj = {"form": "affine", "n": self.n, "Z": self.Z,
               "A": [M.tolist() for M in self.a_mats], "dist": self.dist.to_obj()}
        if self.b_mats is not None:
            obj["m"] = self.m
            obj["B"] = [M.tolist() for M in self.b_mats]
        return obj


@dataclass(frozen=True, eq=False)
class SwitchedForm(CoefficientForm):
    """Mode switching ``A(xi) = A[xi]`` driven by a discrete coordinate.

    The distribution must be a single :class:`~stochlyap.dist.Discrete`
    coordinate over the exact mode indices ``1..S``.  The basis is the
    mode indicators, with moments ``diag(p)`` and ``p``.
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
        self._set_coefficients(a, self.b_modes, None)

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

    def basis_block(self, Xi):
        return np.eye(len(self.a_modes))[self._mode_indices(Xi)]

    def basis_moments(self):
        return np.diag(self.mode_probs), self.mode_probs

    # a binding of its own: bench/tracing.py wraps vars(cls)["evaluate_block"]
    evaluate_block = CoefficientForm.evaluate_block

    def _analysis_model(self, A):
        return SwitchedForm(tuple(A), self.dist)

    def to_obj(self):
        obj = {"form": "switched", "n": self.n, "Z": 1,
               "modes": [M.tolist() for M in self.a_modes], "dist": self.dist.to_obj()}
        if self.b_modes is not None:
            obj["m"] = self.m
            obj["B_modes"] = [M.tolist() for M in self.b_modes]
        return obj


@dataclass(frozen=True, eq=False)
class PolyForm(CoefficientForm):
    """Entrywise polynomial dependence of degree at most 2.

    The basis is the distinct monomials of the entries, in sorted order.
    """

    a_entries: tuple
    dist: DistributionSpec
    b_entries: tuple | None = None

    def __post_init__(self):
        a = tuple(tuple(row) for row in self.a_entries)
        n = len(a)
        if n < 1 or any(len(row) != n for row in a):
            raise DimensionMismatch("A entry grid must be square")
        grids = [a]
        object.__setattr__(self, "a_entries", a)
        if self.b_entries is not None:
            b = tuple(tuple(row) for row in self.b_entries)
            if len(b) != n or len({len(row) for row in b}) != 1:
                raise DimensionMismatch("B entry grid must be n x m")
            grids.append(b)
            object.__setattr__(self, "b_entries", b)
        if not all(isinstance(e, PolyEntry) for g in grids for row in g for e in row):
            raise StochLyapError("grid entries must be PolyEntry")
        alphas = sorted({alpha for g in grids for row in g for e in row for _, alpha in e.terms})
        for alpha in alphas:
            if len(alpha) != self.dist.Z:
                raise DimensionMismatch(f"multi-index length {len(alpha)} != Z = {self.dist.Z}")
        row_of = {alpha: k for k, alpha in enumerate(alphas)}
        stacks = [np.zeros((len(alphas), n, len(g[0]))) for g in grids]
        for S, grid in zip(stacks, grids):
            for i, row in enumerate(grid):
                for j, e in enumerate(row):
                    for coeff, alpha in e.terms:
                        S[row_of[alpha], i, j] = coeff
        self._set_coefficients(stacks[0], stacks[1] if len(stacks) > 1 else None,
                               np.array(alphas, dtype=int).reshape(-1, self.dist.Z))

    # a binding of its own: bench/tracing.py wraps vars(cls)["evaluate_block"]
    evaluate_block = CoefficientForm.evaluate_block

    def _analysis_model(self, A):
        alphas = [tuple(a) for a in self.exponents.tolist()]
        return PolyForm(tuple(tuple(PolyEntry(tuple(zip(A[:, i, j], alphas))) for j in range(self.n))
                              for i in range(self.n)), self.dist)

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
    """Decode a model from its JSON object form.

    A missing or malformed value raises :class:`StochLyapError` naming the
    form and the key.
    """
    if not isinstance(obj, dict):
        raise StochLyapError(f"a model must be a JSON object, not {type(obj).__name__}")
    form = obj.get("form")

    def read(key, decode, optional=False):
        try:
            return None if optional and key not in obj else decode(obj[key])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            detail = "missing" if key not in obj else f"malformed ({exc!r})"
            raise StochLyapError(f"{form} model: key {key!r} {detail}") from exc

    def mats(value):
        return tuple(np.asarray(M, float) for M in value)

    def grid(rows):
        return tuple(tuple(PolyEntry(tuple((c, tuple(a)) for c, a in e["terms"])) for e in row)
                     for row in rows)

    if form == "affine":
        return AffineForm(read("A", mats), read("dist", DistributionSpec.from_obj),
                          read("B", mats, optional=True))
    if form == "switched":
        return SwitchedForm(read("modes", mats), read("dist", DistributionSpec.from_obj),
                            read("B_modes", mats, optional=True))
    if form == "poly":
        return PolyForm(read("entries", grid), read("dist", DistributionSpec.from_obj),
                        read("input_entries", grid, optional=True))
    if form == "sampled":
        offset, scale, coord = read("interval", lambda iv: (
            float(iv["offset"]), float(iv.get("scale", 1.0)), int(iv.get("coord", 0))))
        return SampledDataForm(read("plant", _sampled.ContinuousPlant.from_obj),
                               read("dist", DistributionSpec.from_obj),
                               offset=offset, scale=scale, coord=coord)
    if form == "sampled-closed-loop":
        return ClosedLoopSampledForm(read("base", model_from_obj),
                                     read("F", lambda F: np.asarray(F, float)))
    raise StochLyapError(f"unknown model form {form!r}")
