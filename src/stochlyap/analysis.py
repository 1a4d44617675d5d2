"""Quadratic stability analysis through the moment operator.

The linear map ``T: P -> E[A^T P A]`` decides everything: the system is
quadratically (equivalently exponentially, equivalently asymptotically)
stable in the second moment if and only if the spectral radius of ``T``
is below one, and the minimal decay rate is ``sqrt(rho(T))``.  ``T`` is
completely positive, so its spectral radius is a real eigenvalue attained
by a positive semidefinite eigenmatrix, which power iteration from
``P = I`` finds.

A Lyapunov certificate at a feasible rate solves the linear equation
``lambda^2 P - T(P) = I``; for ``lambda^2 > rho(T)`` the Neumann series
of the solution is a sum of PSD terms starting from a positive one, so
``P`` is positive definite exactly when the rate is feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import moment as _dist_moment
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InfeasibleLambda,
    StochLyapError,
    UnsupportedForm,
)
from .moments import SecondMomentData, expected_quadratic, operator_matrix
from .sysmodel import AffineForm, SwitchedForm, SystemModel

#: Iteration cap after which power iteration defers to a dense eigensolver.
POWER_ITERATION_CAP = 10_000


@dataclass(frozen=True, eq=False)
class MomentOperatorMatrix:
    """Matrix of ``P -> E[A^T P A]`` in row-vectorization coordinates.

    ``matrix[(j, l), (i, k)] = E[A_ij A_kl]``; it is a pure index
    permutation of the A-block of the second-moment data, with no
    floating-point arithmetic beyond copying.
    """

    matrix: np.ndarray
    n: int

    def apply(self, P: np.ndarray) -> np.ndarray:
        """Evaluate ``E[A^T P A]`` as ``unvec(M vec(P))``."""
        return (self.matrix @ np.asarray(P, float).ravel()).reshape(self.n, self.n)


def build_operator(data: SecondMomentData) -> MomentOperatorMatrix:
    """Moment operator matrix from second-moment data (A-block only)."""
    M = operator_matrix(data.a_block, data.n)
    return MomentOperatorMatrix(np.ascontiguousarray(M), data.n)


def spectral_radius(op: MomentOperatorMatrix, tol: float) -> float:
    """Spectral radius of the moment operator.

    Power iteration on the Lyapunov-matrix space from ``P = I`` with a
    Rayleigh-quotient residual test on ``T``; falls back to a dense
    eigensolver when the dominant eigenvalue is not isolated enough to
    converge within :data:`POWER_ITERATION_CAP` iterations.

    Every other step applies the shifted map ``P -> T(P) + c P`` with
    ``c = ||T(P0)|| > 0``, so the iteration runs on ``T (T + cI)``.
    ``T`` is a positive map, so ``rho`` is one of its eigenvalues, and
    ``rho (rho + c)`` is the only eigenvalue of ``T (T + cI)`` of largest
    modulus even when ``T`` also has ``-rho`` or other eigenvalues of
    modulus ``rho`` (cyclic switching), where plain power iteration never
    settles.  The plain ``T`` steps keep the exact stop at ``T(P) = 0``
    when ``T`` is nilpotent, which ``T + cI`` alone would lose.
    """
    if not 0.0 < tol <= 1e-2:
        raise StochLyapError(f"tol must lie in (0, 1e-2], got {tol}")
    n = op.n
    M = op.matrix
    P = np.eye(n).ravel() / np.sqrt(n)
    Q = M @ P
    shift = float(np.linalg.norm(Q))
    r = 0.0
    for k in range(POWER_ITERATION_CAP):
        if not Q.any():
            # T^j (T + cI)^i (I) = 0, and (T + cI)^i (I) > 0, so T^j = 0
            return 0.0
        r = float(Q @ P)
        if r > 0 and np.linalg.norm(Q - r * P) <= 0.05 * tol * r:
            return r
        P = Q if k % 2 else Q + shift * P
        P = P / np.linalg.norm(P)
        Q = M @ P
    try:
        ev = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(
            "power iteration stalled and dense eigensolver failed",
            best=r, bounds=None,
        ) from exc
    return float(np.abs(ev).max())


def minimal_lambda(op: MomentOperatorMatrix, tol: float = 1e-9) -> float:
    """Minimal decay rate: the square root of the operator spectral radius.

    This is the infimum of rates for which a Lyapunov matrix exists; the
    infimum itself is generally not attained, so certificates should be
    requested slightly above it.
    """
    return float(np.sqrt(spectral_radius(op, tol)))


def lyapunov_certificate(
    op: MomentOperatorMatrix, data: SecondMomentData, lam: float
) -> np.ndarray:
    """Lyapunov matrix ``P  > 0`` with ``lambda^2 P - E[A^T P A] = I``.

    Requires ``lam`` strictly above the minimal rate with some margin;
    at or below it, the linear solve cannot produce a positive definite
    ``P`` and :class:`InfeasibleLambda` is raised.

    Parameters
    ----------
    op : MomentOperatorMatrix
    data : SecondMomentData
        Used for the independent residual check.
    lam : float
        Decay rate, positive.

    Returns
    -------
    numpy.ndarray
        Symmetric positive definite ``n x n`` matrix.
    """
    if not lam > 0:
        raise StochLyapError("lambda must be positive")
    n = op.n
    lhs = lam**2 * np.eye(n * n) - op.matrix
    try:
        vec = np.linalg.solve(lhs, np.eye(n).ravel())
    except np.linalg.LinAlgError as exc:
        raise InfeasibleLambda(f"lambda = {lam} is singular for the solve") from exc
    P = vec.reshape(n, n)
    P = (P + P.T) / 2.0
    if np.linalg.eigvalsh(P)[0] <= 0:
        raise InfeasibleLambda(f"no positive definite Lyapunov matrix at lambda = {lam}")
    resid = lam**2 * P - expected_quadratic(data, P)
    if float(np.linalg.eigvalsh(resid)[0]) < 0.99:
        raise InfeasibleLambda(
            f"certificate residual check failed at lambda = {lam}"
        )
    return P


def check_quadratic(
    data: SecondMomentData, P: np.ndarray, lam: float
) -> tuple[bool, float]:
    """Feasibility of one ``(P, lambda)`` pair in the Lyapunov inequality.

    Returns ``(ok, margin)`` where ``margin`` is the minimum eigenvalue
    of ``lambda^2 P - E[A^T P A]`` and ``ok`` allows a relative slack of
    ``1e-9 * ||P||``.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (data.n, data.n):
        raise DimensionMismatch(f"P shape {P.shape}, expected ({data.n}, {data.n})")
    if np.abs(P - P.T).max() > 1e-9 * max(1.0, np.abs(P).max()):
        raise StochLyapError("P must be symmetric")
    margin = float(np.linalg.eigvalsh(lam**2 * P - expected_quadratic(data, P))[0])
    return margin >= -1e-9 * float(np.linalg.norm(P, 2)), margin


def special_case_lmi(model: SystemModel) -> list[tuple[float, np.ndarray]]:
    """Weighted congruence pairs for the classical special-case LMIs.

    For a switched model the pairs are ``(p_i, A[i])``; for an affine
    model with zero-mean noise coordinates they are ``(1, A0)`` plus
    ``(E[xi_i^2], A_i)``.  In both cases the induced map
    ``P -> sum_i w_i M_i^T P M_i`` must coincide with the general moment
    operator, which the property tests assert.
    """
    if isinstance(model, SwitchedForm):
        return [(float(p), A) for p, A in zip(model.mode_probs, model.a_modes)]
    if isinstance(model, AffineForm):
        Z = model.Z
        for i in range(Z):
            e_i = tuple(1 if t == i else 0 for t in range(Z))
            if _dist_moment(model.dist, e_i) != 0.0:
                raise UnsupportedForm(
                    "affine special case needs zero-mean noise coordinates"
                )
        pairs = [(1.0, model.a_mats[0])]
        for i in range(Z):
            e_i2 = tuple(2 if t == i else 0 for t in range(Z))
            pairs.append((float(_dist_moment(model.dist, e_i2)), model.a_mats[i + 1]))
        return pairs
    raise UnsupportedForm(f"no special-case LMI for {type(model).__name__}")


def operator_from_pairs(pairs, n: int) -> MomentOperatorMatrix:
    """Moment operator of ``P -> sum_i w_i M_i^T P M_i``.

    In row-vectorization coordinates each congruence contributes
    ``(M_i kron M_i)^T``.
    """
    M = np.zeros((n * n, n * n))
    for wgt, Mat in pairs:
        M += wgt * np.kron(Mat, Mat).T
    return MomentOperatorMatrix(M, n)


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Outcome of a stability analysis.

    ``lambda_min`` is the minimal decay rate; the certificate ``P`` (at
    rate ``lambda_cert`` slightly above it) is present only when the
    system is stable.  ``residual`` is the smallest eigenvalue of
    ``lambda_cert^2 P - E[A^T P A]``, close to 1 by construction.
    """

    stable: bool
    lambda_min: float
    P: np.ndarray | None
    lambda_cert: float | None
    residual: float | None
    method: str
    tol: float

    def to_obj(self) -> dict:
        return {
            "stable": self.stable,
            "lambda_min": self.lambda_min,
            "lambda_cert": self.lambda_cert,
            "P": None if self.P is None else self.P.tolist(),
            "min_eig_P": None if self.P is None else float(np.linalg.eigvalsh(self.P)[0]),
            "residual": self.residual,
            "method": self.method,
            "tolerances": {"tol": self.tol},
        }


def stability_report(data: SecondMomentData, tol: float = 1e-6) -> StabilityReport:
    """Full analysis: minimal rate plus a certificate when stable."""
    op = build_operator(data)
    rho = spectral_radius(op, tol)
    lam = float(np.sqrt(rho))
    if lam >= 1.0:
        return StabilityReport(False, lam, None, None, None, "spectral", tol)
    # certify strictly above the infimum (with a floor for nilpotent
    # dynamics, whose infimum is 0); widen the margin if the solve is
    # too ill-conditioned at the first choice, cap below 1 throughout
    candidates = [max(lam * (1.0 + 10.0 * tol), 1e-3),
                  max(lam * 1.0001, 1e-3),
                  max(lam * 1.01, 1e-3),
                  float(np.sqrt((rho + 1.0) / 2.0))]
    last = None
    for lam_cert in candidates:
        if lam_cert >= 1.0:
            lam_cert = float(np.sqrt((rho + 1.0) / 2.0))
        try:
            P = lyapunov_certificate(op, data, lam_cert)
        except InfeasibleLambda as exc:
            last = exc
            continue
        resid = float(
            np.linalg.eigvalsh(lam_cert**2 * P - expected_quadratic(data, P))[0]
        )
        return StabilityReport(True, lam, P, lam_cert, resid, "spectral", tol)
    raise last
