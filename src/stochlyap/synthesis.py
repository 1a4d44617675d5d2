"""State-feedback synthesis through the rearranged-factor block inequality.

With the stacked factors ``GpA``/``GpB`` of the open-loop second moment,
a gain rendering the closed loop quadratically stable at rate ``lambda``
exists iff the block matrix

    [[lambda^2 X,  (GpA X + GpB Y)^T],
     [GpA X + GpB Y,  X kron I_{(n+m)n}]]

is positive definite for some symmetric ``X`` and some ``Y``; then
``F = Y X^{-1}``.  The inequality is linear and homogeneous in
``(X, Y)``, so feasibility is scale-free and any strictly positive
definite point can be rescaled to a requested margin.

The reference solver alternates projections between the margin-shifted
PSD cone and the variable subspace (Dykstra correction on the cone).
Because the feasible cone can meet the subspace at a very shallow angle,
the iteration is seeded with candidate points built from the spectral
analysis machinery: candidate gains are scored by the exact closed-loop
decay rate, and any gain strictly beating the target rate yields an
exactly feasible point via the Lyapunov linear solve.  Seeds that
already satisfy the inequality end the iteration immediately; otherwise
Dykstra runs from the best seed up to the iteration cap and declares
infeasibility on stall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import (
    AnalysisOnlyModel,
    BackendFailure,
    DimensionMismatch,
    NotStabilizable,
    StochLyapError,
    VerificationMismatch,
)
from .moments import (
    RearrangedFactors,
    SecondMomentData,
    closed_loop_second_moment,
    factorize,
    operator_matrix,
)
from .analysis import StabilityReport, stability_report
from .sysmodel import SystemModel

#: Dykstra iteration cap for the reference backend.
ITERATION_CAP = 50_000

_STALL_WINDOW = 600
_STALL_FACTOR = 0.95
# strict-PD acceptance for subspace iterates: far above the ~1e-15 noise
# floor of eigvalsh yet permissive enough for thin feasibility margins
_PD_REL = 1e-11


def default_margin(data: SecondMomentData) -> float:
    """Default strictness margin, scaled to the moment data."""
    return 1e-6 * (1.0 + float(np.linalg.norm(data.g2)))


def _x_index_pairs(n: int):
    return [(i, j) for i in range(n) for j in range(i, n)]


def split_vars(v: np.ndarray, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Unpack the variable vector into ``(X, Y)``.

    Layout: upper triangle of ``X`` row-major, then ``Y`` row-major.
    """
    v = np.asarray(v, dtype=float)
    X = np.zeros((n, n))
    for k, (i, j) in enumerate(_x_index_pairs(n)):
        X[i, j] = X[j, i] = v[k]
    Y = v[n * (n + 1) // 2:].reshape(m, n)
    return X, Y


def join_vars(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pack ``(X, Y)`` into the variable vector (inverse of :func:`split_vars`)."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    return np.concatenate(
        [np.array([X[i, j] for i, j in _x_index_pairs(n)]), np.asarray(Y, float).ravel()]
    )


#: Record layout of :attr:`LmiProblem.basis`: the coefficient block of
#: variable ``var`` has the entry ``val`` at ``(row, col)`` (0-based).
ENTRY_DTYPE = np.dtype(
    [("var", np.int32), ("row", np.int32), ("col", np.int32), ("val", np.float64)]
)


@dataclass(frozen=True, eq=False)
class LmiProblem:
    """Assembled synthesis inequality ``M(vars) >= margin * I``.

    ``M(v) = sum_a v_a S_a`` is linear in the variables (the
    :func:`split_vars` layout) with no constant term.  ``basis`` lists
    the nonzero upper-triangle entries of every symmetric block ``S_a``
    as :data:`ENTRY_DTYPE` records sorted by ``(var, row, col)``, which
    is exactly the SDPA entry list of the rate block; its size grows
    with the number of nonzeros, not with ``num_vars * dim^2``.
    """

    basis: np.ndarray
    dim: int
    num_vars: int
    margin: float
    lam: float
    n: int
    m: int
    factors: RearrangedFactors

    def assemble_at(self, v: np.ndarray) -> np.ndarray:
        """Dense ``M(v)``: the upper triangle scattered, then mirrored."""
        D, b = self.dim, self.basis
        weights = np.asarray(v, float)[b["var"]] * b["val"]
        flat = b["row"].astype(np.int64) * D + b["col"]
        M = np.bincount(flat, weights=weights, minlength=D * D).reshape(D, D)
        return M + np.triu(M, 1).T


def assemble(factors: RearrangedFactors, lam: float, margin: float) -> LmiProblem:
    """Build the entry list of the block inequality for one decay rate.

    The blocks come straight from the formula in the module docstring:
    for ``X_ij`` (``i <= j``) they are ``lam^2`` at ``(i, j)``, the
    ``GpA`` columns ``j`` and ``i`` in rows ``i`` and ``j`` of the
    off-diagonal block, and the ``w`` unit diagonals of block ``(i, j)``
    of ``X kron I_w``; for ``Y_qj`` the ``GpB`` column ``q`` in row ``j``
    of the off-diagonal block.

    Parameters
    ----------
    factors : RearrangedFactors
        From :func:`stochlyap.moments.factorize` of synthesis-mode data.
    lam : float
        Target decay rate (enters only the top-left block).
    margin : float
        Strictness margin; the solved condition is ``M(v) >= margin I``.
    """
    n, m = factors.n, factors.m
    if m == 0 or factors.gpb is None:
        raise AnalysisOnlyModel("synthesis needs an input channel (m >= 1)")
    w = (n + m) * n
    D = n + w * n
    off = np.arange(n, D)  # the columns of the off-diagonal block, in the upper triangle
    diag = np.arange(w)
    parts = []  # (var, row, cols, vals), already in (var, row, col) order

    for a, (i, j) in enumerate(_x_index_pairs(n)):
        parts.append((a, i, np.array([j]), np.array([lam**2])))
        parts.append((a, i, off, factors.gpa[:, j]))
        if i != j:
            parts.append((a, j, off, factors.gpa[:, i]))
        parts.append((a, n + i * w + diag, n + j * w + diag, np.ones(w)))
    a0 = n * (n + 1) // 2
    for q in range(m):
        for j in range(n):
            parts.append((a0 + q * n + j, j, off, factors.gpb[:, q]))

    sizes = [len(cols) for _, _, cols, _ in parts]
    basis = np.empty(sum(sizes), dtype=ENTRY_DTYPE)
    basis["var"] = np.repeat([p[0] for p in parts], sizes)
    basis["row"] = np.concatenate([np.broadcast_to(p[1], (k,)) for p, k in zip(parts, sizes)])
    basis["col"] = np.concatenate([p[2] for p in parts])
    basis["val"] = np.concatenate([p[3] for p in parts])
    basis = basis[basis["val"] != 0.0]
    return LmiProblem(basis, D, a0 + m * n, float(margin), float(lam), n, m, factors)


def _dense_basis(problem: LmiProblem) -> np.ndarray:
    """The ``dim^2 x num_vars`` matrix whose column ``a`` is ``vec(S_a)``.

    Built from :meth:`LmiProblem.assemble_at` on unit vectors; only the
    dense reference backend uses it, on problems small enough for it.
    """
    return np.array([problem.assemble_at(e).ravel() for e in np.eye(problem.num_vars)]).T


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """Outcome of one feasibility solve."""

    status: str  # "feasible" | "infeasible" | "exported"
    X: np.ndarray | None
    Y: np.ndarray | None
    iterations: int
    backend: str

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def closed_loop_rate(factors: RearrangedFactors, F: np.ndarray) -> float:
    """Exact closed-loop minimal decay rate for a candidate gain.

    Works directly on the stacked factors: the closed-loop factor is
    ``H = GpA + GpB F`` and the closed-loop entry products are the block
    Gram matrix of ``H``.
    """
    n, m = factors.n, factors.m
    F = np.atleast_2d(np.asarray(F, float))
    if F.shape != (m, n):
        raise DimensionMismatch(f"gain shape {F.shape} != ({m}, {n})")
    M = _closed_loop_operator(factors, F)
    return float(np.sqrt(np.abs(np.linalg.eigvals(M)).max()))


def _closed_loop_operator(factors: RearrangedFactors, F: np.ndarray) -> np.ndarray:
    """Moment operator matrix of the closed loop ``A + B F``."""
    n, m = factors.n, factors.m
    H = (factors.gpa + factors.gpb @ F).reshape(n, (n + m) * n, n)
    return operator_matrix(np.einsum("iwj,kwl->ijkl", H, H), n)


def _certificate_point(factors: RearrangedFactors, F: np.ndarray, lam: float):
    """Exact feasible ``(X, Y)`` from a gain whose closed-loop rate beats ``lam``.

    Solves ``lam^2 P - E[A_cl^T P A_cl] = I`` for the closed loop and
    returns ``X = P^{-1}``, ``Y = F X``; None when the solve fails or
    yields a non-PD ``P``.
    """
    n = factors.n
    F = np.atleast_2d(np.asarray(F, float))
    M = _closed_loop_operator(factors, F)
    try:
        vec = np.linalg.solve(lam**2 * np.eye(n * n) - M, np.eye(n).ravel())
    except np.linalg.LinAlgError:
        return None
    P = vec.reshape(n, n)
    P = (P + P.T) / 2.0
    if np.linalg.eigvalsh(P)[0] <= 0:
        return None
    X = np.linalg.inv(P)
    X = (X + X.T) / 2.0
    return join_vars(X, F @ X)


def candidate_gains(data: SecondMomentData, refine: bool = True) -> list[np.ndarray]:
    """Candidate gains for seeding the feasibility solver.

    Includes the zero gain, the factor least-squares gain (minimizer of
    the mean squared closed-loop coefficient norm), a Riccati gain for
    the mean system when it exists, and optionally a direct numerical
    minimizer of the exact closed-loop rate.
    """
    factors = factorize(data)
    n, m = data.n, data.m
    cands = [np.zeros((m, n))]
    f_lsq = -np.linalg.lstsq(factors.gpb, factors.gpa, rcond=None)[0]
    cands.append(f_lsq)
    try:
        S = scipy.linalg.solve_discrete_are(
            data.mean_a, data.mean_b, np.eye(n), np.eye(m)
        )
        BtSB = data.mean_b.T @ S @ data.mean_b
        cands.append(-np.linalg.solve(np.eye(m) + BtSB, data.mean_b.T @ S @ data.mean_a))
    except Exception:
        pass
    if refine:
        best = min(cands, key=lambda F: closed_loop_rate(factors, F))
        res = scipy.optimize.minimize(
            lambda f: closed_loop_rate(factors, f.reshape(m, n)),
            best.ravel(),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 800 * m * n,
                     "maxfev": 800 * m * n},
        )
        res = scipy.optimize.minimize(
            lambda f: closed_loop_rate(factors, f.reshape(m, n)),
            res.x,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 800 * m * n,
                     "maxfev": 800 * m * n},
        )
        cands.insert(0, res.x.reshape(m, n))
    return cands


def _seed_points(problem: LmiProblem, warm_start, seed_gains, Bmat):
    """Candidate start points; the default seeds need the dense basis ``Bmat``."""
    n, m = problem.n, problem.m
    seeds = []
    if warm_start is not None:
        seeds.append(np.asarray(warm_start, float))
    if Bmat is not None:
        seeds.append(join_vars(np.eye(n), np.zeros((m, n))))
        # least-squares fit of the identity within the subspace
        v_ls = np.linalg.lstsq(Bmat, np.eye(problem.dim).ravel(), rcond=None)[0]
        seeds.append(v_ls)
    for F in seed_gains:
        if closed_loop_rate(problem.factors, F) < problem.lam * (1.0 - 1e-12):
            v = _certificate_point(problem.factors, F, problem.lam)
            if v is not None:
                seeds.append(v)
    if not seeds:
        seeds.append(join_vars(np.eye(n), np.zeros((m, n))))
    return seeds


def _rescaled_if_pd(problem: LmiProblem, v: np.ndarray):
    """Rescale a strictly PD point onto the margin; None if not strictly PD."""
    Mv = problem.assemble_at(v)
    scale = float(np.linalg.norm(Mv))
    if scale == 0.0:
        return None
    mineig = float(np.linalg.eigvalsh(Mv)[0])
    if mineig < _PD_REL * scale:
        return None
    c = problem.margin * max(1.0, problem.lam**2) / mineig
    return v * c


def _solve_reference(problem: LmiProblem, warm_start, seed_gains, cap: int,
                     default_seeds: bool = True):
    Bmat = _dense_basis(problem) if default_seeds else None
    seeds = _seed_points(problem, warm_start, seed_gains, Bmat)
    scored = []
    for v in seeds:
        out = _rescaled_if_pd(problem, v)
        if out is not None:
            return FeasibilityResult("feasible", *split_vars(out, problem.n, problem.m), 0, "ref")
        Mv = problem.assemble_at(v)
        nv = float(np.linalg.norm(Mv))
        scored.append((-(np.linalg.eigvalsh(Mv)[0] / nv) if nv > 0 else np.inf, v))
    start = min(scored, key=lambda t: t[0])[1]

    # Dykstra alternating projections: correction on the cone only,
    # plain projection on the (linear) variable subspace.  An SVD basis
    # keeps the projection correct when basis blocks are dependent
    # (e.g. zero input columns).
    if Bmat is None:
        Bmat = _dense_basis(problem)
    U_b, s_b, _ = np.linalg.svd(Bmat, full_matrices=False)
    Q = U_b[:, s_b > 1e-12 * (s_b[0] if s_b.size else 1.0)]
    pinv = np.linalg.pinv(Bmat)
    D = problem.dim
    y = problem.assemble_at(start).ravel()
    p = np.zeros_like(y)
    best_gap = np.inf
    since_improve = 0
    for it in range(1, cap + 1):
        wvec = y + p
        W = wvec.reshape(D, D)
        W = (W + W.T) / 2.0
        ew, U = np.linalg.eigh(W)
        z = ((U * np.maximum(ew, problem.margin)) @ U.T).ravel()
        p = wvec - z
        y = Q @ (Q.T @ z)
        if it % 10 == 0 or it == 1:
            v = pinv @ y
            out = _rescaled_if_pd(problem, v)
            if out is not None:
                return FeasibilityResult(
                    "feasible", *split_vars(out, problem.n, problem.m), it, "ref"
                )
            gap = float(np.linalg.norm(z - y)) / (1.0 + float(np.linalg.norm(z)))
            if gap < best_gap * _STALL_FACTOR:
                best_gap = gap
                since_improve = 0
            else:
                since_improve += 10
                if since_improve >= _STALL_WINDOW:
                    return FeasibilityResult("infeasible", None, None, it, "ref")
    return FeasibilityResult("infeasible", None, None, cap, "ref")


def solve_feasibility(
    problem: LmiProblem,
    backend: str = "ref",
    warm_start: np.ndarray | None = None,
    seed_gains=None,
    iteration_cap: int = ITERATION_CAP,
    default_seeds: bool = True,
) -> FeasibilityResult:
    """Find ``(X, Y)`` with ``M(X, Y) >= margin/2 * I``, or declare infeasibility.

    Parameters
    ----------
    problem : LmiProblem
    backend : str
        ``"ref"`` runs the seeded Dykstra iteration described in the
        module docstring.  ``"sdpa-export:<path>"`` writes the problem
        in SDPA sparse format to ``<path>`` and returns an ``"exported"``
        result; ``"sdpa-export:<path>:<solution>"`` additionally parses
        an externally produced solution file and validates it.
    warm_start : array_like, optional
        Variable vector used as an extra seed (e.g. from a neighbouring
        rate during bisection).
    seed_gains : sequence of arrays, optional
        Candidate gains scored by exact closed-loop rate; any gain that
        beats the target rate yields an immediately feasible point.
        Defaults to the zero and factor least-squares gains.
    iteration_cap : int
        Dykstra iteration budget for the reference backend.
    default_seeds : bool
        Include the identity and least-squares-identity seeds; disable
        to exercise the bare projection iteration.

    Returns
    -------
    FeasibilityResult
        ``feasible`` results satisfy ``min-eig M(X, Y) >= margin/2`` and
        ``X >= margin/2 * I``; ``infeasible`` carries no certificate.
    """
    if backend == "ref":
        if seed_gains is None:
            f_lsq = -np.linalg.lstsq(problem.factors.gpb, problem.factors.gpa, rcond=None)[0]
            seed_gains = [np.zeros((problem.m, problem.n)), f_lsq]
        return _solve_reference(problem, warm_start, seed_gains, iteration_cap, default_seeds)
    if backend.startswith("sdpa-export:"):
        from . import sdpa

        parts = backend.split(":", 2)
        path = parts[1]
        if not path:
            raise BackendFailure("sdpa-export backend needs a target path")
        sdpa.write_problem(problem, path)
        if len(parts) == 3:
            v = sdpa.read_solution_vector(parts[2], problem.num_vars)
            out = _rescaled_if_pd(problem, v)
            if out is None:
                raise BackendFailure("imported solution is not strictly feasible")
            return FeasibilityResult(
                "feasible", *split_vars(out, problem.n, problem.m), 0, backend
            )
        return FeasibilityResult("exported", None, None, 0, backend)
    raise BackendFailure(f"unknown backend {backend!r}")


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    """Gain synthesis outcome.

    ``trace`` records the bisection grid as ``(lambda, feasible,
    iterations)`` triples; ``closed_loop_report`` is the independent
    verification of ``F`` on the same moment data.
    """

    X: np.ndarray
    Y: np.ndarray
    F: np.ndarray
    lam: float
    backend: str
    trace: tuple
    closed_loop_report: StabilityReport

    def to_obj(self) -> dict:
        return {
            "X": self.X.tolist(),
            "Y": self.Y.tolist(),
            "F": self.F.tolist(),
            "lambda": self.lam,
            "backend": self.backend,
            "trace": [list(t) for t in self.trace],
            "closed_loop_report": self.closed_loop_report.to_obj(),
        }


def verify_gain(data: SecondMomentData, F: np.ndarray, tol: float = 1e-6) -> StabilityReport:
    """Independent stability analysis of a gain on open-loop moment data.

    The closed-loop second moment is derived algebraically from ``G2``
    and ``F`` (no re-sampling), then analyzed spectrally.
    """
    return stability_report(closed_loop_second_moment(data, F), tol)


def synthesize_min_lambda(
    model: SystemModel,
    data: SecondMomentData,
    lambda_tol: float = 1e-3,
    backend: str = "ref",
    margin: float | None = None,
) -> SynthesisResult:
    """Bisect the decay rate and return the gain at the smallest feasible one.

    Bisection runs over ``(0, 1]``; only rates below one certify
    stability.  If the inequality is infeasible at ``lambda = 1``, rates
    up to 2 are probed purely for diagnostics and
    :class:`NotStabilizable` is raised.  The returned gain is verified
    against the same moment data; a closed-loop rate exceeding the
    achieved one by more than ``5 * lambda_tol`` raises
    :class:`VerificationMismatch`.

    Parameters
    ----------
    model : SystemModel
        Synthesis-mode model (``m >= 1``); dimensions must match ``data``.
    data : SecondMomentData
        Open-loop second-moment data (analytic or Monte-Carlo).
    lambda_tol : float
        Bisection width, in ``[1e-4, 1e-2]``.
    backend : str
        Feasibility backend; bisection requires ``"ref"``.
    margin : float, optional
        Strictness margin, defaulting to :func:`default_margin`.
    """
    if model.m == 0:
        raise AnalysisOnlyModel("synthesis needs an input channel (m >= 1)")
    if (model.n, model.m) != (data.n, data.m):
        raise DimensionMismatch("model and moment data dimensions disagree")
    if not 1e-4 <= lambda_tol <= 1e-2:
        raise StochLyapError("lambda_tol must lie in [1e-4, 1e-2]")
    if backend != "ref":
        raise BackendFailure("bisection requires the reference backend")
    if margin is None:
        margin = default_margin(data)

    factors = factorize(data)
    gains = candidate_gains(data)
    trace = []
    warm = None

    def probe(lam):
        nonlocal warm
        problem = assemble(factors, lam, margin)
        res = solve_feasibility(problem, backend, warm_start=warm, seed_gains=gains)
        trace.append((lam, res.feasible, res.iterations))
        if res.feasible:
            warm = join_vars(res.X, res.Y)
        return res

    res_hi = probe(1.0)
    if not res_hi.feasible:
        diagnostic = None
        for lam in (1.25, 1.5, 2.0):
            if probe(lam).feasible:
                diagnostic = lam
                break
        raise NotStabilizable(
            "synthesis inequality infeasible at every rate below 1",
            diagnostic_lambda=diagnostic,
        )
    lo, hi, best = 0.0, 1.0, res_hi
    while hi - lo > lambda_tol:
        mid = (hi + lo) / 2.0
        res = probe(mid)
        if res.feasible:
            hi, best = mid, res
        else:
            lo = mid
    if hi >= 1.0:
        raise NotStabilizable(
            f"feasible only at rate 1; infeasible at {1.0 - lambda_tol}",
            diagnostic_lambda=1.0,
        )

    X, Y = best.X, best.Y
    F = Y @ np.linalg.inv(X)
    report = verify_gain(data, F)
    if report.lambda_min > hi + 5.0 * lambda_tol:
        raise VerificationMismatch(
            f"closed-loop rate {report.lambda_min:.6f} exceeds achieved "
            f"{hi:.6f} by more than {5.0 * lambda_tol}"
        )
    return SynthesisResult(X, Y, F, hi, backend, tuple(trace), report)
