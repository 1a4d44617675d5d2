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

The reference backend decides strict feasibility with a primal-dual
interior-point method (Vandenberghe & Boyd, *Semidefinite Programming*,
SIAM Rev. 38, 1996) on the normalized problem

    max t   s.t.   M(v) - t I >= 0,   tr X(v) = 1,

whose dual is ``min mu  s.t.  W >= 0, tr W = 1, tr(W S_a) = mu c_a``
(``S_a`` the coefficient blocks of ``M``, ``c_a = 1`` on the diagonal
entries of ``X``).  Its Mehrotra predictor-corrector steps follow the
central path ``W F = I / tau`` with ``F = M(v) - t I``, where
``mu = t + D / tau`` (``D`` the block size).  It starts cold from
``X = I/n, Y = 0`` and the dual point ``W = I/D``, needs no seed, and
stops at the first iterate that is strictly feasible, or with a dual
certificate ``(W, mu)`` once ``mu < 0``: for any ``v`` with
``M(v) > 0`` we would have ``0 < tr(W M(v)) = mu tr X(v) < 0``.  A probe
whose duality gap closes below ``1e-11`` of ``||M||`` with the sign
undecided lies on the boundary, where no point passes the strict test;
it counts as infeasible and keeps its ``(W, mu)``.
:func:`check_infeasibility` re-checks a certificate against the entry
list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
)
from .analysis import StabilityReport, stability_report
from .sysmodel import SystemModel

# strict-PD acceptance for iterates, and the relative duality gap at which a
# probe with no decided sign counts as infeasible: far above the ~1e-15 noise
# floor of eigvalsh yet permissive enough for thin feasibility margins
_PD_REL = 1e-11
# Newton steps of the interior-point backend: Example 2's probes take 3-21 and
# random LMIs with n <= 4 at most 25, so running out means the method failed
_NEWTON_CAP = 100
# each step goes this fraction of the way to the boundary of the PSD cone
_TO_BOUNDARY = 0.95
#: Tolerance of :func:`check_infeasibility`, relative to ``max_a ||S_a||_F``.
CERT_TOL = 1e-8


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
    return LmiProblem(basis, D, a0 + m * n, float(margin), float(lam), n, m)


def _trace_coefficients(problem: LmiProblem) -> np.ndarray:
    """``c`` with ``c . v = tr X(v)``: one on the diagonal entries of ``X``."""
    c = np.zeros(problem.num_vars)
    c[[k for k, (i, j) in enumerate(_x_index_pairs(problem.n)) if i == j]] = 1.0
    return c


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """Outcome of one feasibility solve.

    An ``infeasible`` result of the reference backend carries the dual
    point ``(W, mu)``.  When it ended with ``mu < 0`` it is a proof that
    :func:`check_infeasibility` accepts; when it ended with the duality
    gap closed (a probe on the boundary) ``mu`` may be slightly positive,
    and the verdict is not a proof.
    """

    status: str  # "feasible" | "infeasible" | "exported"
    X: np.ndarray | None
    Y: np.ndarray | None
    iterations: int
    W: np.ndarray | None = None
    mu: float | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def candidate_gains(data: SecondMomentData) -> list[np.ndarray]:
    """The zero gain and the factor least-squares gain ``-GpB^+ GpA``.

    The least-squares gain minimizes the mean squared closed-loop
    coefficient norm.  Synthesis needs no seed gains; these closed-form
    guesses stay under this name because the benchmark's tracer binds it.
    """
    factors = factorize(data)
    return [np.zeros((data.m, data.n)),
            -np.linalg.lstsq(factors.gpb, factors.gpa, rcond=None)[0]]


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


def _max_step(e: np.ndarray, U: np.ndarray, dP: np.ndarray) -> float:
    """Step along ``dP`` from the PD matrix ``U diag(e) U^T``: capped at 1, short of its boundary."""
    Pm = U / np.sqrt(e)
    s = float(np.linalg.eigvalsh(Pm.T @ dP @ Pm)[0])
    return 1.0 if s >= -_TO_BOUNDARY else -_TO_BOUNDARY / s


def _solve_reference(problem: LmiProblem) -> FeasibilityResult:
    """Mehrotra predictor-corrector on the central path ``W F = nu I`` (HKM direction).

    ``x = (v, t)`` and ``F = M(v) - t I``.  Both starting points are
    feasible, and the corrected Newton system keeps the equalities while
    ``W, F > 0``.  Memory is the dense ``num_vars x D x D`` coefficient
    stack plus a few ``D x D`` matrices: the Newton matrix is built one
    row at a time.
    """
    n, m, nv, D = problem.n, problem.m, problem.num_vars, problem.dim
    N = nv + 1
    b = problem.basis
    S = np.zeros((nv, D, D))
    S[b["var"], b["row"], b["col"]] = b["val"]
    S[b["var"], b["col"], b["row"]] = b["val"]
    S_flat = S.reshape(nv, D * D)
    I = np.eye(D)

    def lin(y):  # F(y) = M(y[:nv]) - y[nv] I
        return (y[:nv] @ S_flat).reshape(D, D) - y[nv] * I

    def adj(Z):  # (tr(Z S_a))_a, then tr(-Z) for t
        return np.append(S_flat @ Z.ravel(), -np.trace(Z))

    c = np.append(_trace_coefficients(problem), 0.0)
    x = c / n
    M = lin(x)
    x[-1] = np.linalg.eigvalsh(M)[0] - np.linalg.norm(M) / np.sqrt(D)
    # W = I/D is dual feasible: tr S_a is lam^2 + w on the diagonal of X, else 0
    W = I / D
    mu = (problem.lam**2 + (n + m) * n) / D
    K = np.zeros((N + 1, N + 1))
    K[:N, N] = K[N, :N] = c
    for it in range(_NEWTON_CAP + 1):
        F = lin(x)
        if x[-1] > 0:
            out = _rescaled_if_pd(problem, x[:-1])
            if out is not None:
                return FeasibilityResult("feasible", *split_vars(out, n, m), it)
        gap = float(np.sum(W * F))  # mu - t on the feasible sets
        if mu < 0 or gap <= _PD_REL * float(np.linalg.norm(F + x[-1] * I)):
            tr = float(np.trace(W))
            return FeasibilityResult("infeasible", None, None, it, W / tr, mu / tr)
        e, U = np.linalg.eigh(F)
        ew, Uw = np.linalg.eigh(W)
        if it == _NEWTON_CAP or e[0] <= 0 or ew[0] <= 0:
            raise BackendFailure(f"interior point stalled after {it} steps at gap {gap:.3g}")
        R = (U / e) @ U.T
        for a in range(nv):  # K_ab = tr(W S_a R S_b)
            K[a, :N] = adj(W @ S[a] @ R)
        K[nv, :N] = adj(-(W @ R))
        d = np.sqrt(np.abs(np.diag(K)))  # equilibration; zero rows are absent variables
        d[d == 0.0] = 1.0
        K_eq = K / np.outer(d, d)
        rhs0 = np.append(-mu * c, 1.0 - c @ x)
        rhs0[N - 1] = 1.0  # the t row, where c is 0
        trRS = adj(R)

        def direction(target, corr):
            rhs = rhs0.copy()
            rhs[:N] += target * trRS - adj(corr)
            sol = np.linalg.lstsq(K_eq, rhs / d, rcond=None)[0] / d
            dF = lin(sol[:N])
            T = W @ dF @ R + corr
            return sol[:N], sol[N], dF, target * R - W - (T + T.T) / 2.0

        dx, dmu, dF, dW = direction(0.0, np.zeros((D, D)))
        ap, ad = _max_step(e, U, dF), _max_step(ew, Uw, dW)
        sigma = min(1.0, (float(np.sum((W + ad * dW) * (F + ap * dF))) / gap) ** 3)
        dx, dmu, dF, dW = direction(sigma * gap / D, dW @ dF @ R)
        ap, ad = _max_step(e, U, dF), _max_step(ew, Uw, dW)
        x = x + ap * dx
        W = W + ad * dW
        W = (W + W.T) / 2.0
        mu += ad * dmu


def check_infeasibility(problem: LmiProblem, W: np.ndarray, mu: float) -> bool:
    """Whether ``(W, mu)`` proves that ``M(v) > 0`` has no solution.

    Checks ``W = W^T >= 0``, ``tr W = 1``, ``tr(W S_a) = mu c_a`` for
    every variable and ``mu <= 0``; the last two within
    ``CERT_TOL * max_a ||S_a||_F``, the others within ``CERT_TOL``.  The
    traces are read straight from the entry list ``problem.basis``.
    """
    W = np.asarray(W, dtype=float)
    D = problem.dim
    if W.shape != (D, D) or not np.isfinite(W).all() or not np.isfinite(mu):
        return False
    b = problem.basis
    off = b["row"] != b["col"]
    # tr(W S_a): each upper-triangle entry stands for itself and its mirror
    w_entries = W[b["row"], b["col"]] + np.where(off, W[b["col"], b["row"]], 0.0)
    traces = np.bincount(b["var"], weights=b["val"] * w_entries, minlength=problem.num_vars)
    norms = np.bincount(b["var"], weights=b["val"] ** 2 * (1.0 + off),
                        minlength=problem.num_vars)
    scale = CERT_TOL * float(np.sqrt(norms.max()))
    return bool(
        np.abs(W - W.T).max() <= CERT_TOL
        and np.linalg.eigvalsh(W)[0] >= -CERT_TOL
        and abs(np.trace(W) - 1.0) <= CERT_TOL
        and mu <= scale
        and np.abs(traces - mu * _trace_coefficients(problem)).max() <= scale
    )


def import_solution(problem: LmiProblem, path: str) -> FeasibilityResult:
    """Validate an externally solved point of ``problem`` read from ``path``.

    ``path`` holds SDPA solver output (an ``xVec = {...}`` section) or
    plain numbers in the :func:`split_vars` layout.  A strictly feasible
    point is rescaled onto the margin and returned as ``feasible``.

    Raises
    ------
    BackendFailure
        A count of numbers other than ``problem.num_vars`` in the file,
        or a point that is not strictly feasible.
    """
    from . import sdpa

    v = sdpa.read_solution_vector(path, problem.num_vars)
    out = _rescaled_if_pd(problem, v)
    if out is None:
        raise BackendFailure("imported solution is not strictly feasible")
    return FeasibilityResult("feasible", *split_vars(out, problem.n, problem.m), 0)


def solve_feasibility(
    problem: LmiProblem,
    backend: str = "ref",
) -> FeasibilityResult:
    """Find ``(X, Y)`` with ``M(X, Y) >= margin/2 * I``, or prove there is none.

    Parameters
    ----------
    problem : LmiProblem
    backend : str
        ``"ref"`` runs the interior-point method described in the module
        docstring from a cold start, with no seed points or gains.
        ``"sdpa-export:<path>"`` writes the problem in SDPA sparse format
        to ``<path>`` and returns an ``"exported"`` result;
        ``"sdpa-export:<path>:<solution>"`` additionally validates an
        externally produced solution file with :func:`import_solution`.

    Returns
    -------
    FeasibilityResult
        ``feasible`` results satisfy ``min-eig M(X, Y) >= margin/2`` and
        ``X >= margin/2 * I``.  ``infeasible`` results carry the dual
        certificate ``(W, mu)``: ``W >= 0``, ``tr W = 1`` and
        ``tr(W S_a) = mu c_a``, with ``mu < 0``, or with the duality gap
        below ``1e-11`` of ``||M||`` when the sign is undecided (a probe
        on the boundary, where no point passes the strict test).
        ``iterations`` counts Newton steps.

    Raises
    ------
    BackendFailure
        Unknown backend, a rejected imported solution, or an interior
        point that stalls.
    """
    if backend == "ref":
        return _solve_reference(problem)
    if backend.startswith("sdpa-export:"):
        from . import sdpa

        parts = backend.split(":", 2)
        path = parts[1]
        if not path:
            raise BackendFailure("sdpa-export backend needs a target path")
        sdpa.write_problem(problem, path)
        if len(parts) == 3:
            return import_solution(problem, parts[2])
        return FeasibilityResult("exported", None, None, 0)
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
    trace: tuple
    closed_loop_report: StabilityReport

    def to_obj(self) -> dict:
        return {
            "X": self.X.tolist(),
            "Y": self.Y.tolist(),
            "F": self.F.tolist(),
            "lambda": self.lam,
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
    """
    if model.m == 0:
        raise AnalysisOnlyModel("synthesis needs an input channel (m >= 1)")
    if (model.n, model.m) != (data.n, data.m):
        raise DimensionMismatch("model and moment data dimensions disagree")
    if not 1e-4 <= lambda_tol <= 1e-2:
        raise StochLyapError("lambda_tol must lie in [1e-4, 1e-2]")

    factors = factorize(data)
    margin = default_margin(data)
    trace = []

    def probe(lam):
        res = solve_feasibility(assemble(factors, lam, margin))
        trace.append((lam, res.feasible, res.iterations))
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
    return SynthesisResult(X, Y, F, hi, tuple(trace), report)
