"""Reference code for the synthesis tests.

None of this is used by the library itself.  :func:`closed_loop_rate` is
the dense-``eigvals`` reference for the rate of a gain; :func:`candidate_gains`
collects closed-form gains (zero, factor least-squares, the Riccati gain
of the mean system) and refines the best of them by two Nelder-Mead runs
on the exact closed-loop rate, so ``min(closed_loop_rate(factors, F))``
over its output is a near-optimal rate that shares no code with the LMI.
:func:`join_vars` packs ``(X, Y)`` into the LMI's variable vector, and
:func:`read_problem` parses an SDPA ``.dat-s`` file back into dense
matrices.
"""

import numpy as np
import scipy.linalg
import scipy.optimize

from stochlyap.errors import DimensionMismatch
from stochlyap.moments import factorize, operator_matrix


def closed_loop_rate(factors, F):
    """Exact closed-loop minimal decay rate for a candidate gain.

    Works directly on the stacked factors: the closed-loop factor is
    ``H = GpA + GpB F`` and the closed-loop entry products are the block
    Gram matrix of ``H``.
    """
    n, m = factors.n, factors.m
    F = np.atleast_2d(np.asarray(F, float))
    if F.shape != (m, n):
        raise DimensionMismatch(f"gain shape {F.shape} != ({m}, {n})")
    H = (factors.gpa + factors.gpb @ F).reshape(n, (n + m) * n, n)
    M = operator_matrix(np.einsum("iwj,kwl->ijkl", H, H), n)
    return float(np.sqrt(np.abs(np.linalg.eigvals(M)).max()))


def candidate_gains(data):
    """Candidate gains, the Nelder-Mead minimizer of the closed-loop rate first."""
    factors = factorize(data)
    n, m = data.n, data.m
    cands = [np.zeros((m, n)), -np.linalg.lstsq(factors.gpb, factors.gpa, rcond=None)[0]]
    try:
        S = scipy.linalg.solve_discrete_are(
            data.mean_a, data.mean_b, np.eye(n), np.eye(m)
        )
        BtSB = data.mean_b.T @ S @ data.mean_b
        cands.append(-np.linalg.solve(np.eye(m) + BtSB, data.mean_b.T @ S @ data.mean_a))
    except (np.linalg.LinAlgError, ValueError):
        pass
    x = min(cands, key=lambda F: closed_loop_rate(factors, F)).ravel()
    for _ in range(2):
        x = scipy.optimize.minimize(
            lambda f: closed_loop_rate(factors, f.reshape(m, n)),
            x,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 800 * m * n,
                     "maxfev": 800 * m * n},
        ).x
    return [x.reshape(m, n)] + cands


def join_vars(X, Y):
    """Pack ``(X, Y)`` into the variable vector (inverse of ``split_vars``).

    Layout: upper triangle of ``X`` row-major, then ``Y`` row-major.
    """
    X = np.asarray(X, dtype=float)
    return np.concatenate([X[np.triu_indices(X.shape[0])], np.asarray(Y, float).ravel()])


def read_problem(path):
    """Parse a ``.dat-s`` file back into dense matrices.

    Returns ``(c, F, block_sizes)`` where ``F[0]`` is the constant
    matrix and ``F[a]`` (``a >= 1``) the variable coefficient matrices,
    each a list with one dense array per block.
    """
    tokens = []
    with open(path) as f:
        for line in f:
            s = line.strip()
            if not s or s.startswith('"') or s.startswith("*"):
                continue
            s = s.split("=")[0]
            for ch in ",{}()":
                s = s.replace(ch, " ")
            tokens.extend(s.split())
    pos = 0

    def take(k):
        nonlocal pos
        out = tokens[pos: pos + k]
        pos += k
        return out

    m = int(take(1)[0])
    nblocks = int(take(1)[0])
    sizes = [abs(int(float(t))) for t in take(nblocks)]
    c = np.array([float(t) for t in take(m)])
    F = [[np.zeros((s, s)) for s in sizes] for _ in range(m + 1)]
    while pos + 5 <= len(tokens):
        matno, blk, i, j, val = take(5)
        matno, blk, i, j = int(matno), int(blk), int(i), int(j)
        v = float(val)
        F[matno][blk - 1][i - 1, j - 1] = v
        F[matno][blk - 1][j - 1, i - 1] = v
    return c, F, sizes
