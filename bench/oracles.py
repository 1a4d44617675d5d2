"""Independent reference computations that the benchmark checks stochlyap against.

Nothing here imports ``stochlyap.moments`` or ``stochlyap.analysis``.  Each
oracle computes the moment matrix ``K = E[A kron A]`` (numpy ``kron``
layout, ``K[(i,k),(j,l)] = E[A_ij A_kl]``) by a route of its own:

* Gauss quadrature on a tensor grid (exact for polynomial entries of
  degree <= 2 with three nodes per coordinate);
* ``sum_i p_i A_i kron A_i`` for switched models;
* the raw-moment expansion ``sum_{a,b} E[phi_a phi_b] A_a kron A_b`` with
  ``phi = [1, xi_1, ..., xi_Z]`` for affine models;
* the closed form ``E[E kron E] = exp(h0 K) r (r I - K)^{-1}``,
  ``K = Aug (+) Aug``, for a zero-order hold under ``h = h0 + Exp(r)``
  (and the same form with four factors for the fourth moments that give
  the Monte Carlo standard error of a closed-loop rate).

In row-major vectorization the moment operator ``T(P) = E[A^T P A]`` is
``vec(T(P)) = K^T vec(P)`` and the second-moment recursion
``S -> E[A S A^T]`` is ``vec(S) -> K vec(S)``, so ``rho(T) = rho(K)``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def gauss_normal(mean: float, stddev: float, k: int = 3):
    """Nodes and probability weights of k-point Gauss quadrature for N(mean, stddev^2)."""
    x, w = np.polynomial.hermite_e.hermegauss(k)
    return mean + stddev * x, w / w.sum()


def gauss_uniform(lo: float, hi: float, k: int = 3):
    """Nodes and probability weights of k-point Gauss-Legendre quadrature on (lo, hi)."""
    x, w = np.polynomial.legendre.leggauss(k)
    return lo + (hi - lo) * (x + 1.0) / 2.0, w / w.sum()


def kron_quadrature(evaluate, rules) -> np.ndarray:
    """``E[A kron A]`` on the tensor grid of one quadrature rule per coordinate.

    ``evaluate`` maps a ``(count, Z)`` node block to ``(count, n, n)``
    matrices; ``rules`` holds one ``(nodes, weights)`` pair per coordinate.
    """
    grids = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    wgrid = np.prod(np.meshgrid(*[r[1] for r in rules], indexing="ij"), axis=0)
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    A = evaluate(nodes)
    return np.einsum("p,pij,pkl->ikjl", wgrid.ravel(), A, A).reshape(
        A.shape[1] ** 2, A.shape[2] ** 2)


def kron_switched(modes, probs) -> np.ndarray:
    """``sum_i p_i A_i kron A_i``."""
    return sum(p * np.kron(A, A) for p, A in zip(probs, modes))


def raw_moment_matrix(means, second_moments) -> np.ndarray:
    """``E[phi phi^T]`` for ``phi = [1, xi]`` with independent coordinates."""
    mu = np.concatenate([[1.0], np.asarray(means, float)])
    M = np.outer(mu, mu)
    M[np.arange(1, mu.size), np.arange(1, mu.size)] = second_moments
    return M


def kron_affine(mats, phi2: np.ndarray) -> np.ndarray:
    """``E[A kron A]`` for ``A = sum_a phi_a M_a`` given ``phi2 = E[phi phi^T]``."""
    return sum(phi2[a, b] * np.kron(Ma, Mb)
               for a, Ma in enumerate(mats) for b, Mb in enumerate(mats))


def spectral_radius(K: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(K)).max())


def apply_T(K: np.ndarray, P: np.ndarray) -> np.ndarray:
    """``E[A^T P A]`` from the moment matrix."""
    n = P.shape[0]
    return (K.T @ P.ravel()).reshape(n, n)


def certificate_margins(K: np.ndarray, P: np.ndarray, lam: float):
    """``(min eig P, min eig (lam^2 P - T(P)))``; both positive for a valid certificate."""
    P = (P + P.T) / 2.0
    R = lam**2 * P - apply_T(K, P)
    return float(np.linalg.eigvalsh(P)[0]), float(np.linalg.eigvalsh((R + R.T) / 2.0)[0])


def lyapunov_solution(K: np.ndarray, lam: float) -> np.ndarray:
    """``P`` with ``lam^2 P - T(P) = I``, by one dense solve."""
    n = int(round(np.sqrt(K.shape[0])))
    P = np.linalg.solve(lam**2 * np.eye(n * n) - K.T, np.eye(n).ravel()).reshape(n, n)
    return (P + P.T) / 2.0


def mean_square_curve(K: np.ndarray, x0, k_max: int) -> np.ndarray:
    """Exact ``sqrt(E||x_k||^2) = sqrt(tr S_k)`` for ``S_{k+1} = E[A S A^T]``."""
    x0 = np.asarray(x0, float)
    n = x0.size
    s = np.outer(x0, x0).ravel()
    out = np.empty(k_max + 1)
    for k in range(k_max + 1):
        out[k] = np.sqrt(np.trace(s.reshape(n, n)))
        s = K @ s
    return out


def _zoh_generator(A_c, B_c):
    A_c, B_c = np.asarray(A_c, float), np.atleast_2d(np.asarray(B_c, float))
    n, m = B_c.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n], aug[:n, n:] = A_c, B_c
    return aug


def zoh_kron_exponential(A_c, B_c, h0: float, rate: float, order: int = 2) -> np.ndarray:
    """``E[E kron ... kron E]`` (``order`` factors) for ``E = exp(Aug h)``, ``h = h0 + Exp(rate)``.

    ``E kron ... kron E = exp(h K)`` with ``K = sum_j I kron .. kron Aug kron .. kron I``
    (``Aug`` in slot ``j``) and ``E[exp(xi K)] = rate (rate I - K)^{-1}``, valid
    while ``rate`` exceeds the largest real part of an eigenvalue of ``K``.
    """
    aug = _zoh_generator(A_c, B_c)
    eye = np.eye(aug.shape[0])
    K = 0.0
    for j in range(order):
        term = np.ones((1, 1))
        for slot in range(order):
            term = np.kron(term, aug if slot == j else eye)
        K = K + term
    top = float(np.linalg.eigvals(K).real.max())
    if not rate > top:
        raise ValueError(f"closed form needs rate {rate} > max Re eig K = {top:.4g}")
    return scipy.linalg.expm(h0 * K) @ (rate * np.linalg.inv(rate * np.eye(K.shape[0]) - K))


def zoh_fourth_moments(A_c, B_c, h0: float, rate: float) -> np.ndarray:
    """``M[i,a,k,b,p,c,q,d] = E[E_ia E_kb E_pc E_qd]`` over the top ``n`` rows of ``E``."""
    n = np.atleast_2d(np.asarray(B_c, float)).shape[0]
    s = _zoh_generator(A_c, B_c).shape[0]
    M = zoh_kron_exponential(A_c, B_c, h0, rate, order=4).reshape((s,) * 8)
    return M.transpose(0, 4, 1, 5, 2, 6, 3, 7)[:n, :, :n, :, :n, :, :n, :]


def zoh_moments(A_c, B_c, h0: float, rate: float):
    """Exact ``(G2, G)`` of ``g = [row(A), row(B)]`` under the exponential interval law.

    ``G2 = E[g g^T]`` in stochlyap's layout and ``G[i,a,k,b] = E[E_ia E_kb]``
    over the top ``n`` rows of the hold exponential ``E``.
    """
    B_c = np.atleast_2d(np.asarray(B_c, float))
    n, m = B_c.shape
    s = n + m
    Kf = zoh_kron_exponential(A_c, B_c, h0, rate).reshape(s, s, s, s)  # [i,k,a,b]
    G = Kf.transpose(0, 2, 1, 3)[:n, :, :n, :]  # [i,a,k,b]
    # g lists row(A) (entries (i, a), a < n) and then row(B) (entries (i, n+q))
    pos = [(i, a) for i in range(n) for a in range(n)]
    pos += [(i, n + q) for i in range(n) for q in range(m)]
    I, J = np.array(pos).T
    G2 = G[I[:, None], J[:, None], I[None, :], J[None, :]]
    return G2, G


def g2_tensor(g2: np.ndarray, n: int, m: int) -> np.ndarray:
    """``G[i,a,k,b] = E[E_ia E_kb]`` read back from a ``g2`` in stochlyap's layout."""
    s = n + m
    G = np.empty((n, s, n, s))
    pos = [(i, a) for i in range(n) for a in range(n)]
    pos += [(i, n + q) for i in range(n) for q in range(m)]
    for u, (i, a) in enumerate(pos):
        for v, (k, b) in enumerate(pos):
            G[i, a, k, b] = g2[u, v]
    return G


def _closed_loop_kron(G, F):
    n = G.shape[0]
    C = np.vstack([np.eye(n), np.atleast_2d(F)])
    return C, np.einsum("iakb,aj,bl->ikjl", G, C, C).reshape(n * n, n * n)


def closed_loop_rate(G: np.ndarray, F: np.ndarray) -> float:
    """Decay rate of ``A + B F`` from ``G[i,a,k,b] = E[[A B]_ia [A B]_kb]``."""
    return float(np.sqrt(spectral_radius(_closed_loop_kron(G, F)[1])))


def closed_loop_rate_stderr(G: np.ndarray, M: np.ndarray, F: np.ndarray, samples: int) -> float:
    """Standard error of ``closed_loop_rate`` on a ``samples``-draw Monte Carlo ``G``.

    Delta method: to first order the estimate moves by ``sum W * (G_mc - G)``,
    with ``W`` the gradient of the rate in ``G`` (from the Perron eigenvectors
    ``u``, ``v`` of the closed-loop moment matrix, ``d rho = u^T dK v / u^T v``).
    The Monte Carlo ``G_mc`` is a mean of ``samples`` draws of ``E_ia E_kb``, so
    the error has variance ``Var(sum W_iakb E_ia E_kb) / samples``, which the
    exact second moments ``G`` and fourth moments ``M`` give in closed form.
    """
    n = G.shape[0]
    C, K = _closed_loop_kron(G, F)
    w, vl, vr = scipy.linalg.eig(K, left=True, right=True)
    j = int(np.argmax(np.where(np.isclose(np.abs(w), np.abs(w).max()), w.real, -np.inf)))
    u, v = vl[:, j].real, vr[:, j].real
    W = np.einsum("ik,jl,aj,bl->iakb", u.reshape(n, n), v.reshape(n, n), C, C)
    W /= (u @ v) * 2.0 * np.sqrt(w[j].real)
    mean = float(np.sum(W * G))
    second = float(np.einsum("iakb,pcqd,iakbpcqd->", W, W, M))
    return float(np.sqrt(max(second - mean * mean, 0.0) / samples))


def read_sdpa(path: str):
    """Plain reader of a sparse SDPA file: ``(mdim, block_sizes, entries)``.

    ``entries`` is an integer array of ``(matno, block, i, j)`` rows with
    0-based ``i <= j`` plus the matching value array; ``matno`` 0 is the
    constant matrix ``F0``.
    """
    header, rows = [], []
    with open(path) as f:
        for line in f:
            s = line.strip()
            if not s or s[0] in '"*':
                continue
            if len(header) < 4:
                for ch in ",{}()":
                    s = s.replace(ch, " ")
                header.append(s.split("=")[0].split())
            else:
                rows.append(s.split())
    nblock = int(header[1][0])
    sizes = [abs(int(t)) for t in header[2][:nblock]]
    table = np.array(rows, dtype=float).reshape(-1, 5)
    index = table[:, :4].astype(int) - np.array([0, 0, 1, 1])
    return int(header[0][0]), sizes, (index, table[:, 4])


def sdpa_slack(sizes, entries, x) -> list[np.ndarray]:
    """Blocks of ``sum_a x_a F_a - F0`` for the variable vector ``x``."""
    index, values = entries
    coef = np.concatenate([[-1.0], np.asarray(x, float)])[index[:, 0]] * values
    blocks = []
    for b, s in enumerate(sizes, start=1):
        sel = index[:, 1] == b
        i, j, c = index[sel, 2], index[sel, 3], coef[sel]
        M = np.zeros((s, s))
        np.add.at(M, (i, j), c)
        off = i != j
        np.add.at(M, (j[off], i[off]), c[off])
        blocks.append(M)
    return blocks
