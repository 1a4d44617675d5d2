"""Best-achievable-rate oracle for the synthesis tests.

None of this is used by the library itself.  :func:`candidate_gains`
collects closed-form gains (zero, factor least-squares, the Riccati gain
of the mean system) and refines the best of them by two Nelder-Mead runs
on the exact closed-loop rate, so ``min(closed_loop_rate(factors, F))``
over its output is a near-optimal rate that shares no code with the LMI.
"""

import numpy as np
import scipy.linalg
import scipy.optimize

from stochlyap.moments import factorize
from stochlyap.synthesis import closed_loop_rate


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
