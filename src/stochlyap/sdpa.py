"""SDPA sparse-format export of the synthesis feasibility problem.

The exported problem is the standard SDPA primal

    maximize    c^T x        (c = 0: pure feasibility)
    subject to  sum_a x_a F_a - F0  >=  0   (block diagonal)

with two PSD blocks:

* block 1 (size ``n + (n+m)n^2``): the synthesis inequality,
  ``F_a = S_a`` (the variable coefficient blocks, written straight from
  the entry list :attr:`LmiProblem.basis`) and ``F0 = margin I``;
* block 2 (size ``n``): the explicit ``X >= margin I`` condition,
  ``F_a`` the elementary symmetric matrix for X variables, zero for Y
  variables, and ``F0 = margin I``.

Variable order is the upper triangle of ``X`` row-major followed by
``Y`` row-major.  Entry lines are ``matno blkno i j value`` with 1-based
indices, upper-triangle entries only, values printed with 17 significant
digits; ``matno`` 0 denotes ``F0``.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import BackendFailure
from .fileio import write_atomic
from .synthesis import LmiProblem, _x_index_pairs


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _problem_chunks(problem: LmiProblem):
    """The ``.dat-s`` text, one chunk for the header and constant and one per variable."""
    n, D, nvars = problem.n, problem.dim, problem.num_vars
    margin = _fmt(problem.margin)
    # F0 = margin I has no nonzero entry to write when the margin is zero
    f0 = [] if problem.margin == 0.0 else (
        [f"0 1 {i} {i} {margin}" for i in range(1, D + 1)]
        + [f"0 2 {i} {i} {margin}" for i in range(1, n + 1)])
    yield "\n".join([
        '"stochlyap synthesis feasibility: block1 = rate inequality, '
        'block2 = X - margin*I"',
        f"{nvars} = mDIM",
        "2 = nBLOCK",
        f"{D} {n} = bLOCKsTRUCT",
        " ".join(["0.0"] * nvars),
    ] + f0) + "\n"
    b = problem.basis
    bounds = np.searchsorted(b["var"], np.arange(nvars + 1))
    x_pairs = _x_index_pairs(n)
    for a in range(nvars):
        rec = b[bounds[a]: bounds[a + 1]]
        lines = [f"{a + 1} 1 {i + 1} {j + 1} {_fmt(v)}" for i, j, v in
                 zip(rec["row"].tolist(), rec["col"].tolist(), rec["val"].tolist())]
        if a < len(x_pairs):
            i, j = x_pairs[a]
            lines.append(f"{a + 1} 2 {i + 1} {j + 1} 1")
        yield "".join(line + "\n" for line in lines)


def write_problem(problem: LmiProblem, path: str) -> None:
    """Write the feasibility problem as an SDPA sparse ``.dat-s`` file, atomically."""
    write_atomic(path, _problem_chunks(problem))


def read_solution_vector(path: str, num_vars: int) -> np.ndarray:
    """Extract the primal variable vector from an SDPA solver output file.

    Accepts the standard SDPA output (an ``xVec = {...}`` section) or a
    plain text file of ``num_vars`` whitespace/comma separated floats.
    Any other count of numbers raises :class:`BackendFailure`.
    """
    with open(path) as f:
        text = f.read()
    match = re.search(r"xVec\s*=\s*\{(.*?)\}", text, re.DOTALL)
    if match:
        body = match.group(1)
    else:
        body = text
    values = re.findall(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?", body)
    if len(values) != num_vars:
        raise BackendFailure(
            f"solution file has {len(values)} numbers, expected {num_vars}"
        )
    return np.array([float(v) for v in values])
