"""Reference implementations that the tests compare the library against.

None of these is used by the library itself:

* :func:`second_moment_loop` is the entry-by-entry expansion of ``G2``,
  one ``E[g_u g_v]`` at a time from the polynomial terms of the two
  entries (switched forms: the weighted sum of mode outer products);
* :func:`evaluate_loop` evaluates ``(A, B)`` draw by draw and term by
  term from the same fields;
* :func:`expected_quadratic_factored` and
  :func:`expected_quadratic_row_stacked` evaluate ``P -> E[A^T P A]``
  through the stacked factor and through the row-product matrix, two
  routes independent of the library's contraction;
* :func:`special_case_lmi` and :func:`operator_from_pairs` build the
  textbook operators of the classical special cases (i.i.d. switching,
  zero-mean multiplicative noise), which must equal the general one.

:func:`random_model` draws the random exact models these are checked on.
"""

import numpy as np

from stochlyap.analysis import MomentOperatorMatrix
from stochlyap.dist import Discrete, DistributionSpec, Exponential, Normal, Uniform
from stochlyap.errors import UnsupportedForm
from stochlyap.moments import factorize
from stochlyap.sysmodel import AffineForm, PolyEntry, PolyForm, SwitchedForm


def _affine_grid(model, mats, cols):
    Z = model.Z
    grid = []
    for i in range(model.n):
        row = []
        for j in range(cols):
            terms = [(mats[0][i, j], (0,) * Z)]
            terms += [(mats[q + 1][i, j], tuple(int(t == q) for t in range(Z)))
                      for q in range(Z)]
            row.append(PolyEntry(tuple(terms)))
        grid.append(row)
    return grid


_COORDS = (Normal(0.3, 0.7), Uniform(-0.4, 1.1), Exponential(2.5),
           Discrete((-1.0, 0.5, 2.0), (0.2, 0.5, 0.3)))


def random_model(form, m, rng):
    """A random affine, polynomial or switched model with ``m`` inputs."""
    n = int(rng.integers(1, 5))
    if form == "switched":
        S = int(rng.integers(1, 5))
        p = rng.dirichlet(np.ones(S))
        p[-1] = 1.0 - p[:-1].sum()
        dist = DistributionSpec((Discrete(tuple(range(1, S + 1)), tuple(p)),))
        b = None if m == 0 else tuple(rng.normal(size=(n, m)) for _ in range(S))
        return SwitchedForm(tuple(rng.normal(size=(n, n)) for _ in range(S)), dist, b)
    Z = int(rng.integers(1, 4))
    dist = DistributionSpec(tuple(_COORDS[i] for i in rng.choice(len(_COORDS), Z)))
    if form == "affine":
        b = None if m == 0 else tuple(rng.normal(size=(n, m)) for _ in range(Z + 1))
        return AffineForm(tuple(rng.normal(size=(n, n)) for _ in range(Z + 1)), dist, b)
    monomials = [a for a in np.ndindex(*(3,) * Z) if sum(a) <= 2]

    def entry():
        # a random subset of the monomials, sometimes none (a zero entry)
        keep = rng.random(len(monomials)) < 0.5
        return PolyEntry(tuple((rng.normal(), a) for a, k in zip(monomials, keep) if k))

    a = tuple(tuple(entry() for _ in range(n)) for _ in range(n))
    b = None if m == 0 else tuple(tuple(entry() for _ in range(m)) for _ in range(n))
    return PolyForm(a, dist, b)


def _entry_grids(model):
    """The ``A`` and ``B`` (or None) entry grids of a polynomial or affine model."""
    if isinstance(model, PolyForm):
        return model.a_entries, model.b_entries
    if isinstance(model, AffineForm):
        b_grid = None if model.b_mats is None else _affine_grid(model, model.b_mats, model.m)
        return _affine_grid(model, model.a_mats, model.n), b_grid
    raise TypeError(type(model).__name__)


def evaluate_loop(model, Xi):
    """``(A, B)`` of an affine, polynomial or switched model on a block, term by term."""
    Xi = np.asarray(Xi, dtype=float)
    if isinstance(model, SwitchedForm):
        idx = [int(round(x)) - 1 for x in Xi[:, 0]]
        B = None if model.m == 0 else np.array([model.b_modes[k] for k in idx])
        return np.array([model.a_modes[k] for k in idx]), B

    def grid_at(grid):
        return np.array([[[sum(c * np.prod(xi ** np.array(a)) for c, a in e.terms) for e in row]
                          for row in grid] for xi in Xi])

    a_grid, b_grid = _entry_grids(model)
    return grid_at(a_grid), (None if b_grid is None else grid_at(b_grid))


def second_moment_loop(model):
    """``(G2, E[[A, B]])`` of an affine, polynomial or switched model, entry by entry."""
    n, m = model.n, model.m
    if isinstance(model, SwitchedForm):
        w = (n + m) * n
        g2, mean = np.zeros((w, w)), np.zeros((n, n + m))
        for i, p in enumerate(model.mode_probs):
            AB = model.a_modes[i] if m == 0 else np.hstack([model.a_modes[i], model.b_modes[i]])
            g = np.concatenate([model.a_modes[i].ravel()]
                               + ([] if m == 0 else [model.b_modes[i].ravel()]))
            g2 += p * np.outer(g, g)
            mean += p * AB
        return g2, mean
    a_grid, b_grid = _entry_grids(model)
    entries = [e for row in a_grid for e in row]
    if m:
        entries += [e for row in b_grid for e in row]
    w = len(entries)
    g2 = np.zeros((w, w))
    for u in range(w):
        for v in range(u, w):
            s = 0.0
            for cu, au in entries[u].terms:
                for cv, av in entries[v].terms:
                    s += cu * cv * model.dist.moment(tuple(x + y for x, y in zip(au, av)))
            g2[u, v] = g2[v, u] = s
    means = np.array([sum(c * model.dist.moment(a) for c, a in e.terms) for e in entries])
    mean = np.hstack([means[: n * n].reshape(n, n)]
                     + ([] if m == 0 else [means[n * n:].reshape(n, m)]))
    return g2, mean


def expected_quadratic_factored(data, P):
    """``GpA^T (P kron I) GpA`` with the stacked factor of ``g2``."""
    n, m = data.n, data.m
    f = factorize(data)
    out = f.gpa.T @ np.kron(P, np.eye((n + m) * n)) @ f.gpa
    return (out + out.T) / 2.0


def expected_quadratic_row_stacked(data, P):
    """The ``n x n^3`` row-product matrix applied to ``I kron row(P)^T``."""
    n = data.n
    G4 = data.a_block.reshape(n, n, n, n)  # [q, j, r, i]
    ae2 = G4.transpose(3, 1, 0, 2).reshape(n, n**3)
    out = ae2 @ np.kron(np.eye(n), P.reshape(n * n, 1))
    return (out + out.T) / 2.0


def special_case_lmi(model):
    """Weighted congruence pairs for the classical special-case LMIs.

    For a switched model the pairs are ``(p_i, A[i])``; for an affine
    model with zero-mean noise coordinates they are ``(1, A0)`` plus
    ``(E[xi_i^2], A_i)``.  In both cases the induced map
    ``P -> sum_i w_i M_i^T P M_i`` must coincide with the general moment
    operator.
    """
    if isinstance(model, SwitchedForm):
        return [(float(p), A) for p, A in zip(model.mode_probs, model.a_modes)]
    if isinstance(model, AffineForm):
        Z = model.Z
        for i in range(Z):
            e_i = tuple(1 if t == i else 0 for t in range(Z))
            if model.dist.moment(e_i) != 0.0:
                raise UnsupportedForm(
                    "affine special case needs zero-mean noise coordinates"
                )
        pairs = [(1.0, model.a_mats[0])]
        for i in range(Z):
            e_i2 = tuple(2 if t == i else 0 for t in range(Z))
            pairs.append((float(model.dist.moment(e_i2)), model.a_mats[i + 1]))
        return pairs
    raise UnsupportedForm(f"no special-case LMI for {type(model).__name__}")


def operator_from_pairs(pairs, n):
    """Moment operator of ``P -> sum_i w_i M_i^T P M_i``.

    In row-vectorization coordinates each congruence contributes
    ``(M_i kron M_i)^T``.
    """
    M = np.zeros((n * n, n * n))
    for wgt, Mat in pairs:
        M += wgt * np.kron(Mat, Mat).T
    return MomentOperatorMatrix(M, n)
