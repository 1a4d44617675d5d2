"""Fast tests of the benchmark's oracles on cases with closed-form answers.

Run with ``python3 -m pytest bench -q`` from the repository root.
"""

import math

import numpy as np
import pytest

import oracles


def test_gauss_rules_exact_to_degree_five():
    x, w = oracles.gauss_normal(0.3, 0.7)
    assert w @ x**4 == pytest.approx(0.3**4 + 6 * 0.3**2 * 0.7**2 + 3 * 0.7**4, rel=1e-13)
    assert w @ x**5 == pytest.approx(0.3**5 + 10 * 0.3**3 * 0.7**2 + 15 * 0.3 * 0.7**4,
                                     rel=1e-13)
    x, w = oracles.gauss_uniform(-0.5, 1.5)
    assert w @ x**4 == pytest.approx((1.5**5 - (-0.5) ** 5) / (5 * 2.0), rel=1e-13)


def test_quadrature_matches_raw_moment_expansion():
    # scalar A = 0.5 + 0.4 xi1 + 0.3 xi2 with xi1 ~ N(0.1, 0.2^2), xi2 ~ U(-1, 1)
    rules = [oracles.gauss_normal(0.1, 0.2), oracles.gauss_uniform(-1.0, 1.0)]
    K = oracles.kron_quadrature(lambda xi: (0.5 + 0.4 * xi[:, 0] + 0.3 * xi[:, 1])[:, None, None],
                                rules)
    phi2 = oracles.raw_moment_matrix([0.1, 0.0], [0.04 + 0.01, 1.0 / 3.0])
    mats = [np.array([[0.5]]), np.array([[0.4]]), np.array([[0.3]])]
    assert K[0, 0] == pytest.approx(oracles.kron_affine(mats, phi2)[0, 0], rel=1e-13)
    assert K[0, 0] == pytest.approx(0.5**2 + 2 * 0.5 * 0.4 * 0.1 + 0.16 * 0.05 + 0.09 / 3.0,
                                    rel=1e-13)


def test_scalar_switched_rate_and_certificate():
    probs, a = [0.3, 0.7], [1.2, 0.5]
    K = oracles.kron_switched([np.array([[v]]) for v in a], probs)
    rho = sum(p * v * v for p, v in zip(probs, a))
    assert oracles.spectral_radius(K) == pytest.approx(rho, rel=1e-14)
    lam = 0.9
    P = oracles.lyapunov_solution(K, lam)
    assert P[0, 0] == pytest.approx(1.0 / (lam**2 - rho), rel=1e-13)
    p_min, r_min = oracles.certificate_margins(K, P, lam)
    assert p_min > 0 and r_min == pytest.approx(1.0, rel=1e-12)


def test_bipartite_operator_has_symmetric_spectrum():
    rng = np.random.default_rng(0)
    modes = []
    for _ in range(2):
        A = np.zeros((4, 4))
        A[:2, 2:], A[2:, :2] = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        modes.append(A)
    ev = np.linalg.eigvals(oracles.kron_switched(modes, [0.5, 0.5]))
    top = np.abs(ev).max()
    assert np.isclose(ev, top).any() and np.isclose(ev, -top).any()


def test_mean_square_curve_of_a_constant_system():
    A = np.diag([0.9, -0.5])
    curve = oracles.mean_square_curve(np.kron(A, A), [1.0, 0.0], 5)
    np.testing.assert_allclose(curve, 0.9 ** np.arange(6), rtol=1e-14)


def test_zoh_closed_form_scalar_plant():
    # dx/dt = a x + b u: E = [[e^{ah}, b (e^{ah} - 1)/a], [0, 1]], h = h0 + Exp(r)
    a, b, h0, r = 1.5, 2.0, 0.01, 20.0
    G2, G = oracles.zoh_moments([[a]], [[b]], h0, r)
    assert G2[0, 0] == pytest.approx(math.exp(2 * a * h0) * r / (r - 2 * a), rel=1e-12)
    # E[B^2] = (b/a)^2 E[(e^{ah} - 1)^2]
    e2 = math.exp(2 * a * h0) * r / (r - 2 * a)
    e1 = math.exp(a * h0) * r / (r - a)
    assert G2[1, 1] == pytest.approx((b / a) ** 2 * (e2 - 2 * e1 + 1), rel=1e-10)
    assert G[0, 0, 0, 1] == pytest.approx(G2[0, 1], rel=1e-14)
    with pytest.raises(ValueError):
        oracles.zoh_moments([[a]], [[b]], h0, 2.0 * a)


def test_zoh_fourth_moments_scalar_plant():
    a, b, h0, r = 1.5, 2.0, 0.01, 20.0

    def mgf(c):  # E[exp(c h)]
        return math.exp(c * h0) * r / (r - c)

    M = oracles.zoh_fourth_moments([[a]], [[b]], h0, r)
    assert M.shape == (1, 2) * 4
    assert M[0, 0, 0, 0, 0, 0, 0, 0] == pytest.approx(mgf(4 * a), rel=1e-12)
    # E[A^3 B] with B = (b/a)(e^{ah} - 1)
    assert M[0, 0, 0, 0, 0, 0, 0, 1] == pytest.approx((b / a) * (mgf(4 * a) - mgf(3 * a)),
                                                      rel=1e-10)
    assert M[0, 1, 0, 0, 0, 0, 0, 0] == pytest.approx(M[0, 0, 0, 0, 0, 0, 0, 1], rel=1e-12)


def test_closed_loop_rate_stderr_matches_batch_spread():
    # rate = sqrt(E[(A + B f)^2]) of the scalar plant, estimated from batches of draws
    a, b, h0, r, f = 1.5, 2.0, 0.01, 20.0, -0.5
    batch, batches = 400, 800
    _, G = oracles.zoh_moments([[a]], [[b]], h0, r)
    M = oracles.zoh_fourth_moments([[a]], [[b]], h0, r)
    sigma = oracles.closed_loop_rate_stderr(G, M, np.array([[f]]), batch)
    h = h0 + np.random.default_rng(7).exponential(1.0 / r, size=(batches, batch))
    e = np.exp(a * h)
    rates = np.sqrt(np.mean((e + f * (b / a) * (e - 1.0)) ** 2, axis=1))
    assert oracles.closed_loop_rate(G, np.array([[f]])) == pytest.approx(rates.mean(), rel=1e-3)
    assert np.std(rates, ddof=1) == pytest.approx(sigma, rel=0.1)


def test_g2_tensor_round_trip_and_closed_loop_rate():
    # deterministic scalar pair A = 1.2, B = 0.5: the closed loop A + B f has rate |1.2 + 0.5 f|
    g = np.array([1.2, 0.5])
    G = oracles.g2_tensor(np.outer(g, g), 1, 1)
    assert oracles.closed_loop_rate(G, np.array([[-1.0]])) == pytest.approx(0.7, rel=1e-14)


def test_sdpa_reader(tmp_path):
    path = tmp_path / "p.dat-s"
    path.write_text(
        '"two variables"\n2 = mDIM\n2 = nBLOCK\n2 1 = bLOCKsTRUCT\n0.0 0.0\n'
        "0 1 1 1 0.5\n0 1 2 2 0.5\n0 2 1 1 0.5\n"
        "1 1 1 1 1.0\n1 1 1 2 2.0\n1 2 1 1 1.0\n2 1 2 2 3.0\n")
    mdim, sizes, entries = oracles.read_sdpa(str(path))
    assert (mdim, sizes) == (2, [2, 1])
    blocks = oracles.sdpa_slack(sizes, entries, [1.0, 2.0])
    np.testing.assert_array_equal(blocks[0], [[0.5, 2.0], [2.0, 5.5]])
    np.testing.assert_array_equal(blocks[1], [[0.5]])
