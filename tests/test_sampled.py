"""Discretization against truncated-series oracles; the stacked exponential;
intersample propagation."""

import numpy as np
import pytest
import scipy.linalg

from stochlyap.demo_models import example2_model
from stochlyap.errors import DimensionMismatch, StochLyapError
from stochlyap.sampled import (
    _EXPM_CHUNK,
    ContinuousPlant,
    discretize,
    discretize_batch,
    expm_stack,
    intersample_trajectory,
)


def series_oracle(plant, h, terms=30):
    """Taylor series for exp(A h) and the held-input integral."""
    n = plant.n
    A_op = np.zeros((n, n))
    B_op = np.zeros((n, plant.m))
    Ak = np.eye(n)
    fact = 1.0
    for j in range(terms):
        A_op += Ak * (h**j) / fact
        B_op += Ak @ plant.B_c * (h ** (j + 1)) / (fact * (j + 1))
        Ak = plant.A_c @ Ak
        fact *= j + 1
    return A_op, B_op


class TestDiscretize:
    def test_integrator(self):
        plant = ContinuousPlant(np.zeros((1, 1)), np.eye(1))
        A_op, B_op = discretize(plant, 0.5)
        assert A_op[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert B_op[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_scalar_exponential(self):
        plant = ContinuousPlant(np.eye(1), np.eye(1))
        A_op, B_op = discretize(plant, np.log(2.0))
        assert A_op[0, 0] == pytest.approx(2.0, rel=1e-12)
        assert B_op[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_series_oracle_on_demo_plant(self):
        plant = example2_model().plant
        A_op, B_op = discretize(plant, 0.05)
        A_ref, B_ref = series_oracle(plant, 0.05)
        assert np.abs(A_op - A_ref).max() < 1e-10
        assert np.abs(B_op - B_ref).max() < 1e-10

    def test_semigroup_property(self):
        plant = example2_model().plant
        h1, h2 = 0.03, 0.07
        A1, B1 = discretize(plant, h1)
        A2, B2 = discretize(plant, h2)
        A12, B12 = discretize(plant, h1 + h2)
        assert np.abs(A12 - A2 @ A1).max() < 1e-9
        assert np.abs(B12 - (A2 @ B1 + B2)).max() < 1e-9

    def test_small_interval_limit(self):
        plant = example2_model().plant
        for h in (1e-4, 1e-5):
            A_op, B_op = discretize(plant, h)
            assert np.abs(A_op - np.eye(3)).max() < 10 * h
            assert np.abs(B_op - h * plant.B_c).max() < 10 * h**2

    def test_batch_matches_scalar(self):
        plant = example2_model().plant
        hs = np.array([0.01, 0.05, 0.2])
        A_b, B_b = discretize_batch(plant, hs)
        for i, h in enumerate(hs):
            A_s, B_s = discretize(plant, h)
            assert np.array_equal(A_b[i], A_s)
            assert np.array_equal(B_b[i], B_s)

    def test_empty_batch_shapes(self):
        plant = ContinuousPlant(np.zeros((3, 3)), np.zeros((3, 2)))
        A_b, B_b = discretize_batch(plant, np.array([]))
        assert A_b.shape == (0, 3, 3) and B_b.shape == (0, 3, 2)

    def test_scalar_h_rejected(self):
        plant = ContinuousPlant(np.eye(1), np.eye(1))
        with pytest.raises(DimensionMismatch, match="one-dimensional"):
            discretize_batch(plant, 0.5)

    def test_two_dimensional_h_rejected(self):
        plant = ContinuousPlant(np.eye(1), np.eye(1))
        with pytest.raises(DimensionMismatch, match="one-dimensional"):
            discretize_batch(plant, np.full((2, 3), 0.1))

    def test_invalid_interval(self):
        plant = ContinuousPlant(np.eye(1), np.eye(1))
        with pytest.raises(StochLyapError):
            discretize(plant, 0.0)
        with pytest.raises(StochLyapError):
            discretize(plant, np.inf)

    def test_overflowing_interval_is_typed_error(self):
        plant = ContinuousPlant(np.eye(2), np.ones((2, 1)))
        with pytest.raises(StochLyapError, match="1-norm is not finite"):
            discretize(plant, 1e308)

    def test_plant_validation(self):
        with pytest.raises(DimensionMismatch):
            ContinuousPlant(np.zeros((2, 3)), np.zeros((2, 1)))
        with pytest.raises(DimensionMismatch):
            ContinuousPlant(np.zeros((2, 2)), np.zeros((3, 1)))


def random_stack(rng, k, count):
    """``count`` Gaussian ``k x k`` slices with 1-norms log-uniform in [1e-8, 50]."""
    M = rng.standard_normal((count, k, k))
    norms = np.exp(rng.uniform(np.log(1e-8), np.log(50.0), count))
    return M * (norms / np.abs(M).sum(axis=1).max(axis=1))[:, None, None]


def rel_fro(E, R):
    return np.linalg.norm(E - R, axis=(1, 2)) / np.linalg.norm(R, axis=(1, 2))


class TestExpmStack:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_matches_scipy(self, k):
        # scipy's own error on these stacks reaches ~1e-12 (see the mpmath test)
        M = random_stack(np.random.default_rng(k), k, 200)
        assert rel_fro(expm_stack(M), scipy.linalg.expm(M)).max() < 1e-11

    def test_matches_high_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2005)
        with mpmath.workdps(40):
            for k in range(2, 9):
                M = random_stack(rng, k, 6)
                ref = np.array([np.array(mpmath.expm(mpmath.matrix(S.tolist())).tolist(),
                                         dtype=float) for S in M])
                assert rel_fro(expm_stack(M), ref).max() < 1e-13

    def test_zero_stack_is_identity(self):
        assert np.array_equal(expm_stack(np.zeros((5, 4, 4))), np.broadcast_to(np.eye(4), (5, 4, 4)))

    def test_empty_stack(self):
        assert expm_stack(np.zeros((0, 4, 4))).shape == (0, 4, 4)

    def test_slices_independent_of_batch(self):
        model = example2_model()
        rng = np.random.default_rng(3)
        count = 3000
        assert count > 2 * _EXPM_CHUNK
        hs = model.interval(model.dist.sample_block(rng, count))
        hs[::7] *= 40.0  # some slices need several squarings
        A_b, B_b = discretize_batch(model.plant, hs)
        for i, h in enumerate(hs):
            A_s, B_s = discretize_batch(model.plant, hs[i: i + 1])
            assert np.array_equal(A_b[i], A_s[0]) and np.array_equal(B_b[i], B_s[0])


class TestIntersample:
    def test_frozen_plant_constant_state(self):
        plant = ContinuousPlant(np.zeros((2, 2)), np.zeros((2, 1)))
        t, x, u = intersample_trajectory(
            plant, np.zeros((1, 2)), [0.0, 0.4, 1.0], [1.0, -2.0], 0.05
        )
        assert np.all(x == [1.0, -2.0])

    def test_scalar_decay_closed_form(self):
        plant = ContinuousPlant(np.array([[-1.0]]), np.zeros((1, 1)))
        t, x, u = intersample_trajectory(plant, np.zeros((1, 1)), [0.0, 0.5, 1.3], [1.0], 0.01)
        assert np.abs(x[:, 0] - np.exp(-t)).max() < 1e-9

    def test_states_at_instants_match_recursion(self):
        model = example2_model()
        plant = model.plant
        F = np.array([[2.9242, 4.9123, -10.0501]])
        instants = np.array([0.0, 0.05, 0.11, 0.2, 0.33])
        t, x, u = intersample_trajectory(plant, F, instants, [1.0, 0.0, 0.0], 0.013)
        xk = np.array([1.0, 0.0, 0.0])
        for k in range(len(instants) - 1):
            idx = np.nonzero(t == instants[k])[0][0]
            assert np.array_equal(x[idx], xk)
            A_op, B_op = discretize(plant, instants[k + 1] - instants[k])
            xk = A_op @ xk + B_op @ (F @ xk)
        assert np.array_equal(x[-1], xk)

    def test_hold_is_piecewise_constant(self):
        plant = example2_model().plant
        F = np.array([[1.0, -2.0, 0.5]])
        instants = np.array([0.0, 0.09, 0.2])
        t, x, u = intersample_trajectory(plant, F, instants, [1.0, 1.0, 0.0], 0.02)
        seg = (t >= 0.0) & (t < 0.09)
        assert np.ptp(u[seg, 0]) == 0.0

    def test_grid_validation(self):
        plant = ContinuousPlant(np.eye(1), np.eye(1))
        with pytest.raises(StochLyapError):
            intersample_trajectory(plant, [[0.0]], [0.1, 0.2], [1.0], 0.01)
        with pytest.raises(StochLyapError):
            intersample_trajectory(plant, [[0.0]], [0.0, 0.2], [1.0], 0.0)
        with pytest.raises(DimensionMismatch):
            intersample_trajectory(plant, [[0.0, 1.0]], [0.0, 0.2], [1.0], 0.01)
