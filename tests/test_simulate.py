"""Ensemble estimates: exactness on deterministic systems, seed contracts."""

import tracemalloc

import numpy as np
import pytest

from stochlyap.demo_models import example1_model
from stochlyap.dist import Constant, DistributionSpec, Normal
from stochlyap.errors import DegenerateWindow, StochLyapError
from stochlyap.simulate import decay_rate, run_ensemble, write_rms_csv
from stochlyap.sysmodel import AffineForm


def deterministic_scalar(a):
    return AffineForm(
        (np.array([[a]]), np.zeros((1, 1))), DistributionSpec((Constant(0.0),))
    )


def scalar_noise(sig):
    return AffineForm((np.zeros((1, 1)), np.eye(1)), DistributionSpec((Normal(0.0, sig),)))


class TestRunEnsemble:
    def test_deterministic_geometric_exact(self):
        res = run_ensemble(deterministic_scalar(0.5), [1.0], 20, 64, seed=0)
        assert np.array_equal(res.rms, 0.5 ** np.arange(21))

    def test_rms_zero_is_initial_norm_exactly(self):
        x0 = [0.1, -0.3, 0.7]
        res = run_ensemble(example1_model(), x0, 3, 777, seed=1)
        assert res.rms[0] == np.linalg.norm(x0)

    def test_scalar_noise_matches_exact_second_moment(self):
        # E[x_k^2] = sig^(2k) exactly.  x_k^2 is a product of k squared
        # normals, so Var(x_k^2)/E[x_k^2]^2 = 3^k - 1: the estimator is
        # heavy-tailed and the honest bound is 4 estimated standard errors.
        res = run_ensemble(scalar_noise(0.5), [1.0], 10, 100_000, seed=3,
                           store_paths=True)
        for k in (1, 3, 10):
            mean_sq = res.rms[k] ** 2
            stderr = res.path_sq[:, k].std() / np.sqrt(res.n_paths)
            assert abs(mean_sq - 0.25**k) < 4 * stderr
        assert res.rms[3] == pytest.approx(0.5**3, rel=0.05)

    def test_seed_determinism(self):
        a = run_ensemble(example1_model(), [1.0, 0, 0], 30, 5000, seed=9)
        b = run_ensemble(example1_model(), [1.0, 0, 0], 30, 5000, seed=9)
        assert np.array_equal(a.rms, b.rms)

    def test_neighbouring_seeds_differ(self):
        # keyed by seed XOR path, path p of seed 0 was path p XOR 1 of seed 1,
        # and the two RMS curves agreed to rounding
        a = run_ensemble(example1_model(), [1.0, 0, 0], 30, 2000, seed=0)
        b = run_ensemble(example1_model(), [1.0, 0, 0], 30, 2000, seed=1)
        assert np.abs(a.rms - b.rms).max() > 1e-3

    def test_path_prefix(self):
        # path p depends only on (seed, p), so a larger ensemble (ending in a
        # partial block) extends a smaller one (two whole blocks) path for path
        short = run_ensemble(example1_model(), [1, 0, 0], 25, 2048, seed=4, store_paths=True)
        long = run_ensemble(example1_model(), [1, 0, 0], 25, 2500, seed=4, store_paths=True)
        assert np.array_equal(short.path_sq, long.path_sq[:2048])

    def test_gain_folds_into_model(self):
        dist = DistributionSpec((Normal(0.0, 0.1),))
        model = AffineForm(
            (np.array([[0.9]]), np.eye(1)), dist, (np.eye(1), np.zeros((1, 1)))
        )
        with_gain = run_ensemble(model, [1.0], 10, 500, seed=5, F=[[-0.9]])
        direct = run_ensemble(model.closed_loop([[-0.9]]), [1.0], 10, 500, seed=5)
        assert np.array_equal(with_gain.rms, direct.rms)

    def test_open_loop_needs_gain(self):
        dist = DistributionSpec((Normal(0.0, 0.1),))
        model = AffineForm(
            (np.array([[0.9]]), np.eye(1)), dist, (np.eye(1), np.zeros((1, 1)))
        )
        with pytest.raises(StochLyapError):
            run_ensemble(model, [1.0], 10, 100, seed=0)

    def test_overflow_clamp(self):
        res = run_ensemble(deterministic_scalar(1e40), [1.0], 6, 8, seed=0)
        assert res.overflow_paths == 8
        assert np.isfinite(res.rms).all()
        assert res.rms[-1] == pytest.approx(1e150, rel=1e-12)

    def test_store_paths(self):
        res = run_ensemble(deterministic_scalar(0.5), [2.0], 4, 10, seed=0,
                           store_paths=True)
        assert res.path_sq.shape == (10, 5)
        assert np.array_equal(res.path_sq[0], 4.0 * 0.25 ** np.arange(5))


    def test_memory_flat_in_path_count(self):
        # without store_paths only one block of per-path squared norms is alive
        def peak(n_paths):
            tracemalloc.start()
            try:
                run_ensemble(example1_model(), [1.0, 0, 0], 100, n_paths, seed=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8_192) < 1.5 * peak(2_048)


class TestSampledClosedLoopEnsemble:
    def test_discrete_time_decay_under_gain(self):
        from stochlyap.demo_models import example2_model

        model = example2_model().closed_loop([[2.9242, 4.9123, -10.0501]])
        res = run_ensemble(model, [1.0, 0.0, 0.0], 40, 256, seed=12)
        # certified closed-loop rate is about 0.92, so 40 steps shrink
        # the RMS norm well below its initial value
        assert res.rms[40] < 0.3 * res.rms[0]
        assert res.overflow_paths == 0

    def test_certified_rate_bounds_ensemble_estimate(self):
        # randomized version of the analysis/simulation coherence check:
        # the certified minimal rate upper-bounds the observed decay
        from stochlyap.analysis import build_operator, spectral_radius
        from stochlyap.moments import second_moment_analytic
        from stochlyap.dist import Uniform

        rng = np.random.default_rng(21)
        dist = DistributionSpec((Normal(0.0, 0.4), Uniform(-0.3, 0.3)))
        model = AffineForm(tuple(rng.normal(size=(3, 3)) * s
                                 for s in (0.35, 0.2, 0.2)), dist)
        lam = np.sqrt(spectral_radius(build_operator(second_moment_analytic(model)), 1e-9))
        assert lam < 1.0
        res = run_ensemble(model, [1.0, 0.0, 0.0], 100, 20_000, seed=13)
        assert decay_rate(res, 50, 100) <= lam + 0.01


class TestDecayRate:
    def test_closed_form_window(self):
        res = run_ensemble(deterministic_scalar(0.5), [1.0], 100, 16, seed=0)
        object.__setattr__(res, "rms", res.rms.copy())
        res.rms[50], res.rms[100] = 1e-2, 1e-4
        assert decay_rate(res, 50, 100) == pytest.approx(10 ** (-2 / 50), rel=1e-12)

    def test_deterministic_exact(self):
        res = run_ensemble(deterministic_scalar(0.5), [1.0], 100, 16, seed=0)
        assert decay_rate(res, 50, 100) == pytest.approx(0.5, abs=1e-12)

    def test_window_validation(self):
        res = run_ensemble(deterministic_scalar(0.5), [1.0], 10, 16, seed=0)
        with pytest.raises(StochLyapError):
            decay_rate(res, 5, 5)
        with pytest.raises(StochLyapError):
            decay_rate(res, 0, 11)

    def test_degenerate_window(self):
        res = run_ensemble(deterministic_scalar(0.0), [1.0], 5, 16, seed=0)
        with pytest.raises(DegenerateWindow):
            decay_rate(res, 0, 5)


class TestCsv:
    def test_format(self, tmp_path):
        res = run_ensemble(deterministic_scalar(0.5), [1.0], 3, 16, seed=0)
        path = tmp_path / "rms.csv"
        write_rms_csv(res, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "k,rms"
        assert lines[1] == "0,1"
        assert lines[2] == "1,0.5"
        assert len(lines) == 5
