"""Second-moment data: analytic vs Monte-Carlo vs brute-force oracles."""

import json

import numpy as np
import pytest

from stochlyap.demo_models import example1_model
from stochlyap.dist import Constant, Discrete, DistributionSpec, Exponential, Normal, Uniform
from stochlyap.errors import NonFiniteSample, NotPSD, StochLyapError, UnsupportedForm
from stochlyap.moments import (
    MC_BLOCK,
    Analytic,
    MonteCarlo,
    SecondMomentData,
    closed_loop_second_moment,
    expected_quadratic,
    factorize,
    load_moments,
    save_moments,
    second_moment_analytic,
    second_moment_mc,
)
from stochlyap.sysmodel import AffineForm, PolyEntry, PolyForm, SwitchedForm

from moment_oracles import (
    expected_quadratic_factored,
    expected_quadratic_row_stacked,
    second_moment_loop,
)


def scalar_noise_model(sig=0.5):
    return AffineForm(
        (np.zeros((1, 1)), np.eye(1)), DistributionSpec((Normal(0.0, sig),))
    )


def switched_pair(a1=2.0, a2=0.0, p=0.5, with_input=False):
    dist = DistributionSpec((Discrete((1.0, 2.0), (p, 1.0 - p)),))
    b = (np.array([[1.0]]), np.array([[-0.5]])) if with_input else None
    return SwitchedForm((np.array([[a1]]), np.array([[a2]])), dist, b)


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


class TestAnalytic:
    def test_scalar_normal(self):
        data = second_moment_analytic(scalar_noise_model(0.5))
        assert data.g2 == pytest.approx(np.array([[0.25]]))
        assert data.mean == pytest.approx(np.array([[0.0]]))

    def test_switched_brute_force(self):
        data = second_moment_analytic(switched_pair())
        assert data.g2[0, 0] == pytest.approx(0.5 * 4.0 + 0.5 * 0.0)

    def test_affine_expansion(self):
        # A(xi) = A0 + A1 xi with E[xi] = 0, E[xi^2] = v:
        # G2 = row(A0)^T row(A0) + v row(A1)^T row(A1)
        rng = np.random.default_rng(3)
        A0, A1 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        v = 1.0 / 12.0
        model = AffineForm((A0, A1), DistributionSpec((Uniform(-0.5, 0.5),)))
        data = second_moment_analytic(model)
        expected = np.outer(A0.ravel(), A0.ravel()) + v * np.outer(A1.ravel(), A1.ravel())
        assert np.allclose(data.g2, expected, atol=1e-14)
        assert np.allclose(data.mean, A0)
        mc = second_moment_mc(model, 200_000, seed=8)
        assert np.abs(mc.g2 - data.g2).max() < 4 * mc.method.max_entry_stderr

    def test_example1_psd_and_symmetric(self):
        data = second_moment_analytic(example1_model())
        assert np.array_equal(data.g2, data.g2.T)
        assert np.linalg.eigvalsh(data.g2)[0] > -1e-12

    def test_sampled_unsupported(self):
        from stochlyap.demo_models import example2_model

        with pytest.raises(UnsupportedForm):
            second_moment_analytic(example2_model())

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("form", ["affine", "poly", "switched"])
    def test_coefficient_basis_matches_entry_loop(self, form, m):
        rng = np.random.default_rng([ord(form[0]), m])
        for _ in range(10):
            model = random_model(form, m, rng)
            data = second_moment_analytic(model)
            g2, mean = second_moment_loop(model)
            assert data.g2.shape == g2.shape and data.mean.shape == mean.shape
            assert np.abs(data.g2 - g2).max() <= 1e-12 * max(np.abs(g2).max(), 1.0)
            assert np.abs(data.mean - mean).max() <= 1e-12 * max(np.abs(mean).max(), 1.0)

    def test_synthesis_blocks_against_sampling(self):
        model = switched_pair(with_input=True)
        data = second_moment_analytic(model)
        # brute force over the two equally likely modes
        g1 = np.array([2.0, 1.0])
        g2v = np.array([0.0, -0.5])
        expected = 0.5 * np.outer(g1, g1) + 0.5 * np.outer(g2v, g2v)
        assert np.allclose(data.g2, expected, atol=1e-15)


class TestMonteCarlo:
    def test_constant_model_exact(self):
        model = AffineForm(
            (np.eye(2), np.zeros((2, 2))), DistributionSpec((Constant(0.0),))
        )
        data = second_moment_mc(model, 2000, seed=0)
        expected = np.outer(np.eye(2).ravel(), np.eye(2).ravel())
        assert np.array_equal(data.g2, expected)
        assert data.method.max_entry_stderr == 0.0

    def test_scalar_uniform_million(self):
        model = AffineForm(
            (np.zeros((1, 1)), np.eye(1)), DistributionSpec((Uniform(-0.5, 0.5),))
        )
        data = second_moment_mc(model, 1_000_000, seed=5)
        assert abs(data.g2[0, 0] - 1.0 / 12.0) < 1e-3

    def test_example1_against_analytic(self):
        model = example1_model()
        exact = second_moment_analytic(model)
        mc = second_moment_mc(model, 1_000_000, seed=17)
        err = np.abs(mc.g2 - exact.g2).max()
        assert err < 4.0 * mc.method.max_entry_stderr
        assert isinstance(mc.method, MonteCarlo)
        assert mc.method.samples == 1_000_000

    def test_seed_determinism(self):
        model = example1_model()
        a = second_moment_mc(model, 30_000, seed=2)
        b = second_moment_mc(model, 30_000, seed=2)
        assert np.array_equal(a.g2, b.g2)
        assert np.array_equal(a.mean, b.mean)

    def test_neighbouring_seeds_differ(self):
        # two whole blocks each: keyed by seed XOR block, seeds 0 and 1 would
        # draw the same two blocks and agree to rounding
        a = second_moment_mc(example1_model(), 2 * MC_BLOCK, seed=0)
        b = second_moment_mc(example1_model(), 2 * MC_BLOCK, seed=1)
        assert np.abs(a.g2 - b.g2).max() > 0.1 * a.method.max_entry_stderr

    def test_minimum_samples(self):
        with pytest.raises(StochLyapError):
            second_moment_mc(example1_model(), 999, seed=0)

    def test_non_finite_sample(self):
        class Exploding:
            n, m, Z = 1, 0, 1
            dist = DistributionSpec((Constant(0.0),))

            def evaluate_block(self, Xi):
                return np.full((Xi.shape[0], 1, 1), np.inf), None

        with pytest.raises(NonFiniteSample):
            second_moment_mc(Exploding(), 2000, seed=0)


class TestFactorize:
    def test_identity(self):
        data = SecondMomentData(np.eye(1), np.zeros((1, 1)), Analytic(), 1, 0, 1)
        f = factorize(data)
        assert f.gbar == pytest.approx(np.eye(1))
        assert f.gpa == pytest.approx(np.eye(1))

    def test_scalar_root(self):
        data = SecondMomentData(np.array([[4.0]]), np.zeros((1, 1)), Analytic(), 1, 0, 1)
        assert factorize(data).gbar[0, 0] == pytest.approx(2.0)

    def test_diagonal_rearrangement_by_hand(self):
        g2 = np.diag([1.0, 4.0, 9.0, 16.0])
        data = SecondMomentData(g2, np.zeros((2, 2)), Analytic(), 2, 0, 1)
        f = factorize(data)
        assert np.allclose(f.gbar, np.diag([1.0, 2.0, 3.0, 4.0]), atol=1e-12)
        # stacked column blocks of diag(1,2,3,4): nonzero rows [1,0],[0,2],[3,0],[0,4]
        expected_ap = np.zeros((8, 2))
        expected_ap[0, 0] = 1.0
        expected_ap[1, 1] = 2.0
        expected_ap[6, 0] = 3.0
        expected_ap[7, 1] = 4.0
        assert np.allclose(f.gpa, expected_ap, atol=1e-12)
        # (A')^T (P kron I4) A' equals the direct contraction
        rng = np.random.default_rng(0)
        for _ in range(5):
            P = rng.normal(size=(2, 2))
            P = P + P.T
            lhs = f.gpa.T @ np.kron(P, np.eye(4)) @ f.gpa
            rhs = expected_quadratic(data, P)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_round_trip(self):
        data = second_moment_analytic(example1_model())
        f = factorize(data)
        err = np.linalg.norm(f.gbar.T @ f.gbar - data.g2)
        assert err <= 1e-9 * (1.0 + np.linalg.norm(data.g2))

    def test_blocks_are_column_slices(self):
        model = switched_pair(with_input=True)
        data = second_moment_analytic(model)
        f = factorize(data)
        n, m = data.n, data.m
        for i in range(n):
            assert np.array_equal(
                f.gpa[i * (n + m) * n: (i + 1) * (n + m) * n],
                f.gbar[:, i * n: (i + 1) * n],
            )
            assert np.array_equal(
                f.gpb[i * (n + m) * n: (i + 1) * (n + m) * n],
                f.gbar[:, n * n + i * m: n * n + (i + 1) * m],
            )

    def test_not_psd_rejected(self):
        with pytest.raises(NotPSD):
            SecondMomentData(
                np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros((1, 2)),
                Analytic(), 1, 1, 1,
            )


class TestExpectedQuadratic:
    def test_zero_and_scalar(self):
        data = second_moment_analytic(scalar_noise_model(0.5))
        assert expected_quadratic(data, np.zeros((1, 1))) == pytest.approx(np.zeros((1, 1)))
        assert expected_quadratic(data, np.array([[2.0]]))[0, 0] == pytest.approx(0.5)

    def test_switched_brute_force(self):
        model = switched_pair(a1=1.3, a2=-0.4, p=0.3)
        data = second_moment_analytic(model)
        rng = np.random.default_rng(1)
        P = rng.normal(size=(1, 1))
        P = P + P.T
        expected = 0.3 * 1.3 * P * 1.3 + 0.7 * (-0.4) * P * (-0.4)
        assert np.allclose(expected_quadratic(data, P), expected, atol=1e-14)

    def test_three_representations_agree(self):
        data = second_moment_analytic(example1_model())
        rng = np.random.default_rng(4)
        for _ in range(50):
            P = rng.normal(size=(3, 3))
            P = P + P.T
            r1 = expected_quadratic_factored(data, P)
            r2 = expected_quadratic_row_stacked(data, P)
            r3 = expected_quadratic(data, P)
            bound = 1e-9 * (1.0 + np.linalg.norm(P))
            assert np.abs(r1 - r3).max() <= bound
            assert np.abs(r2 - r3).max() <= bound

    def test_psd_cone_preserved(self):
        data = second_moment_analytic(example1_model())
        rng = np.random.default_rng(5)
        for _ in range(50):
            R = rng.normal(size=(3, 3))
            P = R @ R.T
            out = expected_quadratic(data, P)
            assert np.linalg.eigvalsh(out)[0] >= -1e-9

    def test_linearity(self):
        data = second_moment_analytic(example1_model())
        rng = np.random.default_rng(6)
        P = rng.normal(size=(3, 3)); P = P + P.T
        Q = rng.normal(size=(3, 3)); Q = Q + Q.T
        a, b = 0.7, -1.3
        lhs = expected_quadratic(data, a * P + b * Q)
        rhs = a * expected_quadratic(data, P) + b * expected_quadratic(data, Q)
        assert np.abs(lhs - rhs).max() < 1e-10 * (1 + np.abs(rhs).max())


class TestClosedLoopData:
    def test_matches_closed_loop_model_moments(self):
        model = switched_pair(a1=1.2, a2=-0.8, p=0.4, with_input=True)
        data = second_moment_analytic(model)
        F = np.array([[-0.7]])
        derived = closed_loop_second_moment(data, F)
        direct = second_moment_analytic(model.closed_loop(F))
        assert np.allclose(derived.g2, direct.g2, atol=1e-14)
        assert np.allclose(derived.mean, direct.mean, atol=1e-14)
        assert derived.m == 0

    def test_affine_synthesis_case(self):
        rng = np.random.default_rng(9)
        dist = DistributionSpec((Normal(0.0, 0.3), Uniform(-0.2, 0.2)))
        model = AffineForm(
            tuple(rng.normal(size=(2, 2)) for _ in range(3)), dist,
            tuple(rng.normal(size=(2, 2)) for _ in range(3)),
        )
        F = rng.normal(size=(2, 2))
        derived = closed_loop_second_moment(second_moment_analytic(model), F)
        direct = second_moment_analytic(model.closed_loop(F))
        assert np.allclose(derived.g2, direct.g2, atol=1e-12)


class TestSerialization:
    @pytest.mark.parametrize("analytic", [False, True])
    def test_round_trip(self, tmp_path, analytic):
        model = example1_model()
        if analytic:
            data = second_moment_analytic(model)
        else:
            data = second_moment_mc(model, 5000, seed=1)
        path = tmp_path / "moments.json"
        save_moments(data, str(path), model)
        again = load_moments(str(path), model)
        assert np.array_equal(again.g2, data.g2)
        assert np.array_equal(again.mean, data.mean)
        assert again.method == data.method
        assert (again.n, again.m, again.Z) == (data.n, data.m, data.Z)

    def test_fingerprint_checked(self, tmp_path):
        model, other = switched_pair(2.0, 0.5), switched_pair(0.2, 0.5)
        path = str(tmp_path / "moments.json")
        save_moments(second_moment_analytic(model), path, model)
        assert np.array_equal(load_moments(path, model).g2, second_moment_analytic(model).g2)
        with pytest.raises(StochLyapError):
            load_moments(path, other)
        with open(path) as f:
            obj = json.load(f)
        del obj["model_sha256"]
        with open(path, "w") as f:
            json.dump(obj, f)
        with pytest.raises(StochLyapError):
            load_moments(path, model)


class TestPropertyInvariants:
    """Hypothesis checks of the structural invariants."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.05, 1.5), st.floats(0.05, 1.5), st.integers(0, 2**31))
    def test_quadratic_map_linearity_and_psd(self, s1, s2, seed):
        rng = np.random.default_rng(seed)
        model = AffineForm(
            (rng.normal(size=(2, 2)), rng.normal(size=(2, 2))),
            DistributionSpec((Normal(0.0, s1),)),
        )
        data = second_moment_analytic(model)
        R = rng.normal(size=(2, 2))
        P = R @ R.T * s2
        out = expected_quadratic(data, P)
        assert np.linalg.eigvalsh(out)[0] >= -1e-9 * (1 + np.abs(out).max())
        diff = expected_quadratic(data, 2.0 * P) - 2.0 * out
        assert np.abs(diff).max() < 1e-10 * (1 + np.abs(out).max())
