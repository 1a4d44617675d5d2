"""Moment operator, minimal rate, certificates, special-case reductions."""

import numpy as np
import pytest

from stochlyap.analysis import (
    build_operator,
    check_quadratic,
    lyapunov_certificate,
    spectral_radius,
    stability_report,
)
from stochlyap.demo_models import example1_model
from stochlyap.dist import Constant, Discrete, DistributionSpec, Normal, Uniform
from stochlyap.errors import InfeasibleLambda, UnsupportedForm
from stochlyap.moments import expected_quadratic, second_moment_analytic
from stochlyap.sysmodel import AffineForm, SwitchedForm

from moment_oracles import operator_from_pairs, special_case_lmi


def deterministic(A):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    return AffineForm((A, np.zeros_like(A)), DistributionSpec((Constant(0.0),)))


def scalar_noise(sig):
    return AffineForm((np.zeros((1, 1)), np.eye(1)), DistributionSpec((Normal(0.0, sig),)))


def switched_scalar():
    dist = DistributionSpec((Discrete((1.0, 2.0), (0.5, 0.5)),))
    return SwitchedForm((np.array([[2.0]]), np.array([[0.0]])), dist)


def no_dense_eigvals(*args, **kwargs):
    raise AssertionError("dense eigensolver called")


def block_cyclic(period, rng, block=2, modes=3):
    """Switched model whose every mode maps state block ``b`` into block ``b + 1``.

    ``T`` then has ``rho`` times each ``period``-th root of unity as
    eigenvalues (``+-rho`` for the bipartite case ``period = 2``).
    """
    N = period * block
    As = []
    for _ in range(modes):
        A = np.zeros((N, N))
        for b in range(period):
            c = (b + 1) % period
            A[c * block: (c + 1) * block, b * block: (b + 1) * block] = rng.normal(size=(block, block))
        As.append(A)
    p = (0.2, 0.3, 0.5)[:modes]
    return SwitchedForm(tuple(As), DistributionSpec((Discrete(tuple(range(1, modes + 1)), p),)))


class TestBuildOperator:
    def test_scalar_layout(self):
        data = second_moment_analytic(scalar_noise(0.5))
        op = build_operator(data)
        assert op.matrix == pytest.approx(np.array([[0.25]]))

    def test_deterministic_matches_congruence(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(3, 3))
        op = build_operator(second_moment_analytic(deterministic(A)))
        for _ in range(10):
            P = rng.normal(size=(3, 3))
            P = P + P.T
            assert np.allclose(op.apply(P), A.T @ P @ A, atol=1e-12)

    def test_pure_index_permutation(self):
        data = second_moment_analytic(example1_model())
        op = build_operator(data)
        n = 3
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        assert op.matrix[j * n + l, i * n + k] == data.g2[i * n + j, k * n + l]

    def test_matches_expected_quadratic(self):
        data = second_moment_analytic(example1_model())
        op = build_operator(data)
        rng = np.random.default_rng(1)
        for _ in range(20):
            P = rng.normal(size=(3, 3))
            P = P + P.T
            assert np.abs(op.apply(P) - expected_quadratic(data, P)).max() < 1e-10

    def test_power_iteration_reaches_psd_eigenmatrix(self):
        data = second_moment_analytic(example1_model())
        op = build_operator(data)
        P = np.eye(3)
        for _ in range(500):
            Q = op.apply(P)
            P = Q / np.linalg.norm(Q)
        # Perron eigenmatrix of a completely positive map is PSD
        assert np.linalg.eigvalsh((P + P.T) / 2)[0] > -1e-9


class TestMinimalLambda:
    def test_scalar_noise(self):
        op = build_operator(second_moment_analytic(scalar_noise(0.5)))
        assert np.sqrt(spectral_radius(op, 1e-10)) == pytest.approx(0.5, abs=1e-12)

    def test_deterministic_diag(self):
        op = build_operator(second_moment_analytic(deterministic(np.diag([0.5, 0.8]))))
        assert np.sqrt(spectral_radius(op, 1e-10)) == pytest.approx(0.8, abs=1e-10)

    def test_example1_reference_value(self):
        op = build_operator(second_moment_analytic(example1_model()))
        assert np.sqrt(spectral_radius(op, 1e-6)) == pytest.approx(0.9219, abs=1e-3)

    def test_unstable_switched(self):
        op = build_operator(second_moment_analytic(switched_scalar()))
        assert np.sqrt(spectral_radius(op, 1e-10)) == pytest.approx(np.sqrt(2.0), abs=1e-10)

    def test_deterministic_reduction_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            A = rng.normal(size=(3, 3))
            op = build_operator(second_moment_analytic(deterministic(A)))
            rho = np.abs(np.linalg.eigvals(A)).max()
            assert abs(np.sqrt(spectral_radius(op, 1e-12)) - rho) < 1e-10

    @pytest.mark.parametrize("sig", [0.1, 0.5, 0.9, 1.2])
    def test_scalar_sigma_sweep(self, sig):
        op = build_operator(second_moment_analytic(scalar_noise(sig)))
        assert abs(np.sqrt(spectral_radius(op, 1e-12)) - sig) < 1e-10

    @pytest.mark.parametrize("period", [2, 3])
    def test_cyclic_switching_needs_no_dense_fallback(self, period, monkeypatch):
        op = build_operator(second_moment_analytic(block_cyclic(period, np.random.default_rng(period))))
        ev = np.linalg.eigvals(op.matrix)
        rho = float(np.abs(ev).max())
        # rho is not the only eigenvalue of largest modulus
        assert np.sum(np.abs(np.abs(ev) - rho) <= 1e-9 * rho) >= period
        monkeypatch.setattr(np.linalg, "eigvals", no_dense_eigvals)
        assert spectral_radius(op, 1e-10) == pytest.approx(rho, rel=1e-9)

    def test_nilpotent_stops_exactly(self, monkeypatch):
        # strictly upper triangular A: T^4 = 0, reached in a few steps
        A = np.triu(np.random.default_rng(8).normal(size=(4, 4)), 1)
        op = build_operator(second_moment_analytic(deterministic(A)))
        monkeypatch.setattr(np.linalg, "eigvals", no_dense_eigvals)
        assert spectral_radius(op, 1e-9) == 0.0

    def test_zero_system(self):
        op = build_operator(second_moment_analytic(deterministic(np.zeros((2, 2)))))
        assert np.sqrt(spectral_radius(op, 1e-9)) == 0.0


class TestCertificate:
    def test_scalar_closed_form(self):
        data = second_moment_analytic(scalar_noise(0.5))
        op = build_operator(data)
        P, _ = lyapunov_certificate(op, data, 0.6)
        assert P[0, 0] == pytest.approx(1.0 / (0.36 - 0.25), rel=1e-12)

    def test_truncated_series_oracle(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 3))
        A *= 0.8 / np.abs(np.linalg.eigvals(A)).max()
        data = second_moment_analytic(deterministic(A))
        op = build_operator(data)
        lam = 0.9
        P, _ = lyapunov_certificate(op, data, lam)
        series = np.zeros((3, 3))
        Ak = np.eye(3)
        for k in range(200):
            series += lam ** (-2 * (k + 1)) * Ak.T @ Ak
            Ak = A @ Ak
        assert np.allclose(P, series, rtol=1e-9, atol=1e-9)
        assert np.allclose(lam**2 * P - A.T @ P @ A, np.eye(3), atol=1e-9)

    def test_example1_feasible_above_min(self):
        data = second_moment_analytic(example1_model())
        op = build_operator(data)
        P, _ = lyapunov_certificate(op, data, 0.93)
        assert np.linalg.eigvalsh(P)[0] > 0
        resid = 0.93**2 * P - expected_quadratic(data, P)
        assert np.abs(resid - np.eye(3)).max() < 1e-8

    def test_example1_infeasible_below_min(self):
        data = second_moment_analytic(example1_model())
        op = build_operator(data)
        with pytest.raises(InfeasibleLambda):
            lyapunov_certificate(op, data, 0.90)

    def test_zero_system_certificate(self):
        data = second_moment_analytic(deterministic(np.zeros((2, 2))))
        op = build_operator(data)
        lam = 0.5
        P, _ = lyapunov_certificate(op, data, lam)
        assert np.allclose(P, np.eye(2) / lam**2, atol=1e-14)

    def test_feasibility_threshold_both_directions(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            A0 = rng.normal(size=(3, 3)) * 0.4
            A1 = rng.normal(size=(3, 3)) * 0.3
            model = AffineForm((A0, A1), DistributionSpec((Normal(0.0, 0.8),)))
            data = second_moment_analytic(model)
            op = build_operator(data)
            lam = np.sqrt(spectral_radius(op, 1e-10))
            P, _ = lyapunov_certificate(op, data, lam * 1.05)
            ok, _ = check_quadratic(data, P, lam * 1.05)
            assert ok
            with pytest.raises(InfeasibleLambda):
                lyapunov_certificate(op, data, lam * 0.95)


class TestCheckQuadratic:
    def test_zero_dynamics(self):
        data = second_moment_analytic(deterministic(np.zeros((2, 2))))
        ok, margin = check_quadratic(data, np.eye(2), 0.7)
        assert ok
        assert margin == pytest.approx(0.49, abs=1e-14)

    def test_certificate_margin_is_one(self):
        data = second_moment_analytic(example1_model())
        op = build_operator(data)
        P, _ = lyapunov_certificate(op, data, 0.95)
        ok, margin = check_quadratic(data, P, 0.95)
        assert ok
        assert margin == pytest.approx(1.0, abs=1e-8)

    def test_monotone_in_lambda(self):
        data = second_moment_analytic(example1_model())
        op = build_operator(data)
        P, _ = lyapunov_certificate(op, data, 0.93)
        ok1, m1 = check_quadratic(data, P, 0.93)
        ok2, m2 = check_quadratic(data, P, 0.99)
        assert ok1 and ok2 and m2 > m1

    def test_scale_invariant_boolean(self):
        data = second_moment_analytic(example1_model())
        op = build_operator(data)
        P, _ = lyapunov_certificate(op, data, 0.94)
        for c in (1e-6, 1.0, 1e6):
            assert check_quadratic(data, c * P, 0.94)[0]

    def test_infeasible_pair(self):
        data = second_moment_analytic(switched_scalar())
        ok, margin = check_quadratic(data, np.eye(1), 0.9)
        assert not ok and margin < 0


class TestSpecialCases:
    def test_degenerate_switching(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(2, 2))
        dist = DistributionSpec((Discrete((1.0, 2.0), (0.5, 0.5)),))
        model = SwitchedForm((A, A), dist)
        pairs = special_case_lmi(model)
        M1 = operator_from_pairs(pairs, 2)
        M2 = operator_from_pairs([(1.0, A)], 2)
        assert np.allclose(M1.matrix, M2.matrix, atol=1e-14)

    def test_multiplicative_noise_formula(self):
        rng = np.random.default_rng(4)
        A0, A1 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        v = 0.04
        model = AffineForm((A0, A1), DistributionSpec((Normal(0.0, 0.2),)))
        pairs = special_case_lmi(model)
        assert pairs[0][0] == 1.0
        assert pairs[1][0] == pytest.approx(v, rel=1e-12)
        M = operator_from_pairs(pairs, 2)
        expected = np.kron(A0, A0).T + v * np.kron(A1, A1).T
        assert np.allclose(M.matrix, expected, atol=1e-13)

    def test_matches_general_operator_switched(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(3))
        dist = DistributionSpec((Discrete((1.0, 2.0, 3.0), tuple(probs)),))
        model = SwitchedForm(tuple(rng.normal(size=(2, 2)) for _ in range(3)), dist)
        M_special = operator_from_pairs(special_case_lmi(model), 2)
        M_general = build_operator(second_moment_analytic(model))
        assert np.abs(M_special.matrix - M_general.matrix).max() < 1e-10

    def test_matches_general_operator_affine(self):
        rng = np.random.default_rng(6)
        dist = DistributionSpec((Normal(0.0, 0.5), Uniform(-0.4, 0.4)))
        model = AffineForm(tuple(rng.normal(size=(3, 3)) for _ in range(3)), dist)
        M_special = operator_from_pairs(special_case_lmi(model), 3)
        M_general = build_operator(second_moment_analytic(model))
        assert np.abs(M_special.matrix - M_general.matrix).max() < 1e-10

    def test_rejects_nonzero_mean(self):
        model = AffineForm(
            (np.eye(1), np.eye(1)), DistributionSpec((Normal(0.5, 1.0),))
        )
        with pytest.raises(UnsupportedForm):
            special_case_lmi(model)

    def test_rejects_poly(self):
        with pytest.raises(UnsupportedForm):
            special_case_lmi(example1_model())


class TestStabilityReport:
    def test_stable_example(self):
        rep = stability_report(second_moment_analytic(example1_model()), 1e-6)
        assert rep.stable
        assert rep.lambda_min == pytest.approx(0.92194, abs=1e-4)
        assert rep.P is not None
        assert np.linalg.eigvalsh(rep.P)[0] > 0
        assert rep.residual == pytest.approx(1.0, abs=1e-6)
        assert rep.lambda_cert < 1.0

    def test_unstable_example(self):
        rep = stability_report(second_moment_analytic(switched_scalar()), 1e-9)
        assert not rep.stable
        assert rep.P is None
        assert rep.lambda_min == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_report_serializes(self):
        import json

        rep = stability_report(second_moment_analytic(example1_model()))
        obj = rep.to_obj()
        json.dumps(obj)
        assert obj["stable"] is True
        assert obj["min_eig_P"] > 0
