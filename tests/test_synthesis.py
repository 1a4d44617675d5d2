"""Synthesis LMI assembly, feasibility backends, bisection, verification."""

import numpy as np
import pytest

from stochlyap import synthesis
from stochlyap.analysis import check_quadratic
from stochlyap.demo_models import example2_model
from stochlyap.dist import Constant, Discrete, DistributionSpec, Normal, Uniform
from stochlyap.errors import (
    AnalysisOnlyModel,
    BackendFailure,
    NotStabilizable,
)
from stochlyap.moments import (
    closed_loop_second_moment,
    factorize,
    second_moment_analytic,
    second_moment_mc,
)
from stochlyap import sdpa
from stochlyap.synthesis import (
    _x_index_pairs,
    assemble,
    check_infeasibility,
    closed_loop_rate,
    join_vars,
    solve_feasibility,
    split_vars,
    synthesize_min_lambda,
    verify_gain,
)
from stochlyap.sysmodel import AffineForm, SwitchedForm

from synthesis_oracles import candidate_gains


def det_pair(A, B):
    A = np.atleast_2d(np.asarray(A, float))
    B = np.atleast_2d(np.asarray(B, float))
    if B.shape[0] != A.shape[0]:
        B = B.T
    dist = DistributionSpec((Constant(0.0),))
    return AffineForm((A, np.zeros_like(A)), dist, (B, np.zeros_like(B)))


def scalar_noise_pair(sig=0.5):
    dist = DistributionSpec((Normal(0.0, sig),))
    return AffineForm(
        (np.zeros((1, 1)), np.eye(1)), dist, (np.eye(1), np.zeros((1, 1)))
    )


def solve_parsed_sdpa(path):
    """Independent feasibility check: parse the exported file, hand it to cvxpy."""
    cvxpy = pytest.importorskip("cvxpy", reason="external SDP solver unavailable")
    c, F, sizes = sdpa.read_problem(path)
    nvars = len(F) - 1
    x = cvxpy.Variable(nvars)
    t = cvxpy.Variable()
    cons = []
    for blk in range(len(sizes)):
        expr = -F[0][blk] + sum(x[a] * F[a + 1][blk] for a in range(nvars))
        cons.append(expr >> t * np.eye(sizes[blk]))
    cons.append(cvxpy.norm(x) <= 1.0)
    prob = cvxpy.Problem(cvxpy.Maximize(t), cons)
    try:
        prob.solve(solver=cvxpy.CLARABEL)
    except Exception:
        prob.solve(solver=cvxpy.SCS, eps_abs=1e-9, eps_rel=1e-9, max_iters=200_000)
    if prob.status not in ("optimal", "optimal_inaccurate"):
        raise RuntimeError(f"cvxpy status {prob.status}")
    return t.value > 0.0


def dense_blocks(factors, lam):
    """Dense coefficient blocks ``S_a`` of the synthesis inequality, one per variable.

    Oracle for the entry list: every block is built in full from the
    block formula ``[[lam^2 E, (GpA E)^T], [GpA E, E kron I_w]]`` for the
    elementary symmetric ``E`` of each X variable, and the off-diagonal
    ``GpB E`` for each Y variable.
    """
    n, m = factors.n, factors.m
    w = (n + m) * n
    D = n + w * n
    blocks = []
    for i, j in _x_index_pairs(n):
        E = np.zeros((n, n))
        E[i, j] += 1.0
        E[j, i] += 1.0 if i != j else 0.0
        S = np.zeros((D, D))
        S[:n, :n] = lam**2 * E
        S[n:, :n] = factors.gpa @ E
        S[:n, n:] = S[n:, :n].T
        S[n:, n:] = np.kron(E, np.eye(w))
        blocks.append(S)
    for q in range(m):
        for j in range(n):
            E = np.zeros((m, n))
            E[q, j] = 1.0
            S = np.zeros((D, D))
            S[n:, :n] = factors.gpb @ E
            S[:n, n:] = S[n:, :n].T
            blocks.append(S)
    return np.stack(blocks)


def random_noisy_pair(rng, n, m):
    """Affine model with noise on A and B, so that every factor column is nonzero."""
    dist = DistributionSpec((Normal(0.0, 1.0), Uniform(-1.0, 1.0)))
    return AffineForm(tuple(rng.normal(size=(n, n)) for _ in range(3)), dist,
                      tuple(rng.normal(size=(n, m)) for _ in range(3)))


class TestAssemble:
    def test_hand_assembly_scalar(self):
        data = second_moment_analytic(det_pair([[0.5]], [[1.0]]))
        f = factorize(data)
        problem = assemble(f, 1.0, margin=1e-8)
        v = join_vars(np.array([[1.0]]), np.array([[0.0]]))
        M = problem.assemble_at(v)
        ga = f.gpa  # 2x1 stack
        expected = np.block([[np.eye(1), ga.T], [ga, np.eye(2)]])
        assert np.allclose(M, expected, atol=1e-14)

    def test_zero_variables_zero_matrix(self):
        data = second_moment_analytic(scalar_noise_pair())
        problem = assemble(factorize(data), 0.9, margin=1e-6)
        assert np.array_equal(problem.assemble_at(np.zeros(problem.num_vars)),
                              np.zeros((problem.dim, problem.dim)))

    def test_assembled_matrix_symmetric(self):
        rng = np.random.default_rng(0)
        model = det_pair(rng.normal(size=(3, 3)), rng.normal(size=(3, 1)))
        problem = assemble(factorize(second_moment_analytic(model)), 0.8, 1e-6)
        v = rng.normal(size=problem.num_vars)
        M = problem.assemble_at(v)
        assert np.array_equal(M, M.T)

    def test_analysis_only_rejected(self):
        model = AffineForm((np.eye(1), np.eye(1)), DistributionSpec((Normal(0, 1),)))
        with pytest.raises(AnalysisOnlyModel):
            assemble(factorize(second_moment_analytic(model)), 0.9, 1e-6)

    def test_schur_complement_equivalence(self):
        # Schur-complement oracle: the block matrix at (X, Y) = (P^-1, F P^-1)
        # is PD exactly when the quadratic margin of (P, F) is positive.
        rng = np.random.default_rng(1)
        hits = {True: 0, False: 0}
        for trial in range(20):
            model = det_pair(rng.normal(size=(2, 2)) * 0.8, rng.normal(size=(2, 1)))
            data = second_moment_analytic(model)
            factors = factorize(data)
            lam = rng.uniform(0.5, 1.2)
            F = rng.normal(size=(1, 2))
            R = rng.normal(size=(2, 2))
            P = R @ R.T + 0.1 * np.eye(2)
            cl = closed_loop_second_moment(data, F)
            _, margin = check_quadratic(cl, P, lam)
            X = np.linalg.inv(P)
            problem = assemble(factors, lam, margin=0.0)
            M = problem.assemble_at(join_vars(X, F @ X))
            block_pd = np.linalg.eigvalsh(M)[0] > 0
            assert block_pd == (margin > 0), f"trial {trial}"
            hits[block_pd] += 1
        assert hits[True] >= 3 and hits[False] >= 3


class TestEntryList:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_oracle(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        factors = factorize(second_moment_analytic(random_noisy_pair(rng, n, m)))
        lam = float(rng.uniform(0.3, 1.2))
        problem = assemble(factors, lam, margin=1e-7)
        S = dense_blocks(factors, lam)
        assert (problem.num_vars, problem.dim) == S.shape[:2]
        b = problem.basis
        assert np.all(b["row"] <= b["col"]) and np.all(b["val"] != 0.0)
        D = problem.dim
        key = (b["var"].astype(np.int64) * D + b["row"]) * D + b["col"]
        assert np.all(np.diff(key) > 0)  # sorted by (var, row, col), no repeats
        for _ in range(3):
            v = rng.normal(size=problem.num_vars)
            assert np.allclose(problem.assemble_at(v), np.tensordot(v, S, axes=1),
                               rtol=0, atol=1e-12)
        path = str(tmp_path / "prob.dat-s")
        sdpa.write_problem(problem, path)
        _, F, _ = sdpa.read_problem(path)
        for a in range(problem.num_vars):
            assert np.array_equal(F[a + 1][0], S[a])

    def test_memory_scales_with_nonzeros(self):
        # 2-mode switched n=16, m=1: the dense basis would be 152 x 4368^2 doubles (23 GB)
        rng = np.random.default_rng(7)
        dist = DistributionSpec((Discrete((1.0, 2.0), (0.4, 0.6)),))
        model = SwitchedForm(tuple(rng.normal(size=(16, 16)) for _ in range(2)), dist,
                             tuple(rng.normal(size=(16, 1)) for _ in range(2)))
        problem = assemble(factorize(second_moment_analytic(model)), 0.9, 1e-6)
        assert problem.dim == 4368
        assert problem.basis.nbytes < 50e6


class TestSolveFeasibility:
    def test_scalar_feasibility_region(self):
        data = second_moment_analytic(det_pair([[0.5]], [[1.0]]))
        problem = assemble(factorize(data), 0.99, 1e-8)
        res = solve_feasibility(problem)
        assert res.feasible
        F = res.Y @ np.linalg.inv(res.X)
        assert abs(0.5 + F[0, 0]) < 0.99

    def test_contract_on_returned_point(self):
        data = second_moment_analytic(scalar_noise_pair(0.5))
        problem = assemble(factorize(data), 0.7, margin=1e-6)
        res = solve_feasibility(problem)
        assert res.feasible
        M = problem.assemble_at(join_vars(res.X, res.Y))
        assert np.linalg.eigvalsh(M)[0] >= problem.margin / 2
        assert np.linalg.eigvalsh(res.X)[0] >= problem.margin / 2

    def test_uncontrollable_infeasible(self):
        data = second_moment_analytic(det_pair([[2.0]], [[0.0]]))
        problem = assemble(factorize(data), 0.999, 1e-8)
        res = solve_feasibility(problem)
        assert res.status == "infeasible"
        assert res.mu < 0 and check_infeasibility(problem, res.W, res.mu)

    @pytest.mark.parametrize("tamper", ["off_diagonal", "mu_sign"])
    def test_tampered_certificate_rejected(self, tamper):
        data = second_moment_analytic(det_pair([[2.0]], [[0.0]]))
        problem = assemble(factorize(data), 0.999, 1e-8)
        res = solve_feasibility(problem)
        W, mu = res.W.copy(), res.mu
        if tamper == "off_diagonal":
            # still symmetric, PSD and of unit trace: only tr(W S_a) = mu c_a can reject it
            W[0, 1] += 1e-3
            W[1, 0] += 1e-3
            assert np.linalg.eigvalsh(W)[0] > 0 and abs(np.trace(W) - 1.0) < 1e-12
        else:
            mu = -mu
        assert not check_infeasibility(problem, W, mu)

    def test_homogeneity_of_returned_point(self):
        data = second_moment_analytic(det_pair([[0.6]], [[1.0]]))
        problem = assemble(factorize(data), 0.95, 1e-6)
        res = solve_feasibility(problem)
        M2 = problem.assemble_at(2.0 * join_vars(res.X, res.Y))
        assert np.linalg.eigvalsh(M2)[0] >= problem.margin  # margin doubles

    def test_cold_start_interior_point(self):
        data = second_moment_analytic(det_pair([[0.9]], [[1.0]]))
        problem = assemble(factorize(data), 0.35, 1e-6)
        res = solve_feasibility(problem)
        assert res.feasible and res.iterations > 0
        F = res.Y @ np.linalg.inv(res.X)
        assert abs(0.9 + F[0, 0]) < 0.35 + 1e-6

    def test_split_join_round_trip(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(3, 3))
        X = X + X.T
        Y = rng.normal(size=(2, 3))
        X2, Y2 = split_vars(join_vars(X, Y), 3, 2)
        assert np.array_equal(X, X2) and np.array_equal(Y, Y2)

    def test_unknown_backend(self):
        data = second_moment_analytic(det_pair([[0.5]], [[1.0]]))
        problem = assemble(factorize(data), 0.9, 1e-6)
        with pytest.raises(BackendFailure):
            solve_feasibility(problem, backend="magic")


class TestSdpaExport:
    def make_problem(self, lam=0.9):
        rng = np.random.default_rng(3)
        model = det_pair(rng.normal(size=(2, 2)) * 0.6, rng.normal(size=(2, 1)))
        data = second_moment_analytic(model)
        return assemble(factorize(data), lam, margin=1e-7), data

    def test_round_trip_blocks(self, tmp_path):
        problem, _ = self.make_problem()
        path = str(tmp_path / "prob.dat-s")
        sdpa.write_problem(problem, path)
        c, F, sizes = sdpa.read_problem(path)
        assert sizes == [problem.dim, problem.n]
        assert np.array_equal(c, np.zeros(problem.num_vars))
        assert np.allclose(F[0][0], problem.margin * np.eye(problem.dim))
        assert np.allclose(F[0][1], problem.margin * np.eye(problem.n))
        eye = np.eye(problem.num_vars)
        for a in range(problem.num_vars):
            assert np.allclose(F[a + 1][0], problem.assemble_at(eye[a]), atol=0)
        # X block coefficients: elementary symmetric for X vars, zero for Y
        assert np.allclose(F[1][1], np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert np.allclose(F[problem.num_vars][1], 0.0)

    def test_zero_margin_writes_no_constant(self, tmp_path):
        problem, data = self.make_problem()
        zero = assemble(factorize(data), problem.lam, margin=0.0)
        path = tmp_path / "zero.dat-s"
        sdpa.write_problem(zero, str(path))
        lines = path.read_text().splitlines()
        assert not any(line.startswith("0 ") for line in lines)
        _, F, _ = sdpa.read_problem(str(path))
        assert not F[0][0].any() and not F[0][1].any()

    def test_export_backend_statuses(self, tmp_path):
        problem, _ = self.make_problem()
        path = str(tmp_path / "prob.dat-s")
        res = solve_feasibility(problem, backend=f"sdpa-export:{path}")
        assert res.status == "exported"
        import os

        assert os.path.exists(path)

    def test_solution_reimport(self, tmp_path):
        problem, _ = self.make_problem(lam=0.95)
        ref = solve_feasibility(problem)
        assert ref.feasible
        v = join_vars(ref.X, ref.Y)
        sol = tmp_path / "prob.out"
        body = ",".join(f"{x:.17g}" for x in v)
        sol.write_text(f"objValPrimal = 0\nxVec = \n{{{body}}}\n")
        path = str(tmp_path / "prob.dat-s")
        res = solve_feasibility(problem, backend=f"sdpa-export:{path}:{sol}")
        assert res.feasible
        assert np.allclose(res.Y @ np.linalg.inv(res.X), ref.Y @ np.linalg.inv(ref.X))

    def test_bad_solution_rejected(self, tmp_path):
        problem, _ = self.make_problem(lam=0.95)
        sol = tmp_path / "bad.out"
        nv = problem.num_vars
        sol.write_text("xVec = {" + ",".join(["0.0"] * nv) + "}\n")
        with pytest.raises(BackendFailure):
            solve_feasibility(problem, backend=f"sdpa-export:{tmp_path / 'p.dat-s'}:{sol}")

    def test_reader_plain_floats(self, tmp_path):
        sol = tmp_path / "plain.txt"
        sol.write_text("1.5 -2.0 3e-1\n")
        v = sdpa.read_solution_vector(str(sol), 3)
        assert np.array_equal(v, [1.5, -2.0, 0.3])

    def test_external_solver_agrees(self, tmp_path):
        # noise the gain cannot cancel keeps the optimal rate well above 0
        rng = np.random.default_rng(8)
        model = AffineForm(
            (rng.normal(size=(2, 2)) * 0.6, rng.normal(size=(2, 2)) * 0.4),
            DistributionSpec((Normal(0.0, 1.0),)),
            (rng.normal(size=(2, 1)), np.zeros((2, 1))),
        )
        data = second_moment_analytic(model)
        factors = factorize(data)
        gains = candidate_gains(data)
        rate = min(closed_loop_rate(factors, F) for F in gains)
        assert rate > 0.05  # guards against a degenerate deadbeat draw
        # probe comfortably above and below the achievable optimum
        for lam, expected in ((rate * 1.2, True), (rate * 0.8, False)):
            problem = assemble(factors, lam, margin=1e-7)
            path = str(tmp_path / f"prob_{expected}.dat-s")
            sdpa.write_problem(problem, path)
            external = solve_parsed_sdpa(path)
            ref = solve_feasibility(problem).feasible
            assert ref == external == expected


class TestSynthesizeMinLambda:
    def test_scalar_noise_optimum(self):
        # closed loop (xi + F): E[(xi+F)^2] = sig^2 + F^2, minimized at F = 0
        model = scalar_noise_pair(0.5)
        data = second_moment_analytic(model)
        result = synthesize_min_lambda(model, data, lambda_tol=1e-3)
        assert 0.5 <= result.lam <= 0.52
        assert abs(result.F[0, 0]) < 0.05
        assert result.closed_loop_report.lambda_min <= result.lam + 5e-3

    def test_deadbeat_reachable(self):
        model = det_pair(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
        data = second_moment_analytic(model)
        result = synthesize_min_lambda(model, data, lambda_tol=1e-3)
        assert result.lam <= 0.1

    def test_not_stabilizable(self):
        model = det_pair([[2.0]], [[0.0]])
        data = second_moment_analytic(model)
        with pytest.raises(NotStabilizable) as info:
            synthesize_min_lambda(model, data, lambda_tol=1e-3)
        assert info.value.diagnostic_lambda is None or info.value.diagnostic_lambda > 1

    def test_diagnostic_lambda_between_one_and_two(self):
        # rho(A) = 1.5 deterministic with full authority: stabilizable in
        # the wide sense only at rates above... full authority makes it
        # stabilizable; remove authority in one direction instead
        model = det_pair(np.diag([1.5, 0.5]), np.array([[0.0], [1.0]]))
        data = second_moment_analytic(model)
        with pytest.raises(NotStabilizable) as info:
            synthesize_min_lambda(model, data, lambda_tol=1e-3)
        assert info.value.diagnostic_lambda is not None
        assert 1.0 < info.value.diagnostic_lambda <= 2.0

    def test_trace_recorded(self):
        model = scalar_noise_pair(0.3)
        data = second_moment_analytic(model)
        result = synthesize_min_lambda(model, data, lambda_tol=1e-3)
        assert result.trace[0][0] == 1.0 and result.trace[0][1]
        lams = [t[0] for t in result.trace]
        assert min(lams) >= 0.0 and result.lam in lams

    def test_lambda_tol_validation(self):
        model = scalar_noise_pair()
        data = second_moment_analytic(model)
        with pytest.raises(Exception):
            synthesize_min_lambda(model, data, lambda_tol=0.5)

    def test_soundness_small_suite(self):
        rng = np.random.default_rng(13)
        done = 0
        while done < 5:
            n = int(rng.integers(2, 4))
            model = det_pair(rng.normal(size=(n, n)), rng.normal(size=(n, 1)))
            data = second_moment_analytic(model)
            try:
                result = synthesize_min_lambda(model, data, lambda_tol=1e-3)
            except NotStabilizable:
                continue
            rep = verify_gain(data, result.F)
            assert rep.lambda_min <= result.lam + 5e-3
            # change-of-variables round trip: P = X^-1 certifies the rate
            P = np.linalg.inv(result.X)
            cl = closed_loop_second_moment(data, result.F)
            ok, _ = check_quadratic(cl, P, result.lam)
            assert ok
            done += 1


class TestExample2Bisection:
    @pytest.mark.parametrize("seed", [13, 14, 19])
    def test_rate_within_tolerance_of_gain(self, seed, monkeypatch):
        # the gain's own rate is at least the optimum, so a returned rate more
        # than lambda_tol above it means a feasible probe was called infeasible
        probes = []
        solve = synthesis.solve_feasibility

        def recording(problem, backend="ref"):
            res = solve(problem, backend)
            probes.append((problem, res))
            return res

        monkeypatch.setattr(synthesis, "solve_feasibility", recording)
        model = example2_model()
        data = second_moment_mc(model, 200_000, seed)
        result = synthesize_min_lambda(model, data, lambda_tol=1e-3)
        assert result.lam - 1e-3 <= result.closed_loop_report.lambda_min <= result.lam
        for problem, res in probes:
            assert res.feasible or check_infeasibility(problem, res.W, res.mu)


class TestVerifyGain:
    def test_zero_gain_equals_open_loop(self):
        model = scalar_noise_pair(0.5)
        data = second_moment_analytic(model)
        rep = verify_gain(data, np.zeros((1, 1)))
        assert rep.lambda_min == pytest.approx(0.5, abs=1e-9)

    def test_switched_brute_force(self):
        dist = DistributionSpec((Discrete((1.0, 2.0), (0.3, 0.7)),))
        A = (np.array([[0.5, 0.2], [0.0, 0.4]]), np.array([[0.1, 0.0], [0.3, 0.6]]))
        B = (np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
        model = SwitchedForm(A, dist, B)
        data = second_moment_analytic(model)
        rng = np.random.default_rng(4)
        F = rng.normal(size=(1, 2))
        rep = verify_gain(data, F, tol=1e-10)
        # mode-enumeration oracle for the closed-loop operator
        M = np.zeros((4, 4))
        for p, Ai, Bi in zip((0.3, 0.7), A, B):
            Acl = Ai + Bi @ F
            M += p * np.kron(Acl, Acl).T
        rho = np.abs(np.linalg.eigvals(M)).max()
        assert rep.lambda_min == pytest.approx(np.sqrt(rho), abs=1e-9)

    def test_candidate_gains_include_strong_one(self):
        model = det_pair(np.array([[0.0, 1.0], [0.2, 0.1]]), np.array([[0.0], [1.0]]))
        data = second_moment_analytic(model)
        factors = factorize(data)
        gains = candidate_gains(data)
        best = min(closed_loop_rate(factors, F) for F in gains)
        assert best < 0.3
