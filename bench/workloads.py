"""The four benchmark workloads: inputs from a seed, one timed pass, oracle checks.

Each workload's constructor builds its inputs (this is the set-up that
``setup_s`` measures).  ``run_pass`` makes the timed calls into stochlyap
and returns the outputs together with the seconds spent in each stage;
``check`` compares one pass's outputs with ``oracles`` and returns the
list of disagreements.  ``OPS`` counts the library calls of one pass, and
``items`` is the workload's unit of work for ``items_per_s``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import scipy.linalg

import oracles
from stochlyap import analysis, cli, demo_models, moments, simulate, synthesis
from stochlyap.dist import Discrete, DistributionSpec, Normal, Uniform
from stochlyap.sysmodel import AffineForm, SwitchedForm

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class Failed(Exception):
    """A library call raised; carries how many calls of the pass were left undone."""

    def __init__(self, undone: int, cause: BaseException):
        super().__init__(f"{type(cause).__name__}: {cause}")
        self.undone = undone


class Workload:
    """Interface of the workloads below; ``cleanup`` removes files the inputs wrote."""

    OPS: int

    def run_pass(self):
        raise NotImplementedError

    def cleanup(self):
        pass


class Pass:
    """Times the stages of one pass and counts its library calls."""

    def __init__(self, ops: int):
        self.ops = ops
        self.done = 0
        self.stages: dict[str, float] = {}

    def call(self, stage: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # the run reports it as a failed operation
            raise Failed(self.ops - self.done, exc) from exc
        self.stages[stage] = self.stages.get(stage, 0.0) + time.perf_counter() - t0
        self.done += 1
        return out


def _example1_kron(model):
    """``E[A kron A]`` of Example 1 by 3 x 3 Gauss quadrature.

    Example 1 draws xi_1 ~ N(0, 0.2^2) and xi_2 ~ U(-0.5, 0.5) and its
    entries have degree <= 2, so three nodes per coordinate are exact.
    """
    rules = [oracles.gauss_normal(0.0, 0.2), oracles.gauss_uniform(-0.5, 0.5)]
    return oracles.kron_quadrature(lambda xi: model.evaluate_block(xi)[0], rules)


def _close(name, got, want, tol, errors):
    if not abs(got - want) <= tol:
        errors.append(f"{name}: {got!r} vs oracle {want!r} (tol {tol:g})")


# ---------------------------------------------------------------- example1-ensemble

class Example1Ensemble(Workload):
    """Example 1: analytic moments, stability report, seeded ensemble (repro-example1)."""

    PATHS = 50_000
    STEPS = 100
    TOL = 1e-6
    OPS = 3
    X0 = (1.0, 0.0, 0.0)

    def __init__(self, seed: int):
        self.seed = seed
        self.model = demo_models.example1_model()
        self.x0 = np.array(self.X0)

    def items(self, stages):
        return self.PATHS * self.STEPS / stages["ensemble"]

    def run_pass(self):
        p = Pass(self.OPS)
        data = p.call("moments", moments.second_moment_analytic, self.model)
        report = p.call("analysis", analysis.stability_report, data, self.TOL)
        ens = p.call("ensemble", simulate.run_ensemble, self.model, self.x0, self.STEPS,
                     self.PATHS, self.seed, store_paths=True)
        return {"report": report, "ens": ens}, p.stages

    def fingerprint(self, out):
        return (out["report"].lambda_min, out["ens"].rms.tobytes())

    def check(self, out):
        errors = []
        K = _example1_kron(self.model)
        rep = out["report"]
        lam = np.sqrt(oracles.spectral_radius(K))
        _close("lambda_min", rep.lambda_min, lam, self.TOL, errors)
        if not rep.stable:
            errors.append("Example 1 reported unstable")
        else:
            p_min, r_min = oracles.certificate_margins(K, rep.P, rep.lambda_cert)
            if not (p_min > 0 and r_min > 0):
                errors.append(f"certificate fails under the oracle: {p_min:.3g}, {r_min:.3g}")
        ens = out["ens"]
        exact = oracles.mean_square_curve(K, self.x0, self.STEPS)
        sq = ens.path_sq[:, 1:]
        se = sq.std(axis=0, ddof=1) / np.sqrt(ens.n_paths) / (2.0 * ens.rms[1:])
        z = np.abs(ens.rms[1:] - exact[1:]) / se
        if ens.overflow_paths or not z.max() <= 5.0:
            errors.append(f"ensemble off the exact curve: max z {z.max():.2f}, "
                          f"overflow {ens.overflow_paths}")
        return errors


# ---------------------------------------------------------------- example2-sampled-synthesis

class Example2SampledSynthesis(Workload):
    """Example 2: MC moments, rate bisection, verification, intersample check (repro-example2)."""

    SAMPLES = 200_000
    LAMBDA_TOL = 1e-3
    PATHS = 100
    HORIZON = 10.0
    #: standard errors of the MC rate allowed between the exact and the achieved rate
    RATE_Z = 4.0
    OPS = 2 + PATHS

    def __init__(self, seed: int):
        self.seed = seed
        self.sim_seed = seed + 1
        self.model = demo_models.example2_model()

    def items(self, stages):
        return self.SAMPLES / stages["moments"]

    def run_pass(self):
        p = Pass(self.OPS)
        data = p.call("moments", moments.second_moment_mc, self.model, self.SAMPLES, self.seed)
        res = p.call("synthesis", synthesis.synthesize_min_lambda, self.model, data,
                     lambda_tol=self.LAMBDA_TOL)
        ratios = [float(np.linalg.norm(p.call("intersample", cli._final_state, self.model,
                                              res.F, self.sim_seed, k, self.HORIZON)))
                  for k in range(self.PATHS)]
        return {"data": data, "res": res, "ratios": ratios}, p.stages

    def fingerprint(self, out):
        return (out["data"].g2.tobytes(), out["res"].F.tobytes(), tuple(out["ratios"]))

    def check(self, out):
        errors = []
        data, res = out["data"], out["res"]
        plant = self.model.plant
        rate = self.model.dist.coords[0].rate
        g2, G_exact = oracles.zoh_moments(plant.A_c, plant.B_c, self.model.offset, rate)
        gap = float(np.abs(data.g2 - g2).max())
        if not gap <= 5.0 * data.method.max_entry_stderr:
            errors.append(f"MC g2 off the exact g2 by {gap:.3g}, "
                          f"stderr {data.method.max_entry_stderr:.3g}")
        G_mc = oracles.g2_tensor(data.g2, data.n, data.m)
        rate_mc = oracles.closed_loop_rate(G_mc, res.F)
        rate_exact = oracles.closed_loop_rate(G_exact, res.F)
        _close("closed-loop rate on the MC data", res.closed_loop_report.lambda_min,
               rate_mc, 1e-6, errors)
        if not rate_mc <= res.lam:
            errors.append(f"gain misses the achieved rate {res.lam} on its own data: {rate_mc}")
        if not rate_exact < 1.0:
            errors.append(f"gain does not stabilize: exact rate {rate_exact}")
        # the MC error of the rate comes from the exact second and fourth moments
        fourth = oracles.zoh_fourth_moments(plant.A_c, plant.B_c, self.model.offset, rate)
        sigma = oracles.closed_loop_rate_stderr(G_exact, fourth, res.F, self.SAMPLES)
        _close("exact closed-loop rate against the achieved rate", rate_exact, res.lam,
               self.LAMBDA_TOL + self.RATE_Z * sigma, errors)
        if not max(out["ratios"]) <= 1e-2:
            errors.append(f"intersample final ratio {max(out['ratios']):.3g} > 1e-2")
        return errors


# ---------------------------------------------------------------- analysis-sweep

# the three affine coordinates and their (mean, second raw moment), in closed form
_AFFINE_COORDS = (Normal(0.2, 0.5), Uniform(-0.5, 1.0), Discrete((-1.0, 2.0), (0.6, 0.4)))
_AFFINE_RAW = ((0.2, 0.5**2 + 0.2**2),
               (0.25, (0.5**2 - 0.5 * 1.0 + 1.0**2) / 3.0),
               (0.6 * -1.0 + 0.4 * 2.0, 0.6 * 1.0 + 0.4 * 4.0))


def _affine_phi2():
    return oracles.raw_moment_matrix([m for m, _ in _AFFINE_RAW], [s for _, s in _AFFINE_RAW])


def _scale_affine(mats, phi2, target, bound):
    """Scale so that ``T(I) = E[A^T A]`` has the given norm or least eigenvalue.

    For the positive map ``T``, ``lambda_min(T(I)) <= rho(T) <= ||T(I)||``,
    so ``bound="upper"`` makes the rate at most ``target`` and
    ``bound="lower"`` makes it at least ``target``.
    """
    TI = sum(phi2[a, b] * Ma.T @ Mb for a, Ma in enumerate(mats) for b, Mb in enumerate(mats))
    ev = np.linalg.eigvalsh((TI + TI.T) / 2.0)
    c = target / np.sqrt(ev[-1] if bound == "upper" else ev[0])
    return [c * M for M in mats]


def _scale_modes(modes, probs, target):
    TI = sum(p * A.T @ A for p, A in zip(probs, modes))
    c = target / np.sqrt(np.linalg.eigvalsh(TI)[-1])
    return [c * A for A in modes]


class AnalysisSweep(Workload):
    """Seeded analysis-only models, each taken to a certified verdict."""

    TOL = 1e-6
    N_AFFINE = 8
    N_SWITCHED = 24
    PROBS = (0.1, 0.2, 0.3, 0.4)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed % 2**64)
        dist = DistributionSpec(_AFFINE_COORDS)
        phi2 = _affine_phi2()
        n = self.N_AFFINE
        self.models = {}
        self.kron = {}
        for label, target, bound in (("affine-stable", 0.97, "upper"),
                                     ("affine-unstable", 1.03, "lower")):
            mats = [rng.normal(size=(n, n)) / np.sqrt(n)]
            mats += [0.5 * rng.normal(size=(n, n)) / np.sqrt(n) for _ in range(3)]
            mats = _scale_affine(mats, phi2, target, bound)
            self.models[label] = AffineForm(tuple(mats), dist)
            self.kron[label] = lambda mats=mats: oracles.kron_affine(mats, phi2)
        modes_dist = DistributionSpec((Discrete((1.0, 2.0, 3.0, 4.0), self.PROBS),))
        N, h = self.N_SWITCHED, self.N_SWITCHED // 2
        plain = [rng.normal(size=(N, N)) / np.sqrt(N) for _ in self.PROBS]
        bipartite = []
        for _ in self.PROBS:
            A = np.zeros((N, N))
            A[:h, h:] = rng.normal(size=(h, h)) / np.sqrt(h)
            A[h:, :h] = rng.normal(size=(h, h)) / np.sqrt(h)
            bipartite.append(A)
        for label, modes in (("switched", plain), ("bipartite", bipartite)):
            modes = _scale_modes(modes, self.PROBS, 0.95)
            self.models[label] = SwitchedForm(tuple(modes), modes_dist)
            self.kron[label] = lambda modes=modes: oracles.kron_switched(modes, self.PROBS)
        ex1 = demo_models.example1_model()
        self.models["example1"] = ex1
        self.kron["example1"] = lambda: _example1_kron(ex1)
        self.OPS = 2 * len(self.models)

    def items(self, stages):
        return len(self.models) / sum(stages.values())

    def run_pass(self):
        p = Pass(self.OPS)
        reports = {}
        for label, model in self.models.items():
            data = p.call("moments", moments.second_moment_analytic, model)
            reports[label] = p.call("analysis", analysis.stability_report, data, self.TOL)
        return {"reports": reports}, p.stages

    def fingerprint(self, out):
        return tuple((r.stable, r.lambda_min) for r in out["reports"].values())

    def check(self, out):
        errors = []
        verdicts = set()
        for label, rep in out["reports"].items():
            K = self.kron[label]()
            lam = np.sqrt(oracles.spectral_radius(K))
            _close(f"{label} lambda_min", rep.lambda_min, lam, self.TOL, errors)
            if rep.stable != (lam < 1.0):
                errors.append(f"{label}: verdict stable={rep.stable}, oracle rate {lam}")
            verdicts.add(rep.stable)
            if rep.stable:
                p_min, r_min = oracles.certificate_margins(K, rep.P, rep.lambda_cert)
                if not (p_min > 0 and r_min > 0 and rep.lambda_cert >= lam):
                    errors.append(f"{label}: certificate fails under the oracle "
                                  f"({p_min:.3g}, {r_min:.3g}, {rep.lambda_cert})")
        if verdicts != {True, False}:
            errors.append(f"sweep lacks a stable or an unstable verdict: {verdicts}")
        return errors


# ---------------------------------------------------------------- affine-lmi-export

class AffineLmiExport(Workload):
    """Affine n=10, m=1, Z=3: factorize, assemble, SDPA export and re-import of a certified point."""

    N = 10
    M = 1
    OPS = 4
    RATE_CAP = 0.95

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed % 2**64)
        n, m = self.N, self.M
        A0 = rng.normal(size=(n, n))
        A0 *= 1.05 / np.abs(np.linalg.eigvals(A0)).max()
        B0 = rng.normal(size=(n, m))
        a_noise = [0.05 * rng.normal(size=(n, n)) for _ in range(3)]
        b_noise = [0.02 * rng.normal(size=(n, m)) for _ in range(3)]
        # the benchmark's own certified point: an LQR gain for the mean system, with
        # the noise shrunk until the exact closed-loop rate is at most RATE_CAP, then
        # X = P^{-1}, Y = F X at a rate between that and 1
        phi2 = _affine_phi2()
        mean = [mu for mu, _ in _AFFINE_RAW]
        for _ in range(40):
            a_mats, b_mats = [A0] + a_noise, [B0] + b_noise
            Abar = A0 + sum(w * M_ for w, M_ in zip(mean, a_noise))
            Bbar = B0 + sum(w * M_ for w, M_ in zip(mean, b_noise))
            S = scipy.linalg.solve_discrete_are(Abar, Bbar, np.eye(n), np.eye(m))
            self.F = -np.linalg.solve(np.eye(m) + Bbar.T @ S @ Bbar, Bbar.T @ S @ Abar)
            cl = [A + B @ self.F for A, B in zip(a_mats, b_mats)]
            self.kron_cl = oracles.kron_affine(cl, phi2)
            self.rate_cl = float(np.sqrt(oracles.spectral_radius(self.kron_cl)))
            if self.rate_cl <= self.RATE_CAP:
                break
            a_noise = [0.7 * M_ for M_ in a_noise]
            b_noise = [0.7 * M_ for M_ in b_noise]
        else:
            raise RuntimeError(f"no certified gain with rate <= {self.RATE_CAP} for seed {seed}")
        self.model = AffineForm(tuple(a_mats), DistributionSpec(_AFFINE_COORDS), tuple(b_mats))
        self.lam = (self.rate_cl + 1.0) / 2.0
        P = oracles.lyapunov_solution(self.kron_cl, self.lam)
        X = np.linalg.inv(P)
        X /= np.linalg.eigvalsh(X)[0]
        iu = np.triu_indices(n)
        self.x = np.concatenate([X[iu], (self.F @ X).ravel()])
        os.makedirs(OUT_DIR, exist_ok=True)
        tag = f"lmi-{seed}-{os.getpid()}"
        self.problem_path = os.path.join(OUT_DIR, f"{tag}.dat-s")
        self.solution_path = os.path.join(OUT_DIR, f"{tag}.sol")
        with open(self.solution_path, "w") as f:
            f.write("xVec = {" + ",".join(f"{v:.17g}" for v in self.x) + "}\n")

    def items(self, stages):
        return 1.0 / (stages["factorize"] + stages["assemble"] + stages["export"])

    def run_pass(self):
        p = Pass(self.OPS)
        data = p.call("moments", moments.second_moment_analytic, self.model)
        factors = p.call("factorize", moments.factorize, data)
        problem = p.call("assemble", synthesis.assemble, factors, self.lam,
                         synthesis.default_margin(data))
        backend = f"sdpa-export:{self.problem_path}:{self.solution_path}"
        res = p.call("export", synthesis.solve_feasibility, problem, backend)
        out = {"status": res.status, "F": res.Y @ np.linalg.inv(res.X),
               "dim": problem.dim, "num_vars": problem.num_vars}
        del problem
        return out, p.stages

    def fingerprint(self, out):
        return (out["status"], out["F"].tobytes())

    def check(self, out):
        errors = []
        n, m = self.N, self.M
        mdim, sizes, entries = oracles.read_sdpa(self.problem_path)
        if sizes != [n + (n + m) * n * n, n] or mdim != n * (n + 1) // 2 + m * n:
            errors.append(f"SDPA shape: blocks {sizes}, {mdim} variables")
            return errors
        for b, blk in enumerate(oracles.sdpa_slack(sizes, entries, self.x), start=1):
            low = float(np.linalg.eigvalsh(blk)[0])
            if not low >= 0.0:
                errors.append(f"certified point violates SDPA block {b}: min eig {low:.3g}")
        if out["status"] != "feasible":
            errors.append(f"re-import status {out['status']}")
        gap = float(np.abs(out["F"] - self.F).max())
        if not gap <= 1e-8 * float(np.abs(self.F).max()):
            errors.append(f"re-imported gain differs from the certified one by {gap:.3g}")
        if not self.rate_cl < 1.0:
            errors.append(f"certified gain does not stabilize: rate {self.rate_cl}")
        return errors

    def cleanup(self):
        for path in (self.problem_path, self.solution_path):
            if os.path.exists(path):
                os.unlink(path)


WORKLOADS = {
    "example1-ensemble": Example1Ensemble,
    "example2-sampled-synthesis": Example2SampledSynthesis,
    "analysis-sweep": AnalysisSweep,
    "affine-lmi-export": AffineLmiExport,
}
