"""Command-line front end (``stoch-lyap``).

Commands: ``analyze``, ``synthesize``, ``simulate``, ``discretize``,
``export-sdpa``, ``repro-example1``, ``repro-example2``.  All reports are
JSON on stdout and echo the fully resolved configuration; files are
written atomically.  Exit codes: 0 success/stable, 1 usage or I/O error,
2 unstable or infeasible, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, analysis, demo_models, moments, sampled, simulate, synthesis
from .dist import substream
from .errors import (
    NotStabilizable,
    StochLyapError,
    UnsupportedForm,
    VerificationMismatch,
)
from .fileio import write_atomic
from .sysmodel import SampledDataForm, SystemModel, model_from_obj

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2  # unstable / infeasible
EXIT_MISMATCH = 3


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=1)
    print(text)
    if out:
        write_atomic(out, [text + "\n"])


def _load_model(path: str) -> SystemModel:
    with open(path) as f:
        return model_from_obj(json.load(f))


def _resolve_moments(model, spec: str, cache: str | None):
    """Resolve the moment method string to data plus a config descriptor."""
    if cache and os.path.exists(cache):
        data = moments.load_moments(cache, model)
        if (data.n, data.m, data.Z) != (model.n, model.m, model.Z):
            raise StochLyapError(f"moment cache {cache} does not match the model")
        return data, {"method": "cache", "path": cache}
    data = None
    if spec == "auto":
        try:
            data = moments.second_moment_analytic(model)
            spec = "analytic"
        except UnsupportedForm:
            spec = "mc:100000:0"
    if spec == "analytic":
        if data is None:
            data = moments.second_moment_analytic(model)
        desc = {"method": "analytic"}
    elif spec.startswith("mc:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise StochLyapError("expected mc:<samples>:<seed>")
        data = moments.second_moment_mc(model, int(parts[1]), int(parts[2]))
        desc = {"method": "mc", "samples": int(parts[1]), "seed": int(parts[2])}
    else:
        raise StochLyapError(f"unknown moments method {spec!r}")
    if cache:
        moments.save_moments(data, cache, model)
        desc["cached_to"] = cache
    return data, desc


def _base_config(args, **extra) -> dict:
    cfg = {"tool_version": __version__, "schema_version": SCHEMA_VERSION,
           "command": args.command}
    cfg.update(extra)
    return cfg


def _cmd_analyze(args) -> int:
    model = _load_model(args.model)
    data, desc = _resolve_moments(model, args.moments, args.moments_cache)
    report = analysis.stability_report(data, args.tol)
    out = {
        "config": _base_config(args, tol=args.tol, moments=desc),
        "model": model.to_obj(),
        "report": report.to_obj(),
    }
    if args.lam is not None:
        op = analysis.build_operator(data)
        try:
            _, margin = analysis.lyapunov_certificate(op, data, args.lam)
            out["at_lambda"] = {"lambda": args.lam, "feasible": True, "margin": margin}
        except StochLyapError:
            out["at_lambda"] = {"lambda": args.lam, "feasible": False, "margin": None}
    _emit(out, args.out)
    return EXIT_OK if report.stable else EXIT_NEGATIVE


def _cmd_synthesize(args) -> int:
    model = _load_model(args.model)
    data, desc = _resolve_moments(model, args.moments, args.moments_cache)
    cfg = _base_config(args, tol=args.tol, moments=desc)
    try:
        result = synthesis.synthesize_min_lambda(model, data, lambda_tol=args.tol)
    except NotStabilizable as exc:
        _emit({"config": cfg, "status": "not-stabilizable",
               "diagnostic_lambda": exc.diagnostic_lambda}, args.out)
        return EXIT_NEGATIVE
    _emit({"config": cfg, "status": "ok", "result": result.to_obj()}, args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    model = _load_model(args.model)
    x0 = np.array([float(v) for v in args.x0.split(",")])
    F = None
    if args.gain:
        with open(args.gain) as f:
            obj = json.load(f)
        F = np.asarray(obj["F"] if isinstance(obj, dict) else obj, dtype=float)
    result = simulate.run_ensemble(model, x0, args.kmax, args.paths, args.seed, F=F)
    simulate.write_rms_csv(result, args.out)
    _emit({
        "config": _base_config(args, paths=args.paths, kmax=args.kmax, seed=args.seed,
                               x0=x0.tolist(), out=args.out,
                               gain=None if F is None else F.tolist()),
        "rms_first": result.rms[0],
        "rms_last": result.rms[-1],
        "overflow_paths": result.overflow_paths,
    }, None)
    return EXIT_OK


def _cmd_discretize(args) -> int:
    with open(args.plant) as f:
        plant = sampled.ContinuousPlant.from_obj(json.load(f))
    A_op, B_op = sampled.discretize(plant, args.h)
    _emit({
        "config": _base_config(args, h=args.h),
        "A_op": A_op.tolist(),
        "B_op": B_op.tolist(),
    }, args.out)
    return EXIT_OK


def _cmd_export_sdpa(args) -> int:
    model = _load_model(args.model)
    data, desc = _resolve_moments(model, args.moments, args.moments_cache)
    problem = synthesis.assemble(
        moments.factorize(data), args.lam, synthesis.default_margin(data)
    )
    from . import sdpa

    sdpa.write_problem(problem, args.out)
    out = {
        "config": _base_config(args, moments=desc, out=args.out, solution=args.solution),
        "lambda": args.lam,
        "variables": problem.num_vars,
        "block_sizes": [problem.dim, problem.n],
        "margin": problem.margin,
    }
    if args.solution:
        res = synthesis.import_solution(problem, args.solution)
        F = res.Y @ np.linalg.inv(res.X)
        out.update(status=res.status, X=res.X.tolist(), Y=res.Y.tolist(), F=F.tolist())
    _emit(out, None)
    return EXIT_OK


def _cmd_repro_example1(args) -> int:
    model = demo_models.example1_model()
    data = moments.second_moment_analytic(model)
    report = analysis.stability_report(data, args.tol)
    x0 = np.array([1.0, 0.0, 0.0])
    ens = simulate.run_ensemble(model, x0, args.kmax, args.paths, args.seed)
    lam_est = simulate.decay_rate(ens, 50, 100)
    out = {
        "config": _base_config(args, tol=args.tol, paths=args.paths, seed=args.seed,
                               kmax=args.kmax, x0=x0.tolist(),
                               moments={"method": "analytic"}, window=[50, 100]),
        "report": report.to_obj(),
        "lambda_min": report.lambda_min,
        "lambda_est": lam_est,
    }
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        simulate.write_rms_csv(ens, os.path.join(args.out_dir, "example1_rms.csv"))
        out["rms_csv"] = os.path.join(args.out_dir, "example1_rms.csv")
    _emit(out, None if not args.out_dir else os.path.join(args.out_dir, "example1_report.json"))
    return EXIT_OK if report.stable else EXIT_NEGATIVE


def _final_state(model: SampledDataForm, F: np.ndarray, seed: int, path: int, horizon: float):
    """State of one closed-loop sample path at an exact continuous time.

    Each block of 64 draws costs one batched ZOH discretization of the
    intervals the path completes before ``horizon``, plus the partial
    last one.
    """
    rng = substream(seed, path)
    x = np.array([1.0, 0.0, 0.0])
    t = 0.0
    while True:
        hs = model.interval(model.dist.sample_block(rng, 64))
        ends = np.cumsum(np.append(t, hs))  # sampling instants, summed one step at a time
        k = int(np.searchsorted(ends[1:], horizon, side="right"))
        steps = hs[:k]
        if k < len(hs) and ends[k] < horizon:
            steps = np.append(steps, horizon - ends[k])
        if len(steps):
            A_ops, B_ops = sampled.discretize_batch(model.plant, steps)
            for A_op, B_op in zip(A_ops, B_ops):
                x = A_op @ x + B_op @ (F @ x)
        if k < len(hs):
            return x
        t = ends[-1]


def _cmd_repro_example2(args) -> int:
    model = demo_models.example2_model()
    data = moments.second_moment_mc(model, args.samples, args.seed)
    cfg = _base_config(args, samples=args.samples, seed=args.seed, tol=args.tol,
                       sim_seed=args.sim_seed, paths=args.paths, horizon=10.0)
    try:
        result = synthesis.synthesize_min_lambda(model, data, lambda_tol=args.tol)
    except NotStabilizable as exc:
        _emit({"config": cfg, "status": "not-stabilizable",
               "diagnostic_lambda": exc.diagnostic_lambda}, None)
        return EXIT_NEGATIVE
    except VerificationMismatch as exc:
        _emit({"config": cfg, "status": "verification-mismatch", "detail": str(exc)}, None)
        return EXIT_MISMATCH

    ratios = []
    for p in range(args.paths):
        x10 = _final_state(model, result.F, args.sim_seed, p, 10.0)
        ratios.append(float(np.linalg.norm(x10)))  # ||x0|| = 1
    out = {
        "config": cfg,
        "status": "ok",
        "result": result.to_obj(),
        "achieved_lambda": result.lam,
        "closed_loop_lambda": result.closed_loop_report.lambda_min,
        "intersample": {
            "paths": args.paths,
            "max_final_ratio": max(ratios),
            "all_below_1e-2": bool(max(ratios) <= 1e-2),
        },
    }
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        _emit(out, os.path.join(args.out_dir, "example2_report.json"))
    else:
        _emit(out, None)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with ``EXIT_ERROR``, not 2."""

    def error(self, message):
        raise StochLyapError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stoch-lyap",
        description="Second-moment stability analysis and gain synthesis for "
                    "discrete-time systems with i.i.d. random dynamics",
    )
    parser.add_argument("--version", action="version",
                        version=f"stoch-lyap {__version__} (schema {SCHEMA_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    def moment_flags(p):
        p.add_argument("--moments", default="auto",
                       help="analytic | mc:<samples>:<seed> | auto (analytic where "
                            "supported, else mc:100000:0)")
        p.add_argument("--moments-cache", default=None,
                       help="JSON cache for expensive moment data")

    p = sub.add_parser("analyze", help="decide stability and report the minimal rate")
    p.add_argument("model")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="additionally check feasibility at this rate")
    p.add_argument("--out", default=None)
    moment_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synthesize", help="synthesize a stabilizing gain")
    p.add_argument("model")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--out", default=None)
    moment_flags(p)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("simulate", help="run a trajectory ensemble, write k,rms CSV")
    p.add_argument("model")
    p.add_argument("--x0", required=True, help="comma-separated initial state")
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gain", default=None, help="JSON file with the gain F")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("discretize", help="zero-order-hold discretization of a plant")
    p.add_argument("plant")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_discretize)

    p = sub.add_parser("export-sdpa", help="export the synthesis LMI in SDPA format")
    p.add_argument("model")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--solution", default=None,
                   help="external solver output (xVec = {...}) to validate against "
                        "the exported problem")
    moment_flags(p)
    p.set_defaults(func=_cmd_export_sdpa)

    p = sub.add_parser("repro-example1", help="run the built-in analysis example")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--kmax", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_repro_example1)

    p = sub.add_parser("repro-example2", help="run the built-in synthesis example")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--sim-seed", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--paths", type=int, default=100)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_repro_example2)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, json.JSONDecodeError, UnsupportedForm, StochLyapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
