"""Benchmark harness for stochlyap.

Run from the repository root:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One process, one caller, closed loop, one BLAS thread.  The run builds the
workload's inputs from ``--seed``, repeats whole passes of the workload
until ``--seconds`` have gone by (at least ``MIN_PASSES``), checks the
outputs against the benchmark's own oracles, prints every metric with its
unit, and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones (tracing off).  With
``--trace 1`` the run alternates untraced and traced passes and reports the
per-layer self times and counts of the traced passes, plus the tracing
overhead as the difference of the two median pass times.  Results go to
``bench/out/``.  A failed operation makes the run incorrect; a run in which
every pass of a kind failed prints its counts without metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, "out")

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
#: Fewest measured passes of each kind in one run.
MIN_PASSES = 3

# one caller and one BLAS thread: threads slow the ensemble and MC moments on 2 cores
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Per-layer counters next to the span self times (``tracing.TARGETS``).
LAYER_COUNTS = {
    "synthesis.probes": "count", "synthesis.solver_iterations": "count",
    "synthesis.lmi_dim": "count", "synthesis.basis_mb": "MB", "sdpa.file_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time one import plus input build and print the seconds")
    return p.parse_args(argv)


def setup_probe(name: str, seed: int) -> float:
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[name](seed)
    elapsed = time.perf_counter() - t0
    wl.cleanup()
    return elapsed


def measure_setup(name: str, seed: int) -> float:
    """Median over fresh processes of importing the package and building the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_passes(wl, seconds: float, tracer):
    """Whole passes until ``seconds`` are up; traced and untraced alternate when tracing."""
    kinds = (False, True) if tracer else (False,)
    walls = {k: [] for k in kinds}
    tried = dict.fromkeys(kinds, 0)
    stages, layers, counts = [], [], []
    attempted = failed = 0
    first = None
    errors = []
    t_start = time.perf_counter()
    i = 0
    while (time.perf_counter() - t_start < seconds
           or min(tried.values()) < MIN_PASSES):
        traced = kinds[i % len(kinds)]
        tried[traced] += 1
        i += 1
        attempted += wl.OPS
        if traced:
            tracer.reset()
            tracer.install()
        try:
            out, st = wl.run_pass()
        except Exception as exc:
            failed += getattr(exc, "undone", wl.OPS)
            print(f"pass {i}: operation failed: {exc}", file=sys.stderr)
            continue
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(sum(st.values()))
        if traced:
            layers.append(tracer.self_times())
            counts.append(dict(tracer.counts))
        else:
            stages.append(st)
        if first is None:
            first = out
        elif wl.fingerprint(out) != wl.fingerprint(first):
            errors.append(f"pass {i} output differs from the first pass")
        del out
    return first, walls, stages, layers, counts, attempted, failed, errors


def end_to_end(wl, setup_s, walls, stages):
    return {
        "wall_s": (statistics.median(walls[False]), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "items_per_s": (statistics.median(wl.items(st) for st in stages), "1/s"),
    }


def per_layer(spans, walls, layers, counts, errors):
    out = {f"{s}_s": (statistics.median(l.get(s, 0.0) for l in layers), "s") for s in spans}
    for name, unit in LAYER_COUNTS.items():
        values = [c.get(name, 0.0) for c in counts]
        if len(set(values)) != 1:
            errors.append(f"counter {name} differs between passes: {values}")
        out[name] = (values[0], unit)
    base = statistics.median(walls[False])
    out["trace.overhead_pct"] = (100.0 * (statistics.median(walls[True]) - base) / base, "%")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stochlyap", "__init__.py")):
        print(f"error: stochlyap sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [SRC, HERE]
    if args.setup_probe:
        print(f"{setup_probe(args.workload, args.seed):.9f}")
        return 0

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = setup_s = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    else:
        setup_s = measure_setup(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        first, walls, stages, layers, counts, attempted, failed, errors = run_passes(
            wl, args.seconds, tracer)
        # metrics need a successful pass of every kind; without one only the counts print
        metrics = {}
        if all(walls.values()):
            metrics = (per_layer(tracing.TARGETS, walls, layers, counts, errors) if args.trace
                       else end_to_end(wl, setup_s, walls, stages))
        if first is not None:
            errors += wl.check(first)
    finally:
        wl.cleanup()
    if failed:
        errors.append(f"{failed} of {attempted} operations failed")

    for msg in errors:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    passes = {("traced" if k else "untraced"): len(v) for k, v in walls.items()}
    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  "
          f"attempted {attempted}  failed {failed}  correct {not errors}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    for stage in (stages[0] if stages else {}):
        value = statistics.median(st[stage] for st in stages)
        print(f"  {'stage.' + stage + '_s':36s} {value:14.6g} s (median, untraced)")
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
