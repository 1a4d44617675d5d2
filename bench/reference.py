"""Reference figures: two interleaved sets of ten untraced runs per workload, then traced runs.

    python3 bench/reference.py [--seconds 12]

For each workload, set A runs seeds 1..10 and set B seeds 11..20, one run of
A and one of B in turn, so that both sets see the same drift of the
machine.  Prints, per end-to-end metric, each set's median and quartile
distance over the median (``statistics.quantiles(values, n=4)``), how much
worse B's median is than A's as a share of A's, and the metric's bound from
``BENCHMARK.json``; then the share of failed operations and the seconds per
run, and the per-layer metrics of one traced run on seed 1.  Runs are
sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["example1-ensemble", "example2-sampled-synthesis", "analysis-sweep",
             "affine-lmi-export"]
SEEDS = {"A": range(1, 11), "B": range(11, 21)}


def run(workload: str, seed: int, seconds: int, trace: int):
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1]), time.perf_counter() - t0


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=int, default=12)
    args = p.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    print("| workload | metric | unit | median A | spread A | median B | spread B "
          "| B worse than A by | bound |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    traced = {}
    for wl in WORKLOADS:
        results = {"A": [], "B": []}
        for a, b in zip(SEEDS["A"], SEEDS["B"]):
            results["A"].append(run(wl, a, args.seconds, 0))
            results["B"].append(run(wl, b, args.seconds, 0))
        for name, m in spec.items():
            (med_a, sp_a), (med_b, sp_b) = (
                spread([r["metrics"][name]["value"] for r, _ in results[k]]) for k in "AB")
            worse = (med_b - med_a) / med_a * (1 if m["better"] == "lower" else -1)
            print(f"| `{wl}` | `{name}` | {m['unit']} | {med_a:.4g} | {sp_a:.3f} | "
                  f"{med_b:.4g} | {sp_b:.3f} | {worse:+.3f} | {m['bound']} |")
        for k, rs in results.items():
            failed = sum(r["failed"] for r, _ in rs) / sum(r["attempted"] for r, _ in rs)
            correct = all(r["correct"] for r, _ in rs)
            secs = statistics.median(t for _, t in rs)
            print(f"| `{wl}` | set {k}: correct {correct}, failed share {failed:g}, "
                  f"{secs:.1f} s per run | | | | | | | |", flush=True)
        traced[wl] = run(wl, 1, args.seconds, 1)[0]["metrics"]
    names = list(next(iter(traced.values())))
    print("\n| per-layer metric | unit | " + " | ".join(f"`{w}`" for w in traced) + " |")
    print("| --- | --- |" + " --- |" * len(traced))
    for name in names:
        unit = next(iter(traced.values()))[name]["unit"]
        cells = " | ".join(f"{traced[w][name]['value']:.4g}" for w in traced)
        print(f"| `{name}` | {unit} | {cells} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
