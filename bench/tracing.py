"""Run-time spans around calls into stochlyap's public functions.

The tracer replaces module and class attributes with timing wrappers while
it is installed and puts the originals back afterwards; no file of the
library changes.  A name imported into another module (``from .dist
import substream``) is a separate binding, so every binding a call goes
through is wrapped.  Each span records its name, start, end and the span
that caused it, so that a span's self time leaves out the wrapped calls
it made.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from stochlyap import analysis, cli, dist, moments, sampled, sdpa, simulate, synthesis, sysmodel

#: Span name -> the (owner, attribute) bindings that calls go through, in the
#: order of the per-layer metrics.
TARGETS = {
    "dist.substream": [(simulate, "substream"), (moments, "substream"), (cli, "substream")],
    "dist.sample_block": [(dist.DistributionSpec, "sample_block")],
    "sysmodel.evaluate_block": [
        (cls, "evaluate_block") for cls in (
            sysmodel.AffineForm, sysmodel.SwitchedForm, sysmodel.PolyForm,
            sysmodel.SampledDataForm, sysmodel.ClosedLoopSampledForm)],
    "simulate.run_ensemble": [(simulate, "run_ensemble")],
    "sampled.discretize_batch": [(sampled, "discretize_batch")],
    "moments.second_moment_mc": [(moments, "second_moment_mc")],
    "sampled.discretize": [(sampled, "discretize")],
    "synthesis.candidate_gains": [(synthesis, "candidate_gains")],
    "synthesis.solve_feasibility": [(synthesis, "solve_feasibility")],
    "synthesis.verify_gain": [(synthesis, "verify_gain")],
    "moments.second_moment_analytic": [(moments, "second_moment_analytic")],
    "analysis.build_operator": [(analysis, "build_operator")],
    "analysis.spectral_radius": [(analysis, "spectral_radius")],
    "analysis.lyapunov_certificate": [(analysis, "lyapunov_certificate")],
    "moments.factorize": [(moments, "factorize"), (synthesis, "factorize")],
    "synthesis.assemble": [(synthesis, "assemble")],
    "sdpa.write_problem": [(sdpa, "write_problem")],
}


def _count_solve(counts, args, kwargs, result):
    counts["synthesis.probes"] += 1
    counts["synthesis.solver_iterations"] += result.iterations


def _count_assemble(counts, args, kwargs, result):
    counts["synthesis.lmi_dim"] = max(counts["synthesis.lmi_dim"], result.dim)
    counts["synthesis.basis_mb"] = max(counts["synthesis.basis_mb"], result.basis.nbytes / 1e6)


def _count_write(counts, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["sdpa.file_mb"] = max(counts["sdpa.file_mb"], os.path.getsize(path) / 1e6)


#: Counters read off a call's arguments and result.
COUNTERS = {
    "synthesis.solve_feasibility": _count_solve,
    "synthesis.assemble": _count_assemble,
    "sdpa.write_problem": _count_write,
}


class Tracer:
    """Collects spans for one traced pass at a time."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, clock(), parent)
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, bindings in TARGETS.items():
            for owner, attr in bindings:
                orig = vars(owner)[attr]
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by its child spans."""
        out: dict[str, float] = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            out[name] += t1 - t0
            if parent >= 0:
                out[self.spans[parent][0]] -= t1 - t0
        return dict(out)
