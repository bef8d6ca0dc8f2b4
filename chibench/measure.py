"""Repetitions, timings and metrics for one workload in one process.

The first repetition also validates every graph's outputs; the time spent
validating is subtracted from its timings, so every repetition measures
the same work.  Later repetitions must reproduce its records exactly.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import BOUNDARIES, GENERATORS, LAYERS, ROOT, TRUTH_COUNTED, Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_PROBES = 11
# Layer self times plus the benchmark loop's own (driver.self_s) must add
# up to the traced wall time.
SUM_TOLERANCE = 1e-6


# Every REFERENCE_EVERY seconds of measured time the workload's reference
# work (see workloads.py) is timed.  The host's speed drifts by up to a
# third between runs; dividing by the reference's median time in the same
# repetition cancels most of that drift.
REFERENCE_EVERY = 0.1


@dataclass
class Rep:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    ref_s: list[float] = field(default_factory=list)
    ref_cpu_s: list[float] = field(default_factory=list)
    graph_s: list[float] = field(default_factory=list)
    items: list = field(default_factory=list)
    records: list = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    tracer: Tracer | None = None

    @property
    def ref(self) -> float:
        """Median wall time of the reference work during this repetition."""
        return statistics.median(self.ref_s)

    @property
    def ref_cpu(self) -> float:
        return statistics.median(self.ref_cpu_s)


def run_rep(workload, index: int, validate: bool = False, tracer: Tracer | None = None) -> Rep:
    """Repetition ``index`` of the workload: every graph through ``workload.check``.

    Validation and reference samples happen between graphs and are
    subtracted from the repetition's wall and CPU time.
    """
    rep = Rep(tracer=tracer)
    inputs = workload.inputs(index)
    clock, cpu = time.perf_counter, time.process_time

    def sample_reference():
        start, cpu_start = clock(), cpu()
        workload.reference()
        rep.ref_s.append(clock() - start)
        rep.ref_cpu_s.append(cpu() - cpu_start)

    excluded_wall = excluded_cpu = 0.0
    next_reference = REFERENCE_EVERY
    wall0, cpu0 = clock(), cpu()
    try:
        for item in workload.source(inputs):
            start = clock()
            try:
                record, outputs = workload.check(item)
            except Exception:
                record, outputs = ("error", traceback.format_exc()), None
            end, cpu_end = clock(), cpu()
            rep.graph_s.append(end - start)
            rep.records.append(record)
            if outputs is None:
                rep.failed += 1
                rep.problems.append(record[1])
            if validate:
                rep.items.append(item)
                if outputs is not None:
                    issues = workload.validate(item, record, outputs)
                    if issues:
                        rep.failed += 1
                        rep.problems += issues
            if end - wall0 - excluded_wall >= next_reference:
                sample_reference()
                next_reference += REFERENCE_EVERY
            excluded_wall += clock() - end
            excluded_cpu += cpu() - cpu_end
    except Exception:
        rep.failed += 1
        rep.records.append(("error", "source"))
        rep.problems.append(traceback.format_exc())
    rep.wall_s = clock() - wall0 - excluded_wall
    rep.cpu_s = cpu() - cpu0 - excluded_cpu
    sample_reference()
    return rep


def run_traced(workload, index: int) -> Rep:
    tracer = Tracer()
    extra = ((workload, "threshold", "bounds.threshold"),) if workload.bound else ()
    with tracer.installed(extra):
        rep = run_rep(workload, index, tracer=tracer)
    tracer.finish(rep.wall_s)
    return rep


def compare(reference: Rep, rep: Rep) -> int:
    """Graphs whose record differs from the validated repetition's."""
    mismatched = sum(a != b for a, b in zip(reference.records, rep.records))
    return mismatched + abs(len(reference.records) - len(rep.records))


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    problems: list[str]
    reps: list[Rep]
    traced: list[Rep]
    setup_s: list[float]


def measure(workload, seconds: float, trace: bool) -> Result:
    """Repeat the workload for about ``seconds`` of measured time, at least once.

    Untraced mode probes set-up time first.  Traced mode alternates
    traced and untraced repetitions and makes at least one traced one.
    """
    setup_s = [] if trace else probe_setup(workload)
    first = run_rep(workload, 0, validate=True)
    problems = list(first.problems)
    workload_problems = workload.overall_problems(first.items, first.records)
    problems += workload_problems
    attempted = len(first.records)
    failed = attempted if workload_problems else first.failed
    reps, traced = [first], []
    measured = first.wall_s
    # start another repetition only if it is expected to end within budget
    while measured + statistics.median(r.wall_s for r in reps) <= seconds or (trace and not traced):
        index = len(reps) + len(traced)
        if trace and len(traced) < len(reps):
            rep = run_traced(workload, index)
            traced.append(rep)
        else:
            rep = run_rep(workload, index)
            reps.append(rep)
        measured += rep.wall_s
        attempted += len(rep.records)
        failed += max(rep.failed, compare(first, rep))
        problems += rep.problems
    counts = {repr(sorted(rep.tracer.counts().items())) for rep in traced}
    if len(counts) > 1:
        problems.append("traced call counts differ between repetitions")
    for rep in traced:
        accounted = sum(rep.tracer.layer_self().values())
        if abs(accounted - rep.wall_s) > SUM_TOLERANCE * rep.wall_s:
            problems.append(f"layer self times sum to {accounted}, traced wall_s is {rep.wall_s}")
    return Result(
        correct=not problems and failed == 0,
        attempted=attempted,
        failed=failed,
        problems=problems,
        reps=reps,
        traced=traced,
        setup_s=setup_s,
    )


PROBE = """\
import sys, time
sys.path.insert(0, {src!r})
{body}print(time.monotonic())
"""


def probe_setup(workload, runs: int = SETUP_PROBES) -> list[float]:
    """Seconds from starting a fresh interpreter to its first graph in hand."""
    code = PROBE.format(src=str(SRC), body=workload.probe())
    out = []
    for _ in range(runs):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-I", "-c", code],
            capture_output=True, text=True, check=True, timeout=120, cwd=SRC.parent,
        )
        out.append(float(done.stdout.split()[-1]) - start)
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(result: Result) -> dict[str, tuple[float, str, str]]:
    """The bounded metrics and the raw times, each as name -> (value, unit,
    sample note), from the untraced repetitions.

    The ``*_ref`` metrics are times divided by the reference work's median
    time in the same repetition.
    """
    reps = result.reps
    n_reps = f"median of {len(reps)} repetitions"
    per_graph = f"median over {len(reps)} repetitions of {len(reps[0].graph_s)} graphs each"
    refs = sum(len(r.ref_s) for r in reps)

    def graph_pct(q: float, scale) -> float:
        return statistics.median(percentile(r.graph_s, q) / scale(r) for r in reps)

    return {
        "wall_ref": (statistics.median(r.wall_s / r.ref for r in reps), "ref", n_reps),
        "cpu_ref": (statistics.median(r.cpu_s / r.ref_cpu for r in reps), "ref", n_reps),
        "setup_s": (statistics.median(result.setup_s), "s", f"median of {len(result.setup_s)} fresh processes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "this process"),
        "graph_ref.p50": (graph_pct(0.5, lambda r: r.ref), "ref", per_graph),
        "graph_ref.p90": (graph_pct(0.9, lambda r: r.ref), "ref", per_graph),
    }, {
        "wall_s": (statistics.median(r.wall_s for r in reps), "s", n_reps),
        "cpu_s": (statistics.median(r.cpu_s for r in reps), "s", n_reps),
        "graph_ms.p50": (graph_pct(0.5, lambda r: 0.001), "ms", per_graph),
        "graph_ms.p90": (graph_pct(0.9, lambda r: 0.001), "ms", per_graph),
        "ref_ms": (1000 * statistics.median(r.ref for r in reps), "ms", f"{refs} reference samples"),
    }


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def per_layer(result: Result) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, sample note), from the traced repetitions.

    Counts come from the first traced repetition (they repeat exactly);
    times are medians over the traced repetitions.
    """
    traced = result.traced
    note = f"median of {len(traced)} traced repetitions"
    totals = [rep.tracer.totals() for rep in traced]
    first = totals[0]
    out: dict[str, tuple[float, str, str]] = {}

    def self_s(name: str) -> float:
        return statistics.median(t[name].self_s if name in t else 0.0 for t in totals)

    for name in BOUNDARIES + GENERATORS + ("bounds.threshold",):
        st = first.get(name)
        calls = st.calls if st else 0
        out[f"{name}.calls"] = (calls, "count", "first traced repetition")
        out[f"{name}.self_s"] = (self_s(name), "s", note)
        if name in TRUTH_COUNTED:
            out[f"{name}.true_ratio"] = (_ratio(st.true if st else 0, calls), "ratio", "true results / calls")
    chi = first.get("solvers.chi_of_subset")
    out["solvers.chi_of_subset.repeat_ratio"] = (
        _ratio(chi.repeats, chi.calls) if chi else 0.0, "ratio",
        "vertex sets already asked within the same caller call / calls",
    )
    graphs = first.get("corpus.enumerate_graphs")
    keys = first.get("corpus.canonical_key")
    out["corpus.classes_per_key"] = (
        _ratio(graphs.yielded if graphs else 0, keys.calls if keys else 0), "ratio",
        "graphs yielded / canonical_key calls",
    )
    layers = [rep.tracer.layer_self() for rep in traced]
    for layer in LAYERS + (ROOT,):
        out[f"{layer}.self_s"] = (statistics.median(l[layer] for l in layers), "s", note)
    traced_wall = statistics.median(rep.wall_s for rep in traced)
    plain_wall = statistics.median(rep.wall_s for rep in result.reps)
    out["trace.wall_s"] = (traced_wall, "s", note)
    out["trace.overhead_s"] = (
        traced_wall - plain_wall, "s",
        f"traced minus untraced median wall_s ({len(result.reps)} untraced repetitions)",
    )
    return out


def cpu_count() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
