"""Span tracing at chibound's layer boundaries, installed from outside the package.

Every boundary function is replaced, in its defining module and in every
chibound module that imported it by name, by a wrapper that times the call
as a span.  Spans are not kept: each one is folded into a running total per
(name, parent name) as it ends, so memory stays flat however many calls a
workload makes.  A span's self time is its duration minus the durations of
the spans it caused.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator

# Layer boundaries: the functions one chibound module imports from another,
# plus the entry points the benchmark calls.
BOUNDARIES = (
    "corpus.canonical_key",
    "corpus.canonical_graph",
    "corpus.read_graph6",
    "patterns.occurs_with_vertex",
    "patterns.find_subgraph",
    "patterns.is_family_free",
    "solvers.clique_number",
    "solvers.chromatic_number",
    "solvers.chi_of_subset",
    "graph._t_connected_mask",
    "graph.is_connected_mask",
    "graph._component_mask",
    "graph.degeneracy",
    "graph.induced",
    "structures.enumerate_balloons",
    "structures.minimal_cutsets",
    "structures.enumerate_bicliques",
    "structures.in_class_L",
)
GENERATORS = ("corpus.enumerate_graphs",)
# Boolean results whose share of true answers is reported as .true_ratio.
TRUTH_COUNTED = (
    "patterns.occurs_with_vertex",
    "graph._t_connected_mask",
    "graph.is_connected_mask",
)
LAYERS = ("corpus", "patterns", "solvers", "graph", "structures", "bounds")
ROOT = "driver"


class Stat:
    """Running totals for one (name, parent) pair."""

    __slots__ = ("calls", "self_s", "true", "yielded", "repeats")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.true = 0
        self.yielded = 0
        self.repeats = 0


class Tracer:
    """Aggregated spans for one traced repetition of a workload.

    A frame on the stack is ``[name, child_seconds, seen_vertex_sets]``;
    the bottom frame is the benchmark loop's own span, named ``driver``.
    """

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], Stat] = {}
        self.stack: list[list] = [[ROOT, 0.0, None]]

    def _stat(self, name: str, parent: str) -> Stat:
        key = (name, parent)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = Stat()
        return st

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack = self.stack
        stat = self._stat
        clock = time.perf_counter
        count_truth = name in TRUTH_COUNTED

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent[1] += duration
                st = stat(name, parent[0])
                st.calls += 1
                st.self_s += duration - frame[1]
            if count_truth and result:
                st.true += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Each resumption of the generator is one span; a call counts once."""
        stack = self.stack
        stat = self._stat
        clock = time.perf_counter

        def traced(*args, **kwargs):
            st = stat(name, stack[-1][0])
            st.calls += 1
            it = fn(*args, **kwargs)
            while True:
                parent = stack[-1]
                frame = [name, 0.0, None]
                stack.append(frame)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    duration = clock() - start
                    stack.pop()
                    parent[1] += duration
                    st.self_s += duration - frame[1]
                st.yielded += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def wrap_chi_of_subset(self, fn: Callable) -> Callable:
        """Also count vertex sets already asked for within the same caller span."""
        timed = self.wrap("solvers.chi_of_subset", fn)
        stack = self.stack
        stat = self._stat

        def traced(g, vertices, *args, **kwargs):
            vertices = tuple(vertices)
            frame = stack[-1]
            if frame[2] is None:
                frame[2] = set()
            key = 0
            for v in vertices:
                key |= 1 << v
            if key in frame[2]:
                stat("solvers.chi_of_subset", frame[0]).repeats += 1
            else:
                frame[2].add(key)
            return timed(g, vertices, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, extra: tuple = ()) -> Iterator["Tracer"]:
        """Patch the boundary functions for the duration of the block.

        ``extra`` holds ``(owner, attribute, span name)`` triples for
        callables the benchmark reaches through an object, such as a
        registry entry's threshold.
        """
        modules = [m for n, m in sorted(sys.modules.items()) if n == "chibound" or n.startswith("chibound.")]
        patches: list[tuple[object, str, object]] = []

        def patch(owner, attr, new):
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        for qualified in BOUNDARIES + GENERATORS:
            module_name, attr = qualified.split(".")
            original = getattr(sys.modules[f"chibound.{module_name}"], attr)
            if qualified in GENERATORS:
                wrapper = self.wrap_generator(qualified, original)
            elif qualified == "solvers.chi_of_subset":
                wrapper = self.wrap_chi_of_subset(original)
            else:
                wrapper = self.wrap(qualified, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    patch(module, attr, wrapper)
        for owner, attr, name in extra:
            patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        try:
            yield self
        finally:
            for owner, attr, old in reversed(patches):
                setattr(owner, attr, old)

    def finish(self, wall_s: float) -> None:
        """Close the root span; ``wall_s`` is the traced repetition's duration."""
        root = self._stat(ROOT, "")
        root.calls = 1
        root.self_s = wall_s - self.stack[0][1]

    def totals(self) -> dict[str, Stat]:
        """Per-name totals, summed over parents."""
        out: dict[str, Stat] = {}
        for (name, _), st in self.stats.items():
            agg = out.setdefault(name, Stat())
            agg.calls += st.calls
            agg.self_s += st.self_s
            agg.true += st.true
            agg.yielded += st.yielded
            agg.repeats += st.repeats
        return out

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS + (ROOT,)}
        for (name, _), st in self.stats.items():
            out[name.split(".")[0]] += st.self_s
        return out

    def counts(self) -> dict[tuple[str, str], tuple[int, int, int, int]]:
        """Everything the trace counts, which is deterministic for a fixed input."""
        return {
            key: (st.calls, st.true, st.yielded, st.repeats)
            for key, st in self.stats.items()
        }
