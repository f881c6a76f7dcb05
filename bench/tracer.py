"""Span tracing for the benchmark's traced run.

``Tracer.installed()`` wraps the public callables of the ramseykit layers in
every namespace that holds them (the package, the defining module and each
module that imported the name), records one span per call with its parent
span and trial id, and puts the originals back on exit.  The library's files
are never modified; the wrapping lives only in the benchmark process.

Self time of a span is its duration minus the time covered by its child
spans.  Counts (edges sampled, colour lookups, search nodes, ER branches,
computed cut-norm flops) are taken at the same call boundaries from the
arguments and return values, so they repeat exactly for a fixed trial list.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

MODULES = ("ramseykit", "ramseykit.graphs", "ramseykit.colouring",
           "ramseykit.adversaries", "ramseykit.search", "ramseykit.erdos_rado",
           "ramseykit.cutnorm", "ramseykit.harness", "ramseykit.cli")

# (defining module, attribute, span name)
FUNCTIONS = (
    ("graphs", "gnp_generate", "graphs.gnp_generate"),
    ("graphs", "clean_subgraph", "graphs.clean_subgraph"),
    ("graphs", "count_cliques", "graphs.cliques"),
    ("colouring", "witness_for", "colouring.witness_for"),
    ("adversaries", "generate_colouring", "adversaries.generate_colouring"),
    ("search", "find_rainbow_copy", "search.find_rainbow_copy"),
    ("search", "find_canonical_copy", "search.find_canonical_copy"),
    ("erdos_rado", "build_sequence", "erdos_rado.build_sequence"),
    ("erdos_rado", "extract_canonical", "erdos_rado.extract_canonical"),
    ("erdos_rado", "er_find", "erdos_rado.er_find"),
    ("cutnorm", "cutnorm_exact", "cutnorm.cutnorm_exact"),
    ("cutnorm", "cutnorm_heuristic", "cutnorm.cutnorm_heuristic"),
    ("cutnorm", "hom_density", "cutnorm.hom_density"),
    ("harness", "run_sweep", "harness.run_sweep"),
    ("harness", "verify_corollary_mode", "harness.verify_corollary_mode"),
)
# Functions returning a lazy clique stream: time is spent inside next().
STREAMS = (("graphs", "enumerate_cliques", "graphs.cliques"),)
# Constructors are wrapped on the class, so isinstance checks keep working.
CONSTRUCTORS = (
    ("graphs", "OrderedGraph", "graphs.OrderedGraph"),
    ("colouring", "EdgeColouring", "colouring.EdgeColouring"),
)

def _observe_gnp(counts, args, result):
    counts["graphs.edges"] += result.graph.edge_count


def _observe_clean(counts, args, result):
    counts["graphs.edges_removed"] += args[0].edge_count - result.edge_count


def _observe_colouring(counts, args, result):
    counts["adversaries.colours_used"] += len(result.colours())


def _observe_search(counts, args, result):
    counts["search.searches"] += 1
    counts["search.found"] += int(result.found)
    counts["search.nodes_explored"] += result.nodes_explored


def _observe_er(counts, args, result):
    counts["erdos_rado.calls"] += 1
    counts["erdos_rado.branch." + result.branch] += 1


def _observe_exact(counts, args, result):
    n = args[0].n
    counts["cutnorm.exact_flops"] += 2 * (1 << n) * n * n


OBSERVERS = {
    "graphs.gnp_generate": _observe_gnp,
    "graphs.clean_subgraph": _observe_clean,
    "adversaries.generate_colouring": _observe_colouring,
    "search.find_rainbow_copy": _observe_search,
    "search.find_canonical_copy": _observe_search,
    "erdos_rado.er_find": _observe_er,
    "cutnorm.cutnorm_exact": _observe_exact,
}


class _Span:
    __slots__ = ("sid", "parent", "trial", "name", "start", "end", "child")

    def __init__(self, sid: int, parent: Optional["_Span"], trial: int,
                 name: str, start: float) -> None:
        self.sid = sid
        self.parent = parent.sid if parent is not None else None
        self.trial = trial
        self.name = name
        self.start = start
        self.end = start
        self.child = 0.0

    def as_json(self) -> dict:
        return {"id": self.sid, "parent": self.parent, "trial": self.trial,
                "name": self.name, "start": self.start, "end": self.end,
                "self": self.end - self.start - self.child}


class _TimedStream:
    """Iterator proxy that charges the time spent in each next() to one span."""

    def __init__(self, tracer: "Tracer", span: _Span, inner: Iterator) -> None:
        self._tracer = tracer
        self._span = span
        self._inner = inner

    def __iter__(self) -> "_TimedStream":
        return self

    def __next__(self):
        tracer = self._tracer
        parent = tracer._stack[-1] if tracer._stack else None
        t0 = time.perf_counter()
        try:
            item = next(self._inner)
        finally:
            dt = time.perf_counter() - t0
            self._span.end += dt
            tracer.self_time[self._span.name] += dt
            if parent is not None:
                parent.child += dt
        tracer.counts["graphs.cliques_enumerated"] += 1
        return item


class Tracer:
    """Collects spans, per-span-name self time and counts for one pass."""

    def __init__(self) -> None:
        self.spans: list[_Span] = []
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[_Span] = []
        self._colour_calls = [0]
        self._trial = -1

    def _open(self, name: str) -> _Span:
        parent = self._stack[-1] if self._stack else None
        span = _Span(len(self.spans), parent, self._trial, name, time.perf_counter())
        self.spans.append(span)
        return span

    @contextmanager
    def trial(self, trial_id: int):
        """Root span of one trial; every library span below it carries its id."""
        self._trial = trial_id
        span = self._open("trial")
        self._stack.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        span = self._open(name)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.self_time[name] += span.end - span.start - span.child
        observe = OBSERVERS.get(name)
        if observe is not None:
            observe(self.counts, args, result)
        if parent is not None:
            # observer work is tracing cost, not the parent's own work
            parent.child += time.perf_counter() - span.start
        return result

    def _stream(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> _TimedStream:
        span = self._open(name)
        parent = self._stack[-1] if self._stack else None
        try:
            inner = iter(fn(*args, **kwargs))
        finally:
            span.end = time.perf_counter()
            dt = span.end - span.start
            self.self_time[name] += dt
            if parent is not None:
                parent.child += dt
        return _TimedStream(self, span, inner)

    def _function_wrapper(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def _stream_wrapper(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self._stream(name, fn, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced callable in every namespace; restore on exit."""
        modules = [importlib.import_module(m) for m in MODULES]
        undo: list[tuple[object, str, object]] = []

        def replace_everywhere(original, wrapper) -> None:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

        try:
            for mod_name, attr, name in FUNCTIONS:
                original = getattr(importlib.import_module("ramseykit." + mod_name), attr)
                replace_everywhere(original, self._function_wrapper(name, original))
            for mod_name, attr, name in STREAMS:
                original = getattr(importlib.import_module("ramseykit." + mod_name), attr)
                replace_everywhere(original, self._stream_wrapper(name, original))
            for mod_name, attr, name in CONSTRUCTORS:
                cls = getattr(importlib.import_module("ramseykit." + mod_name), attr)
                init = cls.__init__
                undo.append((cls, "__init__", init))
                cls.__init__ = self._constructor_wrapper(name, init)
            edge_colouring = importlib.import_module("ramseykit.colouring").EdgeColouring
            colour = edge_colouring.colour
            undo.append((edge_colouring, "colour", colour))
            edge_colouring.colour = self._counting_wrapper(colour)
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)
            self.counts["colouring.colour.calls"] += self._colour_calls[0]
            self._colour_calls[0] = 0

    def _constructor_wrapper(self, name: str, init: Callable) -> Callable:
        def __init__(obj, *args, **kwargs):
            self._call(name, init, (obj,) + args, kwargs)
        __init__.__wrapped__ = init
        return __init__

    def _counting_wrapper(self, method: Callable) -> Callable:
        box = self._colour_calls

        def colour(obj, u, v):
            box[0] += 1
            return method(obj, u, v)
        colour.__wrapped__ = method
        return colour


# Units of the per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("graphs.gnp_generate.s", "s"),
    ("graphs.OrderedGraph.s", "s"),
    ("graphs.edges", "count"),
    ("graphs.clean_subgraph.s", "s"),
    ("graphs.cliques.s", "s"),
    ("graphs.edges_removed", "count"),
    ("graphs.cliques_enumerated", "count"),
    ("colouring.EdgeColouring.s", "s"),
    ("colouring.colour.calls", "count"),
    ("colouring.witness_for.s", "s"),
    ("adversaries.generate_colouring.s", "s"),
    ("adversaries.colours_used", "count"),
    ("search.find_rainbow_copy.s", "s"),
    ("search.find_canonical_copy.s", "s"),
    ("search.nodes_explored", "count"),
    ("search.found_ratio", "ratio"),
    ("erdos_rado.build_sequence.s", "s"),
    ("erdos_rado.extract_canonical.s", "s"),
    ("erdos_rado.er_find.s", "s"),
    ("erdos_rado.branch.sequence", "count"),
    ("erdos_rado.branch.sampling", "count"),
    ("erdos_rado.branch.exhaustive", "count"),
    ("erdos_rado.sequence_ratio", "ratio"),
    ("cutnorm.cutnorm_exact.s", "s"),
    ("cutnorm.exact_flops", "flop"),
    ("cutnorm.exact_gflops", "GFLOP/s"),
    ("cutnorm.hom_density.s", "s"),
    ("cutnorm.cutnorm_heuristic.s", "s"),
    ("harness.run_sweep.s", "s"),
    ("harness.verify_corollary_mode.s", "s"),
    ("harness.scaling_eff_2w", "ratio"),
    ("trace.overhead", "ratio"),
)
# Filled in by run.py rather than from a traced pass.
RUN_METRICS = ("harness.scaling_eff_2w", "trace.overhead")

# Counts that must be identical on every traced pass over the same trials.
EXACT_COUNTS = ("graphs.edges", "graphs.edges_removed", "graphs.cliques_enumerated",
                "colouring.colour.calls", "adversaries.colours_used",
                "search.nodes_explored", "search.searches", "search.found",
                "erdos_rado.branch.sequence", "erdos_rado.branch.sampling",
                "erdos_rado.branch.exhaustive", "erdos_rado.calls",
                "cutnorm.exact_flops")


def exact_counts(tracer: Tracer) -> dict[str, int]:
    return {key: int(tracer.counts[key]) for key in EXACT_COUNTS}


def layer_values(self_times: dict[str, float], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metric values, except RUN_METRICS, from one pass.

    ``.s`` metrics are self seconds over the pass; a layer that the workload
    never calls reads 0.
    """
    out: dict[str, float] = {}
    for name, unit in LAYER_METRICS:
        if name in RUN_METRICS:
            continue
        if unit == "s":
            out[name] = self_times.get(name[:-2], 0.0)
        else:
            out[name] = counts.get(name, 0)
    searches = counts["search.searches"]
    out["search.found_ratio"] = counts["search.found"] / searches if searches else 0.0
    calls = counts["erdos_rado.calls"]
    out["erdos_rado.sequence_ratio"] = (
        counts["erdos_rado.branch.sequence"] / calls if calls else 0.0)
    exact_s = self_times.get("cutnorm.cutnorm_exact", 0.0)
    out["cutnorm.exact_gflops"] = (
        counts["cutnorm.exact_flops"] / exact_s / 1e9 if exact_s > 0 else 0.0)
    return out
