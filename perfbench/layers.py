"""Per-layer tracing of the pointgraphs package from outside it.

Every public function of every package module is replaced by a wrapper at
each place a caller looks the name up (``pointgraphs.samplers.coin``,
``pointgraphs.harness.sample``, ...), so intra-package calls are traced
without touching the package source.  Each wrapper records one span
(name, start, end, parent) while recording is on, keeps a running self
time (duration minus the time direct child spans cover) and updates the
counters that belong to its layer.  Spans stay in memory and are written
out once, at the end of the traced run.

A layer is one package module.  ``LAYER_METRICS`` lists the metrics
reported per workload, each with the end-to-end metric and workloads it
should move; BENCHMARK.json carries the same names and units.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import tracemalloc
from array import array
from collections import Counter

LAYERS = (
    "cli",
    "harness",
    "samplers",
    "kernels",
    "coins",
    "pairs",
    "windows",
    "groups",
    "stats",
    "edgelist",
)

_COIN_DRAWS = frozenset({"coin", "coin_u64", "coin_position"})
_POINT_TAGS = frozenset({"rad", "posx"})
_SAMPLERS = frozenset({"sample_graphon", "sample_graphex", "sample_rotinv"})
_HARNESS_TESTS = frozenset(
    {"test_projectivity", "test_invariance", "test_compatibility",
     "enumerate_labeled_distribution"}
)
_MIB = float(1 << 20)

# (name, unit, better, which end-to-end metric it should move, on which workloads)
LAYER_METRICS = (
    ("coins.calls", "count", "lower", "ops_per_s", "dense-graphon, certify-suite"),
    ("coins.calls.edge", "count", "lower", "ops_per_s", "dense-graphon; reads 0 on geo-hard-3d"),
    ("coins.self_s", "s", "lower", "ops_per_s", "dense-graphon, certify-suite"),
    ("coins.ns_per_call", "ns", "lower", "ops_per_s", "dense-graphon, certify-suite"),
    ("kernels.calls", "count", "lower", "ops_per_s", "geo-hard-3d, dense-graphon"),
    ("kernels.pair_evals", "count", "lower", "ops_per_s", "geo-hard-3d"),
    ("kernels.self_s", "s", "lower", "ops_per_s", "geo-hard-3d"),
    ("kernels.computed_mib", "MiB", "lower", "peak_rss_mib", "geo-hard-3d"),
    ("kernels.peak_mib", "MiB", "lower", "peak_rss_mib", "geo-hard-3d"),
    ("samplers.self_s", "s", "lower", "ops_per_s", "dense-graphon, geo-hard-3d"),
    ("samplers.pairs", "count", "lower", "ops_per_s", "dense-graphon, geo-hard-3d"),
    ("samplers.pairs_coinless_ratio", "ratio", "higher", "ops_per_s", "dense-graphon"),
    ("samplers.points_kept_ratio", "ratio", "higher", "ops_per_s", "geo-hard-3d"),
    ("samplers.vertices", "count", "higher", "ops_per_s", "dense-graphon, geo-hard-3d"),
    ("samplers.edges", "count", "higher", "ops_per_s", "dense-graphon, geo-hard-3d"),
    ("windows.contains_calls", "count", "lower", "ops_per_s", "certify-suite, geo-hard-3d"),
    ("windows.self_s", "s", "lower", "ops_per_s", "certify-suite, geo-hard-3d"),
    ("pairs.make_graph_calls", "count", "lower", "ops_per_s", "certify-suite, geo-hard-3d"),
    ("pairs.validated_labels", "count", "lower", "ops_per_s", "certify-suite, geo-hard-3d"),
    ("pairs.self_s", "s", "lower", "ops_per_s", "certify-suite, geo-hard-3d"),
    ("stats.calls", "count", "lower", "ops_per_s", "dense-graphon"),
    ("stats.self_s", "s", "lower", "ops_per_s", "dense-graphon"),
    ("edgelist.self_s", "s", "lower", "ops_per_s", "dense-graphon"),
    ("edgelist.bytes_written", "bytes", "lower", "ops_per_s", "dense-graphon"),
    ("edgelist.bytes_read", "bytes", "lower", "ops_per_s", "dense-graphon"),
    ("groups.label_actions", "count", "lower", "ops_per_s", "certify-suite"),
    ("groups.self_s", "s", "lower", "ops_per_s", "certify-suite"),
    ("harness.trials", "count", "higher", "ops_per_s", "certify-suite"),
    ("harness.self_s", "s", "lower", "ops_per_s", "certify-suite"),
    ("cli.self_s", "s", "lower", "setup_s, ops_per_s", "all three"),
    ("trace.overhead_ratio", "ratio", "lower", "none (tracing cost)", "all three"),
)


class Tracer:
    """Span recorder and counters for one traced process."""

    def __init__(self):
        self.recording = False
        self.names: list[str] = []
        self._name_layer: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self.self_ns = Counter()  # per function name
        self.counts = Counter()
        self.kernel_peak_bytes = 0

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of every layer module, where callers look it up."""
        modules = [sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS]
        originals = {}
        for layer, module in zip(LAYERS, modules):
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == module.__name__
                ):
                    originals[id(fn)] = (fn, self._wrap(layer, fn))
        for module in modules + [package]:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        name_id = len(self.names)
        self.names.append(name)
        self._name_layer.append(layer)
        hook = self._hook_for(layer, fn)
        measure_heap = name == "kernels.geo_prob_matrix"
        stack, child_ns, self_ns = self._stack, self._child_ns, self.self_ns
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(span_start)
            span_name.append(name_id)
            span_parent.append(parent)
            span_start.append(0)
            span_end.append(0)
            stack.append(idx)
            child_ns.append(0)
            if measure_heap:
                tracemalloc.start()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if measure_heap:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.kernel_peak_bytes = max(self.kernel_peak_bytes, peak)
                stack.pop()
                dur = t1 - t0
                self_ns[name] += dur - child_ns.pop()
                if child_ns:
                    child_ns[-1] += dur
                span_start[idx] = t0
                span_end[idx] = t1
            if hook is not None:
                parent_layer = self._name_layer[span_name[parent]] if parent >= 0 else None
                hook(args, kwargs, result, parent_layer)
            return result

        return wrapper

    # -- per-layer counters -------------------------------------------------

    def _hook_for(self, layer: str, fn):
        counts = self.counts
        fname = fn.__name__
        if layer == "coins" and fname in _COIN_DRAWS:
            def hook(args, kwargs, result, parent_layer):
                counts["coins.calls"] += 1
                tag = args[1]
                if tag == "edge":
                    counts["coins.calls.edge"] += 1
                elif tag in _POINT_TAGS:
                    counts["samplers.points_drawn"] += 1
            return hook
        if layer == "kernels":
            def hook(args, kwargs, result, parent_layer):
                counts["kernels.calls"] += 1
                if fname in ("graphon_prob", "graphex_prob"):
                    counts["kernels.pair_evals"] += 1
                    if parent_layer == "samplers":
                        counts["samplers.pairs"] += 1
                elif fname == "geo_prob_matrix":
                    k, d = args[1].shape
                    counts["kernels.pair_evals"] += k * k
                    counts["kernels.computed_bytes"] += k * k * d * 8
                    if parent_layer == "samplers":
                        counts["samplers.pairs"] += k * (k - 1) // 2
            return hook
        if layer == "samplers" and fname in _SAMPLERS:
            def hook(args, kwargs, result, parent_layer):
                counts["samplers.vertices"] += result.n_vertices
                counts["samplers.edges"] += result.n_edges
            return hook
        if layer == "windows" and fname == "contains":
            def hook(args, kwargs, result, parent_layer):
                counts["windows.contains_calls"] += 1
                if result and parent_layer == "samplers":
                    counts["samplers.points_kept"] += 1
            return hook
        if layer == "pairs" and fname == "make_graph":
            def hook(args, kwargs, result, parent_layer):
                counts["pairs.make_graph_calls"] += 1
                counts["pairs.validated_labels"] += result.n_vertices
            return hook
        if layer == "stats":
            def hook(args, kwargs, result, parent_layer):
                counts["stats.calls"] += 1
            return hook
        if layer == "edgelist" and fname == "dumps_graph":
            def hook(args, kwargs, result, parent_layer):
                counts["edgelist.bytes_written"] += len(result.encode("utf-8"))
            return hook
        if layer == "edgelist" and fname == "read_graph":
            def hook(args, kwargs, result, parent_layer):
                fh = args[0]
                if hasattr(fh, "getvalue"):
                    size = len(fh.getvalue().encode("utf-8"))
                else:
                    size = os.fstat(fh.fileno()).st_size
                counts["edgelist.bytes_read"] += size
            return hook
        if layer == "groups" and fname == "apply_label":
            def hook(args, kwargs, result, parent_layer):
                counts["groups.label_actions"] += 1
            return hook
        if layer == "harness" and fname in _HARNESS_TESTS:
            sig = inspect.signature(fn)

            def hook(args, kwargs, result, parent_layer):
                bound = sig.bind(*args, **kwargs).arguments
                counts["harness.trials"] += bound.get("N", bound.get("trials", 0))
            return hook
        return None

    # -- results -------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(ns for name, ns in self.self_ns.items() if name.startswith(layer + ".")) / 1e9

    def layer_metrics(self, ops: int) -> dict:
        """Per-op layer metrics over ``ops`` traced ops (trace.overhead_ratio excluded)."""
        c = self.counts
        draw_ns = sum(self.self_ns[f"coins.{f}"] for f in _COIN_DRAWS)
        pairs = c["samplers.pairs"]
        drawn = c["samplers.points_drawn"]
        out = {
            "coins.calls": c["coins.calls"] / ops,
            "coins.calls.edge": c["coins.calls.edge"] / ops,
            "coins.self_s": self.layer_self_s("coins") / ops,
            "coins.ns_per_call": draw_ns / c["coins.calls"] if c["coins.calls"] else 0.0,
            "kernels.calls": c["kernels.calls"] / ops,
            "kernels.pair_evals": c["kernels.pair_evals"] / ops,
            "kernels.self_s": self.layer_self_s("kernels") / ops,
            "kernels.computed_mib": c["kernels.computed_bytes"] / _MIB / ops,
            "kernels.peak_mib": self.kernel_peak_bytes / _MIB,
            "samplers.self_s": self.layer_self_s("samplers") / ops,
            "samplers.pairs": pairs / ops,
            "samplers.pairs_coinless_ratio": (
                (pairs - c["coins.calls.edge"]) / pairs if pairs else 0.0
            ),
            "samplers.points_kept_ratio": c["samplers.points_kept"] / drawn if drawn else 0.0,
            "samplers.vertices": c["samplers.vertices"] / ops,
            "samplers.edges": c["samplers.edges"] / ops,
            "windows.contains_calls": c["windows.contains_calls"] / ops,
            "windows.self_s": self.layer_self_s("windows") / ops,
            "pairs.make_graph_calls": c["pairs.make_graph_calls"] / ops,
            "pairs.validated_labels": c["pairs.validated_labels"] / ops,
            "pairs.self_s": self.layer_self_s("pairs") / ops,
            "stats.calls": c["stats.calls"] / ops,
            "stats.self_s": self.layer_self_s("stats") / ops,
            "edgelist.self_s": self.layer_self_s("edgelist") / ops,
            "edgelist.bytes_written": c["edgelist.bytes_written"] / ops,
            "edgelist.bytes_read": c["edgelist.bytes_read"] / ops,
            "groups.label_actions": c["groups.label_actions"] / ops,
            "groups.self_s": self.layer_self_s("groups") / ops,
            "harness.trials": c["harness.trials"] / ops,
            "harness.self_s": self.layer_self_s("harness") / ops,
            "cli.self_s": self.layer_self_s("cli") / ops,
        }
        return out

    def write_spans(self, path) -> int:
        """Write every recorded span to an .npz file; return the span count."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )
        return len(self.span_start)
