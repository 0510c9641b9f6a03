"""Spans around the calls that cross `mcn` module boundaries.

Each target is patched under the name its caller looks up (for example
``mcn.control.hopcroft_karp``, which ``min_drivers_matching`` calls), and
recorded under the module that defines it. Spans nest: a span's self time
is its duration minus the durations of the spans it encloses. Patches are
undone when the tracer closes. A target that no longer exists is reported
as absent rather than failing the run.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter, defaultdict
from typing import Any, Callable

# Counter functions get (args, result) and return {counter name: amount}.
Counters = Callable[[tuple, Any], dict[str, float]]


def _written_bytes(args: tuple, result: Any) -> dict[str, float]:
    # The CLI hands write_edge_list a freshly opened file, so its position
    # after the call is the number of bytes the call wrote.
    file = args[1]
    return {"bytes": file.tell() if hasattr(file, "tell") else os.path.getsize(file)}


def _matched(args: tuple, result: Any) -> dict[str, float]:
    return {"matched": sum(1 for w in result[1] if w >= 0)}


def _steps_bound(args: tuple, result: Any) -> dict[str, float]:
    return {"steps_bound": result.witness // max(c.modulus for c in args[0].items)}


# (object the caller looks the name up in, attribute, span name, counters)
TARGETS: list[tuple[str, str, str, Counters | None]] = [
    ("mcn.cli", "build_layer", "layers.build_layer", lambda a, r: {"edges": r.num_edges}),
    ("mcn.cli", "empirical_distribution", "layers.empirical_distribution", None),
    ("mcn.cli", "write_histogram_csv", "layers.write_histogram_csv", None),
    ("mcn.digraph:Digraph", "__init__", "digraph.Digraph.init", None),
    ("mcn.digraph:Digraph", "subgraph", "digraph.Digraph.subgraph", None),
    ("mcn.cli", "write_edge_list", "digraph.write_edge_list", _written_bytes),
    ("mcn.cli", "read_edge_list", "digraph.read_edge_list", lambda a, r: {"edges": r.num_edges}),
    ("mcn.control", "coupling_matrix", "control.coupling_matrix", lambda a, r: {"nnz": len(r.entries)}),
    ("mcn.cli", "min_drivers_exact", "control.min_drivers_exact",
     lambda a, r: {"rank_deficit": r.n_nodes - r.rank}),
    ("mcn.cli", "min_drivers_matching", "control.min_drivers_matching", None),
    ("mcn.attacks", "min_drivers_matching", "control.min_drivers_matching", None),
    ("mcn.control", "hopcroft_karp", "matching.hopcroft_karp", _matched),
    ("mcn.cli", "attack_curve", "attacks.attack_curve",
     lambda a, r: {"trials": sum(pt.trials for pt in r.points)}),
    ("mcn.attacks", "remove_nodes", "attacks.remove_nodes", None),
    ("mcn.cli", "generate_static_sf", "attacks.generate_static_sf", lambda a, r: {"edges": r.num_edges}),
    ("mcn.cli", "solve_graphical", "crt.solve_graphical", _steps_bound),
    ("mcn.cli", "solve_garner", "crt.solve_garner", None),
]

# Per-layer metrics: name -> (unit, better, end-to-end metric it should
# move, workloads on which it should move). Self times and counts are per
# job; rates divide the span's counter by its self time.
PER_LAYER: dict[str, tuple[str, str, str, str]] = {
    "cli.main.self_s": ("s/job", "lower", "every *_p50_s", "all"),
    "layers.build_layer.self_s": ("s/job", "lower", "build_p50_s, stats_p50_s; attack_p50_s", "layers; attack"),
    "layers.build_layer.edges_per_s": ("1/s", "higher", "build_p50_s, stats_p50_s; attack_p50_s", "layers; attack"),
    "layers.empirical_distribution.self_s": ("s/job", "lower", "stats_p50_s", "layers"),
    "layers.write_histogram_csv.self_s": ("s/job", "lower", "stats_p50_s", "layers"),
    "digraph.Digraph.init.self_s": ("s/job", "lower",
                                    "build_p50_s, control_p50_s, attack_p50_s, sf_p50_s; peak_rss_mb",
                                    "layers, attack"),
    "digraph.Digraph.init.calls": ("count/job", "lower",
                                   "build_p50_s, control_p50_s, attack_p50_s, sf_p50_s; peak_rss_mb",
                                   "layers, attack"),
    "digraph.write_edge_list.self_s": ("s/job", "lower", "build_p50_s; sf_p50_s", "layers; attack, exact"),
    "digraph.write_edge_list.bytes": ("B/job", "lower", "build_p50_s; sf_p50_s", "layers; attack, exact"),
    "digraph.read_edge_list.self_s": ("s/job", "lower", "control_p50_s; attack_p50_s", "layers, exact; attack"),
    "digraph.read_edge_list.edges_per_s": ("1/s", "higher", "control_p50_s; attack_p50_s",
                                           "layers, exact; attack"),
    "digraph.Digraph.subgraph.self_s": ("s/job", "lower", "attack_p50_s", "attack"),
    "digraph.Digraph.subgraph.calls": ("count/job", "lower", "attack_p50_s", "attack"),
    "control.coupling_matrix.self_s": ("s/job", "lower", "control_p50_s, peak_rss_mb", "layers, exact"),
    "control.coupling_matrix.nnz": ("count/job", "lower", "control_p50_s, peak_rss_mb", "layers, exact"),
    "control.min_drivers_exact.self_s": ("s/job", "lower", "control_p50_s", "exact (fill-in), layers (none)"),
    "control.min_drivers_exact.rank_deficit": ("count/job", "lower", "control_p50_s",
                                               "exact (fill-in), layers (none)"),
    "control.min_drivers_matching.self_s": ("s/job", "lower", "attack_p50_s; control_p50_s", "attack; layers"),
    "control.min_drivers_matching.calls": ("count/job", "lower", "attack_p50_s; control_p50_s", "attack; layers"),
    "matching.hopcroft_karp.self_s": ("s/job", "lower", "attack_p50_s; control_p50_s", "attack; layers"),
    "matching.hopcroft_karp.matched": ("count/job", "higher", "attack_p50_s; control_p50_s", "attack; layers"),
    "attacks.attack_curve.self_s": ("s/job", "lower", "attack_p50_s", "attack"),
    "attacks.attack_curve.trials": ("count/job", "lower", "attack_p50_s", "attack"),
    "attacks.remove_nodes.self_s": ("s/job", "lower", "attack_p50_s", "attack"),
    "attacks.generate_static_sf.self_s": ("s/job", "lower", "sf_p50_s", "attack, exact"),
    "attacks.generate_static_sf.edges_per_s": ("1/s", "higher", "sf_p50_s", "attack, exact"),
    "crt.solve_graphical.self_s": ("s/job", "lower", "crt_p50_s", "exact"),
    "crt.solve_graphical.steps_bound": ("count/job", "lower", "crt_p50_s", "exact"),
    "crt.solve_garner.self_s": ("s/job", "lower", "crt_p50_s (expected flat)", "exact"),
    "trace.jobs_per_s_ratio": ("ratio", "higher", "none: traced over untraced jobs_per_s on the same jobs", "all"),
}


def _resolve(owner: str) -> Any:
    module, _, attr = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


class Tracer:
    """Installs the spans and accumulates self time, calls and counters."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._children = [0.0]  # time covered by child spans, one entry per open span
        self._patched: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name, counters in TARGETS:
            try:
                obj = _resolve(owner)
                original = getattr(obj, attr)
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue
            setattr(obj, attr, self._wrap(original, name, counters))
            self._patched.append((obj, attr, original))
        return self

    def __exit__(self, *exc: object) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            children = self._children.pop()
            self._children[-1] += duration
            self.self_s[name] += duration - children
            self.calls[name] += 1

    def _wrap(self, fn: Callable, name: str, counters: Counters | None) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            result = self.call(name, fn, *args, **kwargs)
            if counters is not None:
                try:
                    amounts = counters(args, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    self.absent.add(name + ".counters")
                else:
                    for key, value in amounts.items():
                        self.counts[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def metrics(self, jobs: int, overhead_ratio: float) -> dict[str, float]:
        """Every PER_LAYER value; spans absent or never called read 0."""
        values = {}
        for metric in PER_LAYER:
            span, _, kind = metric.rpartition(".")
            if metric == "trace.jobs_per_s_ratio":
                value = overhead_ratio
            elif kind == "self_s":
                value = self.self_s[span] / jobs
            elif kind == "calls":
                value = self.calls[span] / jobs
            elif kind.endswith("_per_s"):
                busy = self.self_s[span]
                value = self.counts[f"{span}.{kind[:-len('_per_s')]}"] / busy if busy else 0.0
            else:
                value = self.counts[metric] / jobs
            values[metric] = value
        return values

    def silent(self) -> list[str]:
        """Span names of PER_LAYER that were absent or never called."""
        spans = {m.rpartition(".")[0] for m in PER_LAYER} - {"trace"}
        return sorted(s for s in spans if s in self.absent or not self.calls[s])
