"""Per-layer tracing of `divmax solve`, installed from outside the program.

`Tracer.install` replaces, by module attribute, the functions `divmax.cli`
calls for each layer and the public functions called inside those layers
with wrappers that record spans and counts.  A function or result field
that no longer exists is skipped, and the metrics built on it are reported
as absent.

Spans (name, start, end, parent, solve id) stay in memory and are written
by `dump` when the run ends.  Calls made thousands of times per solve (the
greedy LMO, the slack search, rounding steps) are not kept as spans: their
count and time are added to the enclosing span.  `rank` calls are counted
only.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import Counter, defaultdict

# What `divmax.cli` calls: (module, attribute, span name).
LAYERS = (
    ("divmax.cli", "materialize", "io.materialize"),
    ("divmax.cli", "certify_negative_type", "geometry.certify"),
    ("divmax.cli", "sweep_slices", "relaxation.relax"),
    ("divmax.cli", "round_to_basis", "rounding.round"),
    ("divmax.baselines", "local_search_half", "baselines.local_search"),
    ("divmax.baselines", "brute_force_opt", "baselines.exact"),
)
# Public functions called inside the layers, under every module attribute
# the program looks them up through.
INNER = (
    ("divmax.relaxation", "solve_slice", "relaxation.slice"),
    ("divmax.geometry", "schoenberg_form", "geometry.schoenberg"),
    ("divmax.relaxation", "schoenberg_form", "geometry.schoenberg"),
)
AGGREGATED = (
    ("divmax.relaxation", "greedy_basis_lmo", "matroids.lmo"),
    ("divmax.baselines", "greedy_basis_lmo", "matroids.lmo"),
    ("divmax.rounding", "slack_minimize", "matroids.slack"),
    ("divmax.rounding", "round_step", "rounding.step"),
)
# Layers whose allocations are traced with tracemalloc.
ALLOC_TRACED = ("io.materialize", "geometry.certify")
# Counts read from result fields: span name -> (metric, field path).
RESULT_COUNTS = {
    "relaxation.slice": ("relaxation.fw_iterations", ("iterations",)),
    "relaxation.relax": ("relaxation.best_slice_iterations", ("best", "iterations")),
    "baselines.local_search": ("baselines.local_search_swaps", ("swaps",)),
}


def new_stats() -> dict:
    """Totals over the solves of one pass."""
    return {"s": defaultdict(float), "calls": Counter(), "count": Counter(),
            "peak_mb": defaultdict(float)}


def layer_s(stats: dict) -> float:
    """Seconds the totals spent in the layers `divmax.cli` calls."""
    return sum(stats["s"][name] for _, _, name in LAYERS)


class Tracer:
    """Spans and per-pass totals for the solves of one benchmark run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.solve_id = None
        self.stats = new_stats()
        self.installed = set()
        self.missing_fields = set()

    def install(self, modules: dict) -> None:
        for table, aggregate in ((LAYERS, False), (INNER, False), (AGGREGATED, True)):
            for module, attr, name in table:
                fn = getattr(modules.get(module), attr, None)
                if fn is None:
                    continue
                setattr(modules[module], attr, self._wrap(fn, name, aggregate))
                self.installed.add(name)
        base = getattr(modules.get("divmax.matroids"), "Matroid", None)
        for cls in base.__subclasses__() if base is not None else ():
            if "rank" in vars(cls):
                cls.rank = self._count(vars(cls)["rank"], "matroids.rank")
                self.installed.add("matroids.rank")

    def _count(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.stats["calls"][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, name, aggregate):
        tracer = self
        alloc = name in ALLOC_TRACED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            frame = {"id": None, "children_s": 0.0, "inner": {}}
            if not aggregate:
                frame["id"] = tracer.next_id
                tracer.next_id += 1
            tracer.stack.append(frame)
            if alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer.stack.pop()
            elapsed = end - start
            stats = tracer.stats
            stats["s"][name] += elapsed
            stats["calls"][name] += 1
            if alloc:
                stats["peak_mb"][name] = max(stats["peak_mb"][name], peak / 2**20)
            if parent is not None:
                parent["children_s"] += elapsed
                if aggregate:
                    calls_s = parent["inner"].setdefault(name, [0, 0.0])
                    calls_s[0] += 1
                    calls_s[1] += elapsed
            if not aggregate:
                tracer.spans.append({
                    "id": frame["id"],
                    "name": name,
                    "start": start,
                    "end": end,
                    "self_s": elapsed - frame["children_s"],
                    "parent": parent["id"] if parent else None,
                    "solve": tracer.solve_id,
                    "inner": frame["inner"],
                })
            tracer._read_count(name, result)
            return result

        return wrapper

    def _read_count(self, name, result):
        if name not in RESULT_COUNTS:
            return
        metric, path = RESULT_COUNTS[name]
        value = result
        for field in path:
            value = getattr(value, field, None)
        if value is None:
            self.missing_fields.add(metric)
        else:
            self.stats["count"][metric] += int(value)

    def metrics(self, stats: dict, cli_self_s: float) -> dict:
        """Per-layer metrics of one pass; a metric whose source is gone is absent."""
        s, calls, count, peak = stats["s"], stats["calls"], stats["count"], stats["peak_mb"]
        have = self.installed
        out = {"cli.self_s": cli_self_s}
        sources = {
            "io.materialize_s": (s, "io.materialize"),
            "io.alloc_peak_mb": (peak, "io.materialize"),
            "geometry.certify_s": (s, "geometry.certify"),
            "geometry.alloc_peak_mb": (peak, "geometry.certify"),
            "geometry.schoenberg_calls": (calls, "geometry.schoenberg"),
            "relaxation.relax_s": (s, "relaxation.relax"),
            "relaxation.slices": (calls, "relaxation.slice"),
            "matroids.lmo_calls": (calls, "matroids.lmo"),
            "matroids.lmo_s": (s, "matroids.lmo"),
            "matroids.slack_calls": (calls, "matroids.slack"),
            "matroids.slack_s": (s, "matroids.slack"),
            "matroids.rank_calls": (calls, "matroids.rank"),
            "rounding.round_s": (s, "rounding.round"),
            "rounding.steps": (calls, "rounding.step"),
            "baselines.local_search_s": (s, "baselines.local_search"),
            "baselines.exact_s": (s, "baselines.exact"),
        }
        for metric, (table, name) in sources.items():
            if name in have:
                out[metric] = table[name]
        for span, (metric, _) in RESULT_COUNTS.items():
            if span in have and metric not in self.missing_fields:
                out[metric] = count[metric]
        best = out.pop("relaxation.best_slice_iterations", None)
        iterations = out.get("relaxation.fw_iterations")
        if iterations:
            if best is not None:
                out["relaxation.best_slice_iter_frac"] = best / iterations
            if "relaxation.relax_s" in out:
                out["relaxation.s_per_iter"] = out["relaxation.relax_s"] / iterations
        return out

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)
