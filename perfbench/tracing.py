"""Per-layer timing from the benchmark's own files.

:meth:`LayerClock.install` wraps the public functions of each layer
(the repo's modules) and counts calls and busy time at those
boundaries.  Busy time counts only the outermost call of a layer, so
recursion is not counted twice; self time is busy time minus the time
spent in nested wrapped calls.  Untraced runs never call ``install``.

Module-level functions are wrapped in their defining module *and* in
every ``repro`` module that imported the name, and each binding counts
its own calls, so :meth:`LayerClock.unfired` can show a binding that
the workload was expected to reach but never did.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict

#: Modules imported before wrapping so every ``from x import name``
#: binding already exists when the wrappers are installed.
PRELOAD = (
    "repro.api",
    "repro.cli",
    "repro.serve",
    "repro.journal",
    "repro.ged",
    "repro.catapult.pipeline",
    "repro.midas.maintainer",
    "repro.trees.treenat",
    "repro.trees.features",
)

#: Bindings of ``contains`` / ``canonical_certificate`` that every
#: workload must reach; a traced run fails if one never fires.
MUST_FIRE = (
    "contains@repro.patterns.metrics",
    "contains@repro.catapult.selection",
    "contains@repro.trees.maintenance",
    "canonical_certificate@repro.patterns.metrics",
    "canonical_certificate@repro.patterns.pattern",
)
#: Reached only when a round swaps, which evolve forces; serve rounds
#: may all classify minor.
MUST_FIRE_SWAP = ("canonical_certificate@repro.midas.swap",)

#: (layer, owner module, attribute) for module-level functions.
FUNCTIONS = (
    ("graph.certificate", "repro.graph.canonical", "canonical_certificate"),
    ("isomorphism.contains", "repro.isomorphism.matcher", "contains"),
    ("ged", "repro.ged", "ged"),
)

#: (layer, module, class, method) for methods; classmethods included.
METHODS = (
    ("patterns.cover", "repro.patterns.metrics", "CoverageOracle", "cover"),
    ("patterns.lcov", "repro.patterns.metrics", "CoverageOracle", "lcov"),
    ("catapult.select", "repro.catapult.selection", "GreedySelector", "select"),
    ("catapult.generate", "repro.catapult.candidate", "CandidateGenerator", "generate"),
    ("midas.prune", "repro.midas.pruning", "PruningContext", "is_promising"),
    ("midas.swap", "repro.midas.swap", "MultiScanSwapper", "run"),
    ("midas.round", "repro.midas.maintainer", "Midas", "apply_update"),
    ("trees.mine", "repro.trees.maintenance", "FCTSet", "__init__"),
    ("trees.maintain", "repro.trees.maintenance", "FCTSet", "apply"),
    ("graphlets.classify", "repro.midas.detector", "ModificationDetector", "classify"),
    ("clustering.build", "repro.clustering.maintenance", "ClusterSet", "build"),
    ("clustering.assign", "repro.clustering.maintenance", "ClusterSet", "assign"),
    ("csg.build", "repro.csg.maintenance", "CSGSet", "build"),
    ("csg.integrate", "repro.csg.maintenance", "CSGSet", "integrate"),
    ("index.build", "repro.index.maintenance", "IndexPair", "build"),
    ("index.maintain", "repro.index.maintenance", "IndexPair", "apply_update"),
    ("index.maintain", "repro.index.maintenance", "IndexPair", "sync_patterns"),
)

#: Program counters (repro.obs) reported as they stand, prefixed ``obs.``.
OBS_COUNTERS = (
    "vf2.calls",
    "vf2.cover_calls",
    "vf2.searches",
    "vf2.states_explored",
    "vf2.backtracks",
    "vf2.prefilter_cutoffs",
    "swap.ged_cache_hits",
    "swap.ged_cache_misses",
    "swap.candidates_considered",
    "swap.swaps",
    "covindex.filter_queries",
    "covindex.verifications",
    "covindex.candidates_pruned",
    "covindex.frag.registrations",
    "cache.embed.hits",
    "cache.embed.misses",
    "cache.ged.hits",
    "cache.ged.misses",
    "cache.invalidations",
    "parallel.tasks",
    "parallel.fanouts",
    "parallel.serial_fallbacks",
    "resilience.degradations",
    "resilience.rollbacks",
)

#: Every per-layer metric, in BENCHMARK.json order.  A traced run of
#: either workload reports all of them; ``serve.*`` and ``journal.*``
#: read 0 on evolve.
PER_LAYER = (
    "graph.certificate_calls",
    "graph.certificate_s",
    "isomorphism.contains_calls",
    "isomorphism.contains_s",
    "isomorphism.contains_hit_ratio",
    "patterns.cover_calls",
    "patterns.cover_s",
    "patterns.lcov_calls",
    "patterns.lcov_s",
    "ged.calls",
    "ged.s",
    "catapult.select_s",
    "catapult.generate_s",
    "catapult.candidates",
    "midas.prune_s",
    "midas.promising_ratio",
    "midas.swap_s",
    "midas.swaps_per_candidate",
    "midas.round_self_s",
    "trees.mine_s",
    "trees.maintain_s",
    "graphlets.classify_s",
    "clustering.build_s",
    "clustering.assign_s",
    "csg.build_s",
    "csg.integrate_s",
    "index.build_s",
    "index.maintain_s",
    "serve.patterns_p50_ms",
    "serve.cover_p50_ms",
    "serve.scov_p50_ms",
    "serve.read_p99_ms",
    "serve.generator_lag_ms",
    "serve.round_s",
    "journal.ack_p50_ms",
    "journal.fsyncs",
    "obs.trace_overhead",
    "midas.pmt_speedup",
) + tuple(f"obs.{name}" for name in OBS_COUNTERS)


def empty_metrics() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


#: Layer metric → the end-to-end metrics (and workloads) it should move.
LAYER_MAP = {
    "graph.certificate_*": "setup_s, round_s",
    "isomorphism.contains_*": "setup_s, round_s",
    "patterns.cover_*, patterns.lcov_*": "setup_s, round_s",
    "ged.*": "round_s",
    "catapult.select_s": "setup_s",
    "catapult.generate_s, catapult.candidates": "round_s",
    "midas.prune_s, midas.promising_ratio": "round_s",
    "midas.swap_s, midas.swaps_per_candidate": "round_s",
    "midas.round_self_s": "round_s, peak_rss_mb",
    "trees.mine_s": "setup_s",
    "trees.maintain_s": "round_s",
    "graphlets.classify_s, clustering.*, csg.*, index.*": (
        "round_s; setup_s for the builds"
    ),
    "serve.*_p50_ms, serve.generator_lag_ms": "serve read latency",
    "serve.read_p99_ms": "serve read tail; rises with serve.round_s",
    "serve.round_s": "visible_s (serve)",
    "journal.ack_p50_ms, journal.fsyncs": "visible_s (serve)",
    "obs.trace_overhead": "traced round_s / untraced round_s",
    "midas.pmt_speedup": "from-scratch CATAPULT++ on the final database / round_s",
}


class LayerClock:
    """Call counts, busy time and self time per layer, thread-aware."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.truthy: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        self.swaps = 0
        self.swap_candidates = 0
        self.binding_calls: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = defaultdict(int)
        return local

    def _wrap(self, layer: str, binding: str, function):
        clock = self

        def traced(*args, **kwargs):
            local = clock._state()
            outermost = local.depth[layer] == 0
            local.depth[layer] += 1
            local.stack.append(0.0)
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                nested = local.stack.pop()
                local.depth[layer] -= 1
                if local.stack:
                    local.stack[-1] += elapsed
                with clock._lock:
                    clock.calls[layer] += 1
                    clock.binding_calls[binding] += 1
                    clock.self_time[layer] += elapsed - nested
                    if outermost:
                        clock.busy[layer] += elapsed
            clock._observe(layer, result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", layer)
        return traced

    def _observe(self, layer: str, result) -> None:
        with self._lock:
            if layer in ("isomorphism.contains", "midas.prune") and result:
                self.truthy[layer] += 1
            elif layer == "catapult.generate":
                self.items[layer] += len(result)
            elif layer == "midas.swap":
                self.swaps += result.num_swaps
                self.swap_candidates += result.candidates_considered

    def _patch(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    # ------------------------------------------------------------------
    def install(self) -> None:
        for name in PRELOAD:
            importlib.import_module(name)
        for layer, module_name, attribute in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attribute)
            for name, module in sorted(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                if module.__dict__.get(attribute) is original:
                    binding = f"{attribute}@{name}"
                    self._patch(module, attribute, self._wrap(layer, binding, original))
        for layer, module_name, class_name, method in METHODS:
            owner = getattr(importlib.import_module(module_name), class_name)
            raw = owner.__dict__[method]
            binding = f"{class_name}.{method}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, binding, raw.__func__))
            else:
                wrapped = self._wrap(layer, binding, raw)
            self._patch(owner, method, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def unfired(self, required=MUST_FIRE) -> list[str]:
        return [b for b in required if self.binding_calls.get(b, 0) == 0]

    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """The in-process per-layer metrics, by their benchmark names."""
        calls, busy = self.calls, self.busy
        out = {
            "graph.certificate_calls": calls["graph.certificate"],
            "graph.certificate_s": busy["graph.certificate"],
            "isomorphism.contains_calls": calls["isomorphism.contains"],
            "isomorphism.contains_s": busy["isomorphism.contains"],
            "isomorphism.contains_hit_ratio": _ratio(
                self.truthy["isomorphism.contains"], calls["isomorphism.contains"]
            ),
            "patterns.cover_calls": calls["patterns.cover"],
            "patterns.cover_s": busy["patterns.cover"],
            "patterns.lcov_calls": calls["patterns.lcov"],
            "patterns.lcov_s": busy["patterns.lcov"],
            "ged.calls": calls["ged"],
            "ged.s": busy["ged"],
            "catapult.select_s": busy["catapult.select"],
            "catapult.generate_s": busy["catapult.generate"],
            "catapult.candidates": self.items["catapult.generate"],
            "midas.prune_s": busy["midas.prune"],
            "midas.promising_ratio": _ratio(
                self.truthy["midas.prune"], calls["midas.prune"]
            ),
            "midas.swap_s": busy["midas.swap"],
            "midas.swaps_per_candidate": _ratio(self.swaps, self.swap_candidates),
            "midas.round_self_s": self.self_time["midas.round"],
            "trees.mine_s": busy["trees.mine"],
            "trees.maintain_s": busy["trees.maintain"],
            "graphlets.classify_s": busy["graphlets.classify"],
            "clustering.build_s": busy["clustering.build"],
            "clustering.assign_s": busy["clustering.assign"],
            "csg.build_s": busy["csg.build"],
            "csg.integrate_s": busy["csg.integrate"],
            "index.build_s": busy["index.build"],
            "index.maintain_s": busy["index.maintain"],
        }
        return {name: float(value) for name, value in out.items()}

    def table(self) -> list[dict]:
        """One row per layer: calls, busy and self seconds."""
        return [
            {
                "layer": layer,
                "calls": self.calls[layer],
                "busy_s": self.busy[layer],
                "self_s": self.self_time[layer],
            }
            for layer in sorted(self.calls)
        ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def obs_metrics(counters: dict[str, int]) -> dict[str, float]:
    """The selected ``repro.obs`` counters, zero when never touched."""
    return {f"obs.{name}": float(counters.get(name, 0)) for name in OBS_COUNTERS}
