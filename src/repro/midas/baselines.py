"""Baselines for the experimental comparison (Section 7.1).

* :class:`RandomSwapMaintainer` — identical plumbing to MIDAS but the
  multi-scan swap is replaced by *random* swapping: candidates replace
  uniformly-chosen displayed patterns with no quality criteria ("Random"
  in the paper's figures).
* :class:`NoMaintainBaseline` — the pattern set selected at bootstrap is
  never touched ("NoMaintain"); only the database snapshot advances.
* :func:`from_scratch` — maintenance-from-scratch: re-run CATAPULT or
  CATAPULT++ on ``D ⊕ ΔD`` and take the fresh pattern set.
"""

from __future__ import annotations

import random
import time

from ..catapult.pipeline import Catapult, CatapultConfig, CatapultPlusPlus
from ..graph.database import BatchUpdate, GraphDatabase
from ..graph.labeled_graph import LabeledGraph
from ..patterns.metrics import PanelCovers
from ..patterns.pattern import PatternSet
from .config import MidasConfig
from .maintainer import MaintenanceReport, Midas
from .swap import SwapOutcome, SwapRecord


class RandomSwapMaintainer(Midas):
    """MIDAS with the multi-scan swap replaced by random swapping."""

    name = "random"

    def _run_swap(
        self, promising: list[LabeledGraph], panel: PanelCovers
    ) -> SwapOutcome:
        outcome = SwapOutcome()
        if not promising or len(self.patterns) == 0:
            return outcome
        rng = random.Random(self.config.seed * 31 + len(promising))
        candidates = list(promising)
        rng.shuffle(candidates)
        # Swap as many candidates as half the display, unconditionally.
        budget = max(1, len(self.patterns) // 2)
        outcome.scans = 1
        for candidate in candidates[:budget]:
            if self.patterns.has_isomorphic(candidate):
                continue
            outcome.candidates_considered += 1
            victim_id = rng.choice(self.patterns.ids())
            removed = self.patterns.get(victim_id)
            added = self.patterns.swap(
                victim_id, candidate, provenance=self.name
            )
            outcome.swaps.append(
                SwapRecord(
                    removed_id=victim_id,
                    removed_graph=removed.graph,
                    added_id=added.pattern_id,
                    added_graph=added.graph,
                    scan=1,
                )
            )
        return outcome


class NoMaintainBaseline:
    """A static GUI: the initial pattern set is never refreshed."""

    name = "nomaintain"

    def __init__(
        self, config: MidasConfig, database: GraphDatabase, patterns: PatternSet
    ) -> None:
        self.config = config
        self.database = database
        self.patterns = patterns

    @classmethod
    def bootstrap(
        cls, database: GraphDatabase, config: MidasConfig | None = None
    ) -> "NoMaintainBaseline":
        config = config or MidasConfig()
        snapshot = database.copy()
        state = CatapultPlusPlus(config).run(snapshot)
        return cls(config, snapshot, state.patterns)

    def apply_update(self, update: BatchUpdate) -> float:
        """Advance the database; the patterns stay stale by design.

        Returns the seconds the database update took.
        """
        started = time.perf_counter()
        self.database.apply(update)
        return time.perf_counter() - started

    def pattern_graphs(self) -> list[LabeledGraph]:
        return [p.graph for p in self.patterns]


def from_scratch(
    database: GraphDatabase,
    update: BatchUpdate,
    config: CatapultConfig | None = None,
    plus_plus: bool = False,
) -> tuple[PatternSet, dict[str, float], GraphDatabase]:
    """Maintenance-from-scratch baseline.

    Applies ΔD and re-runs the full selection pipeline on the updated
    database.  Returns the fresh pattern set, the pipeline's seconds
    per phase (their sum is the from-scratch "maintenance" time the
    speedup plots compare against) and the updated database.
    """
    config = config or CatapultConfig()
    updated = database.updated(update)
    pipeline = CatapultPlusPlus(config) if plus_plus else Catapult(config)
    result = pipeline.run(updated)
    return result.patterns, result.phases, updated


def maintenance_report_summary(report: MaintenanceReport) -> dict[str, float]:
    """Flatten a report into the metrics the benchmark tables print."""
    return {
        "pmt_seconds": report.pattern_maintenance_seconds,
        "pgt_seconds": report.pattern_generation_seconds,
        "cluster_seconds": report.cluster_maintenance_seconds,
        "distance": report.classification.distance,
        "major": float(report.is_major),
        "swaps": float(report.num_swaps),
        "candidates": float(report.candidates_generated),
        "promising": float(report.candidates_promising),
    }
