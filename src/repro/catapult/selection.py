"""Greedy canned-pattern selection (the CATAPULT selector).

CATAPULT iterates: score every final candidate pattern with
``s_p = ccov × lcov × div/cog`` (Definition 2.1), add the best to the
pattern set, decay the weights of its CSG edges (multiplicative weights
update) and regenerate candidates, until γ patterns are selected or no
admissible candidate remains (paper, Section 2.3).

The selector honours the per-size quota of the pattern budget and rejects
candidates isomorphic to already-selected patterns.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..csg.summary import SummaryGraph
from ..exceptions import ResilienceError
from ..graph.labeled_graph import LabeledGraph
from ..isomorphism.matcher import contains
from ..resilience.budget import current_budget
from ..resilience.degrade import anytime_degradation, degradation_enabled
from ..patterns.budget import PatternBudget
from ..patterns.metrics import CoverageOracle, catapult_pattern_score
from ..patterns.pattern import PatternSet
from .candidate import CandidateGenerator, CandidatePattern
from .random_walk import decay_weights

MWU_DECAY = 0.5


def cluster_coverage(
    pattern: LabeledGraph,
    summaries: Mapping[int, SummaryGraph],
    cluster_weights: Mapping[int, float],
) -> float:
    """``ccov(p) = Σ_i cw_i · I_i`` with I_i = CSG of C_i contains p."""
    total = 0.0
    for cluster_id, summary in summaries.items():
        weight = cluster_weights.get(cluster_id, 0.0)
        if weight <= 0.0:
            continue
        if contains(summary.as_labeled_graph(), pattern):
            total += weight
    return total


class GreedySelector:
    """The CATAPULT selection loop over pre-built CSGs."""

    def __init__(
        self,
        generator: CandidateGenerator,
        summaries: Mapping[int, SummaryGraph],
        cluster_weights: Mapping[int, float],
        oracle: CoverageOracle,
        budget: PatternBudget,
        ged_method: str = "lower",
    ) -> None:
        self.generator = generator
        self.summaries = dict(summaries)
        self.cluster_weights = dict(cluster_weights)
        self.oracle = oracle
        self.budget = budget
        self.ged_method = ged_method
        # Set by select(): True when the loop stopped early on a budget.
        self.degraded = False
        self._weights = {
            cluster_id: generator.weights_for(summary)
            for cluster_id, summary in self.summaries.items()
        }
        # Materialised CSG hosts, rebuilt once instead of per score call.
        self._csg_hosts = {
            cluster_id: summary.as_labeled_graph()
            for cluster_id, summary in self.summaries.items()
        }

    # ------------------------------------------------------------------
    def _admissible(
        self,
        candidate: CandidatePattern,
        selected: PatternSet,
        per_size: dict[int, int],
    ) -> bool:
        size = candidate.num_edges
        if not self.budget.admits_size(size):
            return False
        if per_size.get(size, 0) >= self.budget.per_size_cap:
            return False
        if selected.has_isomorphic(candidate.graph):
            return False
        return True

    def _score(
        self, candidate: CandidatePattern, selected: PatternSet
    ) -> float:
        """The CATAPULT score of *candidate* against *selected*."""
        graph = candidate.graph
        ccov = 0.0
        for cluster_id, host in self._csg_hosts.items():
            weight = self.cluster_weights.get(cluster_id, 0.0)
            if weight > 0.0 and contains(host, graph):
                ccov += weight
        return catapult_pattern_score(
            graph,
            [p.graph for p in selected],
            ccov,
            self.oracle,
            ged_method=self.ged_method,
        )

    # ------------------------------------------------------------------
    def select(self, max_rounds: int | None = None) -> PatternSet:
        """Run the greedy loop and return the selected pattern set.

        Selection is *anytime*: greedy rounds are independent, so if the
        ambient budget expires mid-loop the patterns selected so far are
        returned (a smaller but internally consistent pattern set) and
        :attr:`degraded` is set.
        """
        self.degraded = False
        ambient = current_budget()
        selected = PatternSet()
        per_size: dict[int, int] = {}
        rounds = 0
        stale_rounds = 0
        limit = max_rounds if max_rounds is not None else self.budget.gamma * 4
        try:
            while len(selected) < self.budget.gamma and rounds < limit:
                if ambient is not None:
                    ambient.check("catapult.select")
                rounds += 1
                candidates = self.generator.generate(
                    self.summaries, self._weights
                )
                admissible = [
                    candidate
                    for candidate in candidates
                    if self._admissible(candidate, selected, per_size)
                ]
                scored = []
                for candidate in admissible:
                    score = self._score(candidate, selected)
                    if score > 0.0:
                        scored.append((score, candidate))
                if not scored:
                    stale_rounds += 1
                    if stale_rounds >= 2:
                        break
                    continue
                scored.sort(
                    key=lambda item: (-item[0], item[1].num_edges)
                )
                best_score, best = scored[0]
                selected.add(best.graph, provenance="catapult")
                per_size[best.num_edges] = per_size.get(best.num_edges, 0) + 1
                stale_rounds = 0
                # Multiplicative weights update on the winning CSG's edges.
                cluster_weights = self._weights.get(best.cluster_id)
                if cluster_weights is not None:
                    decay_weights(
                        cluster_weights, set(best.csg_edges), MWU_DECAY
                    )
        except ResilienceError:
            if not degradation_enabled():
                raise
            self.degraded = True
            anytime_degradation("catapult.select")
        return selected
