"""Candidate pattern generation from cluster summary graphs.

For each pattern size in the budget, CATAPULT proposes *potential
candidate patterns* (PCP) from walk statistics and derives one *final
candidate pattern* (FCP) per (CSG, size): a connected subgraph of that
size built from the most frequently traversed edges (paper, Sections 2.3
and 5.2, Figure 6).

The generator supports MIDAS's coverage-based early termination through
an ``edge_gate`` callback: before an edge is appended to the partially
constructed candidate, the gate may veto it (Equation 2), aborting the
growth — exactly the pruning of Section 5.2, kept decoupled so CATAPULT
runs without it.

The greedy growth never looks at the target size, so each seed is grown
once, to the largest admissible size, and every budgeted size reads a
prefix of that path (see ``docs/ALGORITHMS.md``).
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate

from ..csg.summary import SummaryGraph
from ..graph.labeled_graph import EdgeLabel, LabeledGraph, edge_key
from ..patterns.budget import PatternBudget
from .random_walk import (
    DEFAULT_NUM_WALKS,
    DEFAULT_WALK_LENGTH,
    RandomWalker,
    csg_edge_weights,
    edge_label_document_frequency,
)

#: Gate deciding whether a CSG edge may extend the growing candidate.
#: Receives the edge's label and must return True to admit it.
EdgeGate = Callable[[EdgeLabel], bool]

#: Optional guidance signal in [0, 1]: how much an edge label should be
#: favoured when seeding and growing candidates (Section 5.2's "guide the
#: generation towards promising candidates").  MIDAS supplies the
#: uncovered-specificity of the edge; None means unbiased walks.
EdgePriority = Callable[[EdgeLabel], float]

#: Floor keeping zero-priority edges usable (a promising candidate still
#: needs common edges to be connected).
PRIORITY_FLOOR = 0.05


def _biased_count(
    count: int,
    label: EdgeLabel,
    edge_priority: EdgePriority | None,
) -> float:
    if edge_priority is None:
        return float(count)
    return count * (PRIORITY_FLOOR + edge_priority(label))


def _edge_scores(
    summary: SummaryGraph,
    counts: Mapping[tuple[int, int], int],
    edge_priority: EdgePriority | None,
) -> dict[tuple[int, int], float]:
    """Every CSG edge's growth score: its (biased) traversal count."""
    return {
        key: _biased_count(
            counts.get(key, 0), summary.edge_label(*key), edge_priority
        )
        for key in summary.edges()
    }


@dataclass
class CandidatePattern:
    """A final candidate pattern (FCP) proposed for selection."""

    graph: LabeledGraph
    cluster_id: int
    traversal_score: int
    csg_edges: frozenset[tuple[int, int]]

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CandidatePattern |E|={self.num_edges} "
            f"cluster={self.cluster_id} walks={self.traversal_score}>"
        )


def _extract_pattern(
    summary: SummaryGraph, edges: list[tuple[int, int]]
) -> LabeledGraph:
    """Materialise CSG edges as a standalone pattern graph."""
    pattern = LabeledGraph()
    mapping: dict[int, int] = {}
    for u, v in edges:
        for vertex in (u, v):
            if vertex not in mapping:
                mapping[vertex] = len(mapping)
                pattern.add_vertex(mapping[vertex], summary.label(vertex))
        pattern.add_edge(mapping[u], mapping[v])
    return pattern


def _grow_path(
    summary: SummaryGraph,
    scores: Mapping[tuple[int, int], float],
    seed_edge: tuple[int, int],
    max_size: int,
    edge_gate: EdgeGate | None,
) -> list[tuple[int, int]] | None:
    """The greedy growth from *seed_edge*, up to *max_size* edges.

    Each step appends the highest-scoring CSG edge adjacent to the
    partial candidate (ties to the smaller key).  The path ends early
    when the frontier empties or *edge_gate* vetoes the next edge
    (Section 5.2); None when the gate vetoes the seed itself.  The
    frontier is a heap fed once per joining vertex; edges already
    chosen are skipped when they surface.
    """
    if edge_gate is not None and not edge_gate(summary.edge_label(*seed_edge)):
        return None
    chosen = [seed_edge]
    chosen_set = {edge_key(*seed_edge)}
    joined: set[int] = set()
    heap: list[tuple[float, tuple[int, int]]] = []

    def join(vertex: int) -> None:
        joined.add(vertex)
        for neighbor in summary.neighbors(vertex):
            key = edge_key(vertex, neighbor)
            if key not in chosen_set:
                heappush(heap, (-scores[key], key))

    join(seed_edge[0])
    join(seed_edge[1])
    while len(chosen) < max_size:
        while heap and heap[0][1] in chosen_set:
            heappop(heap)
        if not heap:
            break
        key = heap[0][1]
        if edge_gate is not None and not edge_gate(summary.edge_label(*key)):
            # Equation 2 fired: no larger candidate from this seed.
            break
        heappop(heap)
        chosen.append(key)
        chosen_set.add(key)
        for vertex in key:
            if vertex not in joined:
                join(vertex)
    return chosen


def grow_candidate(
    summary: SummaryGraph,
    counts: Mapping[tuple[int, int], int],
    seed_edge: tuple[int, int],
    target_size: int,
    edge_gate: EdgeGate | None = None,
    edge_priority: EdgePriority | None = None,
) -> tuple[list[tuple[int, int]], int] | None:
    """Grow one candidate from *seed_edge* to *target_size* edges.

    At each step the most-traversed CSG edge adjacent to the partial
    candidate is appended (traversal counts biased by *edge_priority*
    when given); *edge_gate* may veto an edge, terminating the growth
    early (Section 5.2).  Returns the CSG edge list and the total
    traversal count, or None when the growth was pruned/stuck before
    reaching the target size.
    """
    path = _grow_path(
        summary,
        _edge_scores(summary, counts, edge_priority),
        seed_edge,
        target_size,
        edge_gate,
    )
    if path is None or len(path) < target_size:
        return None
    return path, sum(counts.get(edge_key(*edge), 0) for edge in path)


class CandidateGenerator:
    """FCP generation across the CSGs of (evolved) clusters."""

    def __init__(
        self,
        graphs: Mapping[int, LabeledGraph],
        budget: PatternBudget,
        seed: int = 0,
        num_walks: int = DEFAULT_NUM_WALKS,
        walk_length: int = DEFAULT_WALK_LENGTH,
        seeds_per_size: int = 4,
        fcps_per_size: int = 2,
    ) -> None:
        self._graphs = dict(graphs)
        self.budget = budget
        self.num_walks = num_walks
        self.walk_length = walk_length
        self.seeds_per_size = seeds_per_size
        self.fcps_per_size = fcps_per_size
        self._rng = random.Random(seed)
        self._db_frequency = edge_label_document_frequency(self._graphs)

    def weights_for(
        self, summary: SummaryGraph
    ) -> dict[tuple[int, int], float]:
        return csg_edge_weights(
            summary, self._db_frequency, len(self._graphs)
        )

    def generate_for_summary(
        self,
        summary: SummaryGraph,
        weights: Mapping[tuple[int, int], float] | None = None,
        edge_gate: EdgeGate | None = None,
        edge_priority: EdgePriority | None = None,
    ) -> list[CandidatePattern]:
        """FCPs of every budgeted size from one CSG.

        Walks are summarised once and the top ``seeds_per_size`` edges
        (by traversal count, biased by *edge_priority* when given) seed
        PCP growth; for each size, the best-scoring completed PCPs
        become the FCPs.
        """
        if summary.num_edges == 0:
            return []
        if weights is None:
            weights = self.weights_for(summary)
        if edge_priority is not None:
            # Bias the walk itself toward uncovered-specific regions so
            # promising edges actually accumulate traversal counts.
            weights = {
                edge: _biased_count(1, summary.edge_label(*edge), edge_priority)
                * weight
                for edge, weight in weights.items()
            }
        walker = RandomWalker(summary, weights, self._rng)
        counts = walker.traversal_counts(self.num_walks, self.walk_length)
        scores = _edge_scores(summary, counts, edge_priority)
        ranked_edges = sorted(counts, key=lambda edge: (-scores[edge], edge))
        if edge_gate is not None:
            # Seeds must themselves pass the coverage gate, otherwise
            # every growth attempt dies on its first edge (Section 5.2).
            ranked_edges = [
                edge
                for edge in ranked_edges
                if edge_gate(summary.edge_label(*edge))
            ]
        sizes: list[int] = []
        for size in self.budget.sizes():
            if size > summary.num_edges:
                break
            sizes.append(size)
        if not sizes:
            return []
        # One growth per seed edge, to the largest size; each size's
        # PCP is a prefix, scored by the prefix's traversal total.
        paths = []
        for seed_edge in ranked_edges[: self.seeds_per_size]:
            path = _grow_path(
                summary, scores, seed_edge, sizes[-1], edge_gate
            )
            if path is not None:
                paths.append((path, list(accumulate(counts[e] for e in path))))
        candidates: list[CandidatePattern] = []
        for size in sizes:
            # PCP library for this size: the seeds that grew this far.
            proposals = [
                (path[:size], totals[size - 1])
                for path, totals in paths
                if len(path) >= size
            ]
            proposals.sort(key=lambda item: -item[1])
            # Keep the top FCPs, deduplicated by their CSG edge sets.
            seen_edge_sets: set[frozenset] = set()
            for edges, score in proposals:
                if len(seen_edge_sets) >= self.fcps_per_size:
                    break
                edge_set = frozenset(edge_key(*e) for e in edges)
                if edge_set in seen_edge_sets:
                    continue
                pattern = _extract_pattern(summary, edges)
                if not pattern.is_connected():
                    continue
                seen_edge_sets.add(edge_set)
                candidates.append(
                    CandidatePattern(
                        graph=pattern,
                        cluster_id=summary.cluster_id
                        if summary.cluster_id is not None
                        else -1,
                        traversal_score=score,
                        csg_edges=edge_set,
                    )
                )
        return candidates

    def generate(
        self,
        summaries: Mapping[int, SummaryGraph],
        weights_by_cluster: (
            Mapping[int, dict[tuple[int, int], float]] | None
        ) = None,
        edge_gate: EdgeGate | None = None,
        edge_priority: EdgePriority | None = None,
    ) -> list[CandidatePattern]:
        """FCPs across all supplied CSGs (deterministic cluster order)."""
        candidates: list[CandidatePattern] = []
        for cluster_id in sorted(summaries):
            summary = summaries[cluster_id]
            weights = (
                weights_by_cluster.get(cluster_id)
                if weights_by_cluster is not None
                else None
            )
            candidates.extend(
                self.generate_for_summary(
                    summary, weights, edge_gate, edge_priority
                )
            )
        return candidates
