"""Weighted random walks over cluster summary graphs.

CATAPULT extracts candidate patterns from each CSG with weighted random
walks (paper, Section 2.3): each summary edge gets weight
``w_e = lcov(e, D) × lcov(e, C)`` — the product of the edge label's
coverage in the whole database and in the cluster — and walk traversal
counts then identify the structurally important edges.

The walker is seeded and purely local: vertices are entered with
probability proportional to incident edge weight, and successive steps
pick incident edges with probability proportional to (possibly
multiplicatively decayed) weight.

Each draw bisects a cumulative-weight table built once per walker (per
vertex, on first visit) — the same arithmetic ``random.choices`` does
for one draw, so the walks consume exactly the same RNG stream as a
``choices`` call per step would.
"""

from __future__ import annotations

import random
from bisect import bisect
from collections.abc import Mapping, Sequence
from itertools import accumulate

from ..csg.summary import SummaryGraph
from ..graph.labeled_graph import EdgeLabel, LabeledGraph, edge_key

DEFAULT_NUM_WALKS = 100
DEFAULT_WALK_LENGTH = 12


def edge_label_document_frequency(
    graphs: Mapping[int, LabeledGraph]
) -> dict[EdgeLabel, int]:
    """For each edge label, the number of graphs containing it."""
    frequency: dict[EdgeLabel, int] = {}
    for graph in graphs.values():
        for label in graph.edge_label_set():
            frequency[label] = frequency.get(label, 0) + 1
    return frequency


def csg_edge_weights(
    summary: SummaryGraph,
    database_frequency: Mapping[EdgeLabel, int],
    database_size: int,
) -> dict[tuple[int, int], float]:
    """``w_e = lcov(e, D) × lcov(e, C)`` for every summary edge.

    The cluster-level coverage comes from the summary's edge → graph-ID
    annotations: the set of member graphs containing an edge with the
    same label (union over the summary edges carrying the label).
    """
    members = summary.member_ids
    cluster_size = len(members)
    if database_size <= 0 or cluster_size == 0:
        return {edge: 0.0 for edge in summary.edges()}
    by_label: dict[EdgeLabel, set[int]] = {}
    for u, v in summary.edges():
        label = summary.edge_label(u, v)
        by_label.setdefault(label, set()).update(
            summary.edge_graph_ids(u, v)
        )
    weights: dict[tuple[int, int], float] = {}
    for u, v in summary.edges():
        label = summary.edge_label(u, v)
        lcov_database = database_frequency.get(label, 0) / database_size
        lcov_cluster = len(by_label[label]) / cluster_size
        weights[edge_key(u, v)] = lcov_database * lcov_cluster
    return weights


#: One draw table: cumulative weights, their float total and the last
#: index — ``random.choices``'s locals for a ``k=1`` draw.
_DrawTable = tuple[list[float], float, int]


def _draw_table(weights: Sequence[float]) -> _DrawTable:
    """The cumulative table ``random.choices`` builds for *weights*.

    All-zero weights fall back to uniform, as the walk always did.
    """
    if sum(weights) <= 0:
        weights = [1.0] * len(weights)
    cumulative = list(accumulate(weights))
    return cumulative, cumulative[-1] + 0.0, len(cumulative) - 1


class RandomWalker:
    """Seeded weighted random walks collecting edge traversal counts."""

    def __init__(
        self,
        summary: SummaryGraph,
        weights: Mapping[tuple[int, int], float],
        rng: random.Random,
    ) -> None:
        self.summary = summary
        self.weights = dict(weights)
        self._rng = rng

    def _entry_table(self) -> tuple[list[int], _DrawTable]:
        vertices = self.summary.vertices()
        scores = [
            sum(
                self.weights.get(edge_key(vertex, n), 0.0)
                for n in self.summary.neighbors(vertex)
            )
            for vertex in vertices
        ]
        return vertices, _draw_table(scores)

    def _step_table(
        self, vertex: int
    ) -> tuple[list[int], list[tuple[int, int]], _DrawTable] | None:
        """Sorted neighbours, their edge keys and the step draw table."""
        neighbors = sorted(self.summary.neighbors(vertex))
        if not neighbors:
            return None
        keys = [edge_key(vertex, n) for n in neighbors]
        return (
            neighbors,
            keys,
            _draw_table([self.weights.get(key, 0.0) for key in keys]),
        )

    def traversal_counts(
        self,
        num_walks: int = DEFAULT_NUM_WALKS,
        walk_length: int = DEFAULT_WALK_LENGTH,
    ) -> dict[tuple[int, int], int]:
        """Edge → number of traversals over *num_walks* walks.

        Every draw is ``table[bisect(cum, random() * total, 0, hi)]``,
        the body of ``random.choices(population, weights)`` for one
        draw, so counts and the RNG state left behind equal those of a
        ``choices`` call per step.
        """
        counts: dict[tuple[int, int], int] = dict.fromkeys(
            self.summary.edges(), 0
        )
        if self.summary.num_edges == 0:
            return counts
        draw = self._rng.random
        vertices, (entry_cum, entry_total, entry_hi) = self._entry_table()
        tables: dict[int, tuple | None] = {}
        for _ in range(num_walks):
            current = vertices[
                bisect(entry_cum, draw() * entry_total, 0, entry_hi)
            ]
            for _ in range(walk_length):
                if current in tables:
                    table = tables[current]
                else:
                    table = tables[current] = self._step_table(current)
                if table is None:
                    break
                neighbors, keys, (cum, total, hi) = table
                index = bisect(cum, draw() * total, 0, hi)
                counts[keys[index]] += 1
                current = neighbors[index]
        return counts


def decay_weights(
    weights: dict[tuple[int, int], float],
    selected_edges: set[tuple[int, int]],
    decay: float = 0.5,
) -> None:
    """Multiplicative-weights update after a pattern is selected.

    Edges of the selected pattern lose ``decay`` of their weight so later
    iterations explore other regions (paper, Section 2.3, citing Arora
    et al.).  Mutates *weights* in place.
    """
    if not 0.0 < decay <= 1.0:
        raise ValueError("decay must be in (0, 1]")
    for edge in selected_edges:
        if edge in weights:
            weights[edge] *= 1.0 - decay
