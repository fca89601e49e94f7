"""Beam-search graph edit distance (anytime upper bound).

The assignment-based bound of :mod:`repro.ged.bipartite` commits to one
vertex mapping; beam search explores the same A* state space as
:mod:`repro.ged.exact` but keeps only the ``beam_width`` most promising
partial mappings per level, yielding a tunable upper bound:

* ``beam_width = 1`` is a greedy mapping (fast, loose);
* growing widths converge to the exact distance;
* the result is always an achievable edit cost, hence ≥ exact GED and a
  valid upper bound — and in practice tighter than the bipartite bound
  on the small patterns this library manipulates.
"""

from __future__ import annotations

from collections import Counter

from ..graph.labeled_graph import LabeledGraph, VertexId
from ..obs import BoundCounter
from ..resilience.budget import current_budget
from ..resilience.faults import trip

_EPS = object()

DEFAULT_BEAM_WIDTH = 8

_CALLS = BoundCounter("ged.beam.calls")
_NODES_EXPANDED = BoundCounter("ged.beam.nodes_expanded")
_PRUNES = BoundCounter("ged.beam.prunes")


def _label_heuristic(
    first: LabeledGraph,
    second: LabeledGraph,
    remaining_first: list[VertexId],
    unused_second: set[VertexId],
) -> int:
    labels_a = Counter(first.label(v) for v in remaining_first)
    labels_b = Counter(second.label(v) for v in unused_second)
    common = sum(min(c, labels_b.get(k, 0)) for k, c in labels_a.items())
    return max(len(remaining_first), len(unused_second)) - common


def _mapping_cost(
    first: LabeledGraph,
    second: LabeledGraph,
    order: list[VertexId],
    assignment: tuple,
) -> int:
    """Exact edit cost of a complete assignment (ε entries = deletion)."""
    cost = 0
    mapping: dict[VertexId, VertexId] = {}
    for vertex, target in zip(order, assignment):
        if target is _EPS:
            cost += 1
        else:
            mapping[vertex] = target
            if first.label(vertex) != second.label(target):
                cost += 1
    image = set(mapping.values())
    cost += sum(1 for v in second.vertices() if v not in image)
    matched: set[frozenset] = set()
    for u, v in first.edges():
        if (
            u in mapping
            and v in mapping
            and second.has_edge(mapping[u], mapping[v])
        ):
            matched.add(frozenset((mapping[u], mapping[v])))
        else:
            cost += 1
    for x, y in second.edges():
        if frozenset((x, y)) not in matched:
            cost += 1
    return cost


def _partial_cost(
    first: LabeledGraph,
    second: LabeledGraph,
    order: list[VertexId],
    assignment: tuple,
) -> int:
    """Edit cost decided by the prefix (used for beam ranking)."""
    cost = 0
    mapping: dict[VertexId, VertexId] = {}
    for vertex, target in zip(order, assignment):
        if target is _EPS:
            cost += 1
        else:
            mapping[vertex] = target
            if first.label(vertex) != second.label(target):
                cost += 1
    decided = set(order[: len(assignment)])
    for u, v in first.edges():
        if u in decided and v in decided:
            mapped = (
                u in mapping
                and v in mapping
                and second.has_edge(mapping[u], mapping[v])
            )
            if not mapped:
                cost += 1
    return cost


def ged_beam_upper_bound(
    first: LabeledGraph,
    second: LabeledGraph,
    beam_width: int = DEFAULT_BEAM_WIDTH,
) -> int:
    """Beam-search upper bound on unit-cost GED."""
    if beam_width < 1:
        raise ValueError("beam_width must be positive")
    trip("ged.beam")
    budget = current_budget()
    _CALLS.add(1)
    order = sorted(first.vertices(), key=lambda v: (-first.degree(v), repr(v)))
    targets = sorted(second.vertices(), key=repr)
    if not order:
        return second.num_vertices + second.num_edges
    if not targets:
        return first.num_vertices + first.num_edges

    nodes_expanded = 0
    nodes_pruned = 0
    beam: list[tuple] = [()]
    for depth, vertex in enumerate(order):
        if budget is not None:
            budget.spend(len(beam), site="ged.beam")
        scored: list[tuple[int, int, tuple]] = []
        tiebreak = 0
        for assignment in beam:
            used = {a for a in assignment if a is not _EPS}
            choices = [
                t
                for t in targets
                if t not in used and second.label(t) == first.label(vertex)
            ]
            # Allow one label-mismatching option and deletion so the
            # search cannot dead-end.
            mismatches = [t for t in targets if t not in used][:2]
            for target in dict.fromkeys(choices[: beam_width] + mismatches):
                candidate = assignment + (target,)
                g = _partial_cost(first, second, order, candidate)
                remaining = order[depth + 1 :]
                unused = set(targets) - {
                    a for a in candidate if a is not _EPS
                }
                h = _label_heuristic(first, second, remaining, unused)
                tiebreak += 1
                scored.append((g + h, tiebreak, candidate))
            candidate = assignment + (_EPS,)
            g = _partial_cost(first, second, order, candidate)
            tiebreak += 1
            scored.append((g + 1, tiebreak, candidate))
        scored.sort(key=lambda item: (item[0], item[1]))
        nodes_expanded += len(scored)
        nodes_pruned += max(0, len(scored) - beam_width)
        beam = [candidate for _, _, candidate in scored[:beam_width]]
    _NODES_EXPANDED.add(nodes_expanded)
    _PRUNES.add(nodes_pruned)
    return min(
        _mapping_cost(first, second, order, assignment)
        for assignment in beam
    )
