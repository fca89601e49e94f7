"""Assignment-based graph edit distance approximation.

This is the classic bipartite GED of Riesen, Neuhaus and Bunke (cited by
the paper for its diversity measure, reference [32]): build a cost matrix
between the vertex sets of the two graphs (plus insertion/deletion rows
and columns), solve the linear sum assignment problem, and derive an edit
path from the vertex assignment.  The resulting cost is an **upper bound**
on the true GED; together with the lower bounds of
:mod:`repro.ged.lower_bounds` it brackets the exact value.

Unit costs are used throughout (vertex/edge insertion, deletion and label
substitution each cost 1), matching the paper's diversity semantics where
GED counts elementary edit operations.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..graph.labeled_graph import LabeledGraph, VertexId
from ..obs import BoundCounter
from ..resilience.faults import trip

_CALLS = BoundCounter("ged.bipartite.calls")


def _local_edge_cost(
    first: LabeledGraph, u: VertexId, second: LabeledGraph, v: VertexId
) -> float:
    """Estimated edge edit cost of mapping u → v from local structure.

    Compares the multisets of incident edge labels; unmatched incident
    edges on either side each contribute half an edge operation (an edge
    has two endpoints, so its cost is split between them).
    """
    labels_u = Counter(
        first.edge_label(u, n) for n in first.neighbors(u)
    )
    labels_v = Counter(
        second.edge_label(v, n) for n in second.neighbors(v)
    )
    common = sum(min(c, labels_v.get(k, 0)) for k, c in labels_u.items())
    unmatched = (first.degree(u) - common) + (second.degree(v) - common)
    return unmatched / 2.0


def _assignment_cost_matrix(
    first: LabeledGraph, second: LabeledGraph
) -> tuple[np.ndarray, list[VertexId], list[VertexId]]:
    rows = sorted(first.vertices(), key=repr)
    cols = sorted(second.vertices(), key=repr)
    n, m = len(rows), len(cols)
    size = n + m
    matrix = np.full((size, size), 0.0)
    for i, u in enumerate(rows):
        for j, v in enumerate(cols):
            substitution = 0.0 if first.label(u) == second.label(v) else 1.0
            matrix[i, j] = substitution + _local_edge_cost(first, u, second, v)
    big = float(size * size + 1)
    # Deletion block (u → epsilon): only the diagonal entry is allowed.
    for i, u in enumerate(rows):
        matrix[i, m:size] = big
        matrix[i, m + i] = 1.0 + first.degree(u) / 2.0
    # Insertion block (epsilon → v).
    for i in range(n, size):
        matrix[i, :m] = big
        matrix[i, m:size] = 0.0
    for j, v in enumerate(cols):
        matrix[n + j, j] = 1.0 + second.degree(v) / 2.0
    return matrix, rows, cols


def _edit_cost_of_mapping(
    first: LabeledGraph,
    second: LabeledGraph,
    mapping: dict[VertexId, VertexId],
) -> int:
    """Exact unit-cost edit distance induced by a full vertex *mapping*.

    Vertices of *first* absent from the mapping are deleted; vertices of
    *second* not in its image are inserted.  Edge costs follow from the
    mapping deterministically.
    """
    cost = 0
    image = set(mapping.values())
    cost += sum(1 for u in first.vertices() if u not in mapping)
    cost += sum(1 for v in second.vertices() if v not in image)
    cost += sum(
        1
        for u, v in mapping.items()
        if first.label(u) != second.label(v)
    )
    # Edge deletions / substitut-free matches.
    matched_second_edges: set[frozenset] = set()
    for a, b in first.edges():
        if a in mapping and b in mapping and second.has_edge(mapping[a], mapping[b]):
            matched_second_edges.add(frozenset((mapping[a], mapping[b])))
        else:
            cost += 1  # edge deleted
    for a, b in second.edges():
        if frozenset((a, b)) not in matched_second_edges:
            cost += 1  # edge inserted
    return cost


def ged_bipartite_upper_bound(
    first: LabeledGraph, second: LabeledGraph
) -> int:
    """Assignment-based upper bound on GED (Riesen–Bunke style).

    SciPy is imported on first use: this rung is its only caller on the
    maintenance path, and ``scipy.optimize`` is most of a process's
    resident memory when loaded.
    """
    from scipy.optimize import linear_sum_assignment

    trip("ged.bipartite")
    _CALLS.add(1)
    if first.num_vertices == 0 and second.num_vertices == 0:
        return 0
    if first.num_vertices == 0:
        return second.num_vertices + second.num_edges
    if second.num_vertices == 0:
        return first.num_vertices + first.num_edges
    matrix, rows, cols = _assignment_cost_matrix(first, second)
    row_idx, col_idx = linear_sum_assignment(matrix)
    mapping: dict[VertexId, VertexId] = {}
    for i, j in zip(row_idx, col_idx):
        if i < len(rows) and j < len(cols):
            mapping[rows[i]] = cols[j]
    return _edit_cost_of_mapping(first, second, mapping)
