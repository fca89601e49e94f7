"""Canonical forms for small labelled graphs.

Canned patterns, candidate patterns and graphlets are tiny graphs (the
paper's pattern budget caps them at ``eta_max`` edges, 12 by default), so
an exact canonical labelling via colour refinement plus backtracking over
the automorphism search tree is affordable.  The canonical form lets the
framework deduplicate candidate patterns and compare patterns for equality
in O(1) after a one-off canonicalisation.

The algorithm is a compact individualisation-refinement scheme:

1. Initial colours are vertex labels.
2. Colours are refined with 1-WL (each vertex's colour is combined with
   the multiset of neighbour colours) until stable.
3. If the partition is discrete, the ordering induced by colours yields a
   candidate certificate.  Otherwise the first vertex of the first
   non-singleton colour class is individualised (one branch per member)
   and the minimum certificate over branches is taken.

This is exponential in the worst case but graphs here have at most a few
dozen vertices, and label diversity keeps the search tree tiny.
"""

from __future__ import annotations

from .labeled_graph import LabeledGraph, VertexId

Certificate = tuple


def _refine(
    graph: LabeledGraph, colors: dict[VertexId, tuple]
) -> dict[VertexId, int]:
    """Run 1-WL colour refinement to a fixed point, returning dense colours."""
    current = dict(colors)
    num_classes = len(set(current.values()))
    while True:
        signature = {
            v: (current[v], tuple(sorted(current[n] for n in graph.neighbors(v))))
            for v in graph.vertices()
        }
        palette = {sig: i for i, sig in enumerate(sorted(set(signature.values())))}
        refined = {v: palette[signature[v]] for v in graph.vertices()}
        new_num_classes = len(set(refined.values()))
        if new_num_classes == num_classes:
            return refined
        current = refined
        num_classes = new_num_classes


def _certificate_for_order(
    graph: LabeledGraph, order: list[VertexId]
) -> Certificate:
    """Build a certificate string for a fixed total vertex order."""
    index = {v: i for i, v in enumerate(order)}
    labels = tuple(graph.label(v) for v in order)
    edges = tuple(
        sorted(
            (min(index[u], index[v]), max(index[u], index[v]))
            for u, v in graph.edges()
        )
    )
    return (labels, edges)


def _search(graph: LabeledGraph, colors: dict[VertexId, tuple]) -> Certificate:
    refined = _refine(graph, colors)
    classes: dict[int, list[VertexId]] = {}
    for vertex, color in refined.items():
        classes.setdefault(color, []).append(vertex)
    # Discrete partition: single candidate ordering.
    if all(len(members) == 1 for members in classes.values()):
        order = [
            members[0] for _, members in sorted(classes.items())
        ]
        return _certificate_for_order(graph, order)
    # Individualise the first non-singleton class (smallest colour).
    target_color = min(c for c, members in classes.items() if len(members) > 1)
    best: Certificate | None = None
    for vertex in classes[target_color]:
        branched = {v: (refined[v],) for v in graph.vertices()}
        branched[vertex] = (refined[vertex], "*")
        candidate = _search(graph, branched)
        if best is None or candidate < best:
            best = candidate
    assert best is not None
    return best


def canonical_certificate(graph: LabeledGraph) -> Certificate:
    """Return an isomorphism-invariant certificate of *graph*.

    Two labelled graphs are isomorphic iff their certificates are equal.
    The certificate is computed once per graph state and cached in the
    graph's :class:`~repro.graph.labeled_graph.GraphViews`.
    """
    views = graph.views()
    certificate = views.certificate
    if certificate is None:
        if graph.num_vertices == 0:
            certificate = ((), ())
        else:
            initial = {v: (graph.label(v),) for v in graph.vertices()}
            certificate = _search(graph, initial)
        views.certificate = certificate
    return certificate


def canonical_key(graph: LabeledGraph) -> str:
    """A hashable string form of :func:`canonical_certificate`."""
    labels, edges = canonical_certificate(graph)
    label_part = ",".join(labels)
    edge_part = ";".join(f"{u}-{v}" for u, v in edges)
    return f"{label_part}|{edge_part}"


def are_isomorphic(first: LabeledGraph, second: LabeledGraph) -> bool:
    """Exact isomorphism test for small labelled graphs."""
    if first.signature() != second.signature():
        return False
    return canonical_certificate(first) == canonical_certificate(second)
