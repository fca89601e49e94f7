"""Labelled undirected simple graphs.

This module provides :class:`LabeledGraph`, the fundamental data structure
used throughout the reproduction.  Data graphs, canned patterns, cluster
summary graphs and visual subgraph queries are all undirected simple graphs
with labelled vertices (paper, Section 2.1).  Edge labels are derived from
their endpoint labels: ``l(u, v) = (l(u), l(v))`` normalised so that the
smaller label comes first.

The implementation is a dict-of-sets adjacency structure optimised for the
access patterns of the algorithms in this repository: neighbourhood
iteration (VF2), degree queries (random walks, graphlet counting) and
label lookups (coverage metrics, canonicalisation).

Data derived from the structure — the edge list, the vertex and edge
label multisets, the edge-label set and the canonical certificate — is
computed once and kept in a single :class:`GraphViews` slot until the
next mutation clears it.  Containment prefilters, label coverage and
canonicalisation run hundreds of thousands of times per maintenance
round against graphs that never change, so each would otherwise rebuild
the same multisets on every call.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from types import MappingProxyType
from typing import Any

VertexId = Hashable
Label = str
Edge = tuple[VertexId, VertexId]
EdgeLabel = tuple[Label, Label]


class GraphError(Exception):
    """Raised for structurally invalid graph operations."""


def edge_key(u: VertexId, v: VertexId) -> Edge:
    """Return the canonical (order-independent) key for an undirected edge.

    The two endpoints are sorted by ``repr`` so that heterogeneous vertex
    identifiers (ints mixed with strings) still order deterministically.
    """
    if u == v:
        raise GraphError(f"self-loops are not allowed: {u!r}")
    a, b = sorted((u, v), key=repr)
    return (a, b)


def normalize_edge_label(la: Label, lb: Label) -> EdgeLabel:
    """Return the order-independent label of an edge between labels *la*, *lb*."""
    return (la, lb) if la <= lb else (lb, la)


class GraphViews:
    """Read-only derived data of one :class:`LabeledGraph` state.

    Built lazily by :meth:`LabeledGraph.views` and dropped by every
    mutation.  ``edges`` is in the order :meth:`LabeledGraph.edges`
    yields; the label multisets are read-only mappings.  ``certificate``
    is filled on first use by
    :func:`~repro.graph.canonical.canonical_certificate`.
    """

    __slots__ = (
        "edges",
        "vertex_labels",
        "edge_labels",
        "edge_label_set",
        "certificate",
    )

    def __init__(
        self, labels: dict[VertexId, Label], adj: dict[VertexId, set[VertexId]]
    ) -> None:
        seen: set[Edge] = set()
        edges: list[Edge] = []
        for u, nbrs in adj.items():
            for v in nbrs:
                key = edge_key(u, v)
                if key not in seen:
                    seen.add(key)
                    edges.append(key)
        vertex_labels: dict[Label, int] = {}
        for label in labels.values():
            vertex_labels[label] = vertex_labels.get(label, 0) + 1
        edge_labels: dict[EdgeLabel, int] = {}
        try:
            for u, v in edges:
                lab = normalize_edge_label(labels[u], labels[v])
                edge_labels[lab] = edge_labels.get(lab, 0) + 1
        except KeyError as exc:
            raise GraphError(f"vertex {exc.args[0]!r} does not exist") from None
        self.edges: tuple[Edge, ...] = tuple(edges)
        self.vertex_labels: Mapping[Label, int] = MappingProxyType(vertex_labels)
        self.edge_labels: Mapping[EdgeLabel, int] = MappingProxyType(edge_labels)
        self.edge_label_set: frozenset[EdgeLabel] = frozenset(edge_labels)
        self.certificate: tuple | None = None


class LabeledGraph:
    """An undirected simple graph with labelled vertices.

    Parameters
    ----------
    name:
        Optional human-readable identifier (e.g. a database graph ID).

    Examples
    --------
    >>> g = LabeledGraph()
    >>> g.add_vertex(0, "C")
    >>> g.add_vertex(1, "O")
    >>> g.add_edge(0, 1)
    >>> g.num_vertices, g.num_edges
    (2, 1)
    >>> g.edge_label(0, 1)
    ('C', 'O')
    """

    __slots__ = ("name", "_labels", "_adj", "_num_edges", "_views")

    #: The slots that make up a graph's state; ``_views`` is derived.
    _STATE = ("name", "_labels", "_adj", "_num_edges")

    def __init__(self, name: str | None = None) -> None:
        self.name = name
        self._labels: dict[VertexId, Label] = {}
        self._adj: dict[VertexId, set[VertexId]] = {}
        self._num_edges = 0
        self._views: GraphViews | None = None

    def __getstate__(self) -> tuple[None, dict[str, Any]]:
        # The same (dict state, slot state) pair default pickling of a
        # slotted object produces, minus the derived cache: snapshots
        # and checkpoints never carry it.
        return None, {slot: getattr(self, slot) for slot in self._STATE}

    def __setstate__(self, state: tuple[Any, dict[str, Any]]) -> None:
        _, slots = state
        for slot in self._STATE:
            setattr(self, slot, slots[slot])
        self._views = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        labels: dict[VertexId, Label],
        edges: Iterable[tuple[VertexId, VertexId]],
        name: str | None = None,
    ) -> "LabeledGraph":
        """Build a graph from a label map and an edge list.

        Vertices present in *labels* but not incident to any edge are kept
        as isolated vertices.
        """
        graph = cls(name=name)
        for vertex, label in labels.items():
            graph.add_vertex(vertex, label)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    def copy(self, name: str | None = None) -> "LabeledGraph":
        """Return a deep structural copy of this graph."""
        clone = LabeledGraph(name=self.name if name is None else name)
        clone._labels = dict(self._labels)
        clone._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        clone._num_edges = self._num_edges
        return clone

    def views(self) -> GraphViews:
        """The cached derived data of the current state (do not mutate)."""
        views = self._views
        if views is None:
            views = self._views = GraphViews(self._labels, self._adj)
        return views

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: VertexId, label: Label) -> None:
        """Add *vertex* with *label*; relabelling an existing vertex is an error."""
        if vertex in self._labels:
            if self._labels[vertex] != label:
                raise GraphError(
                    f"vertex {vertex!r} already has label {self._labels[vertex]!r}"
                )
            return
        self._labels[vertex] = label
        self._adj[vertex] = set()
        self._views = None

    def add_edge(self, u: VertexId, v: VertexId) -> None:
        """Add the undirected edge ``(u, v)``.  Both endpoints must exist."""
        if u == v:
            raise GraphError(f"self-loops are not allowed: {u!r}")
        if u not in self._labels or v not in self._labels:
            missing = u if u not in self._labels else v
            raise GraphError(f"cannot add edge: vertex {missing!r} does not exist")
        if v in self._adj[u]:
            return
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        self._views = None

    def remove_edge(self, u: VertexId, v: VertexId) -> None:
        """Remove the undirected edge ``(u, v)``; missing edges are an error."""
        if u not in self._adj or v not in self._adj[u]:
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1
        self._views = None

    def remove_vertex(self, vertex: VertexId) -> None:
        """Remove *vertex* and every incident edge."""
        if vertex not in self._labels:
            raise GraphError(f"vertex {vertex!r} does not exist")
        for neighbor in list(self._adj[vertex]):
            self.remove_edge(vertex, neighbor)
        del self._adj[vertex]
        del self._labels[vertex]
        self._views = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def size(self) -> int:
        """Paper's ``|G|``: the number of edges (Section 2.1)."""
        return self._num_edges

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, vertex: VertexId) -> bool:
        return vertex in self._labels

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        return u in self._adj and v in self._adj[u]

    def vertices(self) -> Iterator[VertexId]:
        return iter(self._labels)

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges, each reported once with a canonical key."""
        return iter(self.views().edges)

    def neighbors(self, vertex: VertexId) -> set[VertexId]:
        try:
            return self._adj[vertex]
        except KeyError:
            raise GraphError(f"vertex {vertex!r} does not exist") from None

    def degree(self, vertex: VertexId) -> int:
        return len(self.neighbors(vertex))

    def label(self, vertex: VertexId) -> Label:
        try:
            return self._labels[vertex]
        except KeyError:
            raise GraphError(f"vertex {vertex!r} does not exist") from None

    def labels(self) -> dict[VertexId, Label]:
        """Return a copy of the vertex → label map."""
        return dict(self._labels)

    def vertex_label_set(self) -> set[Label]:
        return set(self._labels.values())

    def vertex_label_multiset(self) -> dict[Label, int]:
        return dict(self.views().vertex_labels)

    def edge_label(self, u: VertexId, v: VertexId) -> EdgeLabel:
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist")
        return normalize_edge_label(self._labels[u], self._labels[v])

    def edge_label_set(self) -> set[EdgeLabel]:
        # Inserted one by one in edge order, so the set iterates in the
        # same order as one built while walking the edges.
        return {label for label in self.views().edge_labels}

    def edge_label_multiset(self) -> dict[EdgeLabel, int]:
        return dict(self.views().edge_labels)

    def density(self) -> float:
        """Graph density ``2|E| / (|V|(|V|-1))`` used in cognitive load."""
        n = self.num_vertices
        if n < 2:
            return 0.0
        return 2.0 * self._num_edges / (n * (n - 1))

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def subgraph(self, vertices: Iterable[VertexId]) -> "LabeledGraph":
        """Return the vertex-induced subgraph on *vertices*."""
        keep = set(vertices)
        missing = keep - set(self._labels)
        if missing:
            raise GraphError(f"vertices not in graph: {sorted(map(repr, missing))}")
        sub = LabeledGraph(name=self.name)
        for vertex in keep:
            sub.add_vertex(vertex, self._labels[vertex])
        for vertex in keep:
            for neighbor in self._adj[vertex] & keep:
                sub.add_edge(vertex, neighbor)
        return sub

    def edge_subgraph(self, edges: Iterable[Edge]) -> "LabeledGraph":
        """Return the subgraph consisting of *edges* and their endpoints."""
        sub = LabeledGraph(name=self.name)
        for u, v in edges:
            if not self.has_edge(u, v):
                raise GraphError(f"edge ({u!r}, {v!r}) does not exist")
            sub.add_vertex(u, self._labels[u])
            sub.add_vertex(v, self._labels[v])
            sub.add_edge(u, v)
        return sub

    def connected_components(self) -> list[set[VertexId]]:
        """Return connected components as vertex sets (BFS)."""
        unvisited = set(self._labels)
        components: list[set[VertexId]] = []
        while unvisited:
            root = next(iter(unvisited))
            component = {root}
            frontier = [root]
            unvisited.discard(root)
            while frontier:
                current = frontier.pop()
                for neighbor in self._adj[current]:
                    if neighbor in unvisited:
                        unvisited.discard(neighbor)
                        component.add(neighbor)
                        frontier.append(neighbor)
            components.append(component)
        return components

    def is_connected(self) -> bool:
        if self.num_vertices == 0:
            return True
        return len(self.connected_components()) == 1

    def is_tree(self) -> bool:
        """True iff the graph is connected and acyclic."""
        return (
            self.num_vertices > 0
            and self._num_edges == self.num_vertices - 1
            and self.is_connected()
        )

    def relabeled(self, start: int = 0) -> "LabeledGraph":
        """Return an isomorphic copy with vertices renamed 0..n-1.

        Vertices are renumbered in a deterministic (sorted-by-repr) order so
        that the result does not depend on dict iteration history.
        """
        order = sorted(self._labels, key=repr)
        mapping = {old: start + i for i, old in enumerate(order)}
        clone = LabeledGraph(name=self.name)
        for old, new in mapping.items():
            clone.add_vertex(new, self._labels[old])
        for u, v in self.edges():
            clone.add_edge(mapping[u], mapping[v])
        return clone

    # ------------------------------------------------------------------
    # dunder / misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.name!r}" if self.name else ""
        return (
            f"<LabeledGraph{tag} |V|={self.num_vertices} |E|={self._num_edges}>"
        )

    def signature(self) -> tuple[Any, ...]:
        """A cheap isomorphism-invariant fingerprint.

        Two isomorphic graphs always have equal signatures; unequal
        signatures prove non-isomorphism.  Used to prefilter expensive
        isomorphism checks.
        """
        degree_label = sorted(
            (self._labels[v], len(self._adj[v])) for v in self._labels
        )
        edge_labels = sorted(self.views().edge_labels.items())
        return (self.num_vertices, self._num_edges, tuple(degree_label), tuple(edge_labels))
