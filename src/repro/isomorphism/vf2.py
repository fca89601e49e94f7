"""VF2-style subgraph isomorphism for labelled graphs.

The paper relies on (sub)graph isomorphism in many places: subgraph
coverage (``scov``), cluster coverage, promising-candidate pruning and the
FCT/IFE index prefilters (it cites the VF2 algorithm of Cordella et al.
for this purpose, Section 5.1).  This module implements VF2 from scratch
with:

* vertex-label-aware feasibility rules,
* both **monomorphism** (non-induced subgraph: every pattern edge must map
  to a host edge; extra host edges are fine) and **induced** semantics,
* existence tests, match iteration and embedding counting,
* an inexpensive invariant prefilter (label multisets, degree sequences)
  that resolves most negative queries without search — shared with the
  index layers via :mod:`repro.isomorphism.invariants`.

Monomorphism is the semantics of "query graph contains pattern" in visual
query formulation: dragging a canned pattern onto the canvas contributes
its vertices and edges, and the query may add more edges between them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from ..graph.labeled_graph import LabeledGraph, VertexId
from ..obs import BoundCounter
from ..resilience.budget import CHECK_STRIDE, current_budget
from ..resilience.faults import trip
from .invariants import invariant_prefilter

Assignment = dict[VertexId, VertexId]

# Match counters, resolved once rather than by name on every match.
_CALLS = BoundCounter("vf2.calls")
_PREFILTER_CUTOFFS = BoundCounter("vf2.prefilter_cutoffs")
_SEARCHES = BoundCounter("vf2.searches")
_STATES_EXPLORED = BoundCounter("vf2.states_explored")
_BACKTRACKS = BoundCounter("vf2.backtracks")


class VF2Matcher:
    """Match a *pattern* graph into a *host* graph.

    Parameters
    ----------
    pattern, host:
        Labelled graphs.  ``pattern`` must not be larger than ``host`` for
        a match to exist.
    induced:
        If True, require an induced embedding (non-edges of the pattern
        must map to non-edges of the host).  Default False = monomorphism.
    node_match:
        Optional custom predicate ``(pattern_label, host_label) -> bool``;
        defaults to label equality.
    """

    def __init__(
        self,
        pattern: LabeledGraph,
        host: LabeledGraph,
        induced: bool = False,
        node_match: Callable[[str, str], bool] | None = None,
    ) -> None:
        self.pattern = pattern
        self.host = host
        self.induced = induced
        self._node_match = node_match or (lambda a, b: a == b)
        self._order: list[VertexId] | None = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def has_match(self) -> bool:
        """True iff at least one embedding of pattern into host exists."""
        if not self._prefilter():
            _PREFILTER_CUTOFFS.add(1)
            return False
        for _ in self._match():
            return True
        return False

    def matches(self) -> Iterator[Assignment]:
        """Yield embeddings as pattern-vertex → host-vertex dicts."""
        if not self._prefilter():
            _PREFILTER_CUTOFFS.add(1)
            return
        yield from self._match()

    def count_matches(self, limit: int | None = None) -> int:
        """Count embeddings, optionally stopping at *limit*."""
        if not self._prefilter():
            _PREFILTER_CUTOFFS.add(1)
            return 0
        count = 0
        for _ in self._match():
            count += 1
            if limit is not None and count >= limit:
                break
        return count

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _prefilter(self) -> bool:
        """Cheap necessary conditions for a match to exist."""
        _CALLS.add(1)
        return invariant_prefilter(self.pattern, self.host)

    @property
    def order(self) -> list[VertexId]:
        """The pattern vertices in matching order (built on first use).

        Most-constrained vertices first (rare host label, high degree),
        then connectivity order so each new vertex is adjacent to an
        already-mapped one when possible.  Built lazily so a query the
        prefilter rejects never pays for it.
        """
        if self._order is None:
            self._order = self._matching_order()
        return self._order

    def _matching_order(self) -> list[VertexId]:
        pattern = self.pattern
        labels = pattern._labels
        adj = pattern._adj
        host_label_counts = self.host.views().vertex_labels
        # Each vertex's key is fixed for the whole walk, so it is
        # computed once; repr(vertex) makes every key distinct.
        rarity = {
            vertex: (
                host_label_counts.get(label, 0),
                -len(adj[vertex]),
                repr(vertex),
            )
            for vertex, label in labels.items()
        }
        remaining = set(pattern.vertices())
        order: list[VertexId] = []
        frontier: set[VertexId] = set()
        while remaining:
            nxt = min(frontier or remaining, key=rarity.__getitem__)
            order.append(nxt)
            remaining.discard(nxt)
            frontier.discard(nxt)
            frontier |= adj[nxt] & remaining
        return order

    def _candidates(
        self, pattern_vertex: VertexId, mapping: Assignment, used: set[VertexId]
    ) -> Iterator[VertexId]:
        """Candidate host vertices for *pattern_vertex* given partial map."""
        host_adj = self.host._adj
        host_labels = self.host._labels
        mapped_neighbors = [
            n for n in self.pattern._adj[pattern_vertex] if n in mapping
        ]
        if mapped_neighbors:
            # Intersect host neighbourhoods of already-mapped neighbours.
            first = mapping[mapped_neighbors[0]]
            candidate_pool = set(host_adj[first])
            for other in mapped_neighbors[1:]:
                candidate_pool &= host_adj[mapping[other]]
        else:
            # Built from an iterator, not the dict itself: set(dict)
            # presizes its table, which changes the iteration order.
            candidate_pool = set(iter(host_labels))
        want_label = self.pattern._labels[pattern_vertex]
        node_match = self._node_match
        for host_vertex in candidate_pool:
            if host_vertex in used:
                continue
            if not node_match(want_label, host_labels[host_vertex]):
                continue
            yield host_vertex

    def _feasible(
        self, pattern_vertex: VertexId, host_vertex: VertexId, mapping: Assignment
    ) -> bool:
        pattern_adj = self.pattern._adj
        host_adj = self.host._adj
        pattern_neighbors = pattern_adj[pattern_vertex]
        host_neighbors = host_adj[host_vertex]
        if len(pattern_neighbors) > len(host_neighbors):
            return False
        for neighbor in pattern_neighbors:
            if neighbor in mapping and mapping[neighbor] not in host_neighbors:
                return False
        if self.induced:
            for mapped_pattern, mapped_host in mapping.items():
                if (
                    mapped_host in host_neighbors
                    and mapped_pattern not in pattern_neighbors
                ):
                    return False
        return True

    def _match(self) -> Iterator[Assignment]:
        trip("vf2.search")
        budget = current_budget()
        order = self.order
        if not order:
            yield {}
            return
        mapping: Assignment = {}
        used: set[VertexId] = set()
        # Search-effort counters are accumulated locally (the loop is the
        # hottest code in the library) and flushed to the registry once
        # per search, including early generator close.
        states_explored = 0
        backtracks = 0
        # Iterative backtracking over candidate generators; avoids Python
        # recursion limits on large patterns.
        stack: list[Iterator[VertexId]] = [
            self._candidates(order[0], mapping, used)
        ]
        try:
            while stack:
                depth = len(stack) - 1
                pattern_vertex = order[depth]
                advanced = False
                for host_vertex in stack[-1]:
                    states_explored += 1
                    if (
                        budget is not None
                        and states_explored % CHECK_STRIDE == 0
                    ):
                        budget.spend(CHECK_STRIDE, site="vf2.search")
                    if not self._feasible(pattern_vertex, host_vertex, mapping):
                        continue
                    mapping[pattern_vertex] = host_vertex
                    used.add(host_vertex)
                    if depth + 1 == len(order):
                        yield dict(mapping)
                        used.discard(host_vertex)
                        del mapping[pattern_vertex]
                        continue
                    stack.append(
                        self._candidates(order[depth + 1], mapping, used)
                    )
                    advanced = True
                    break
                if not advanced:
                    backtracks += 1
                    stack.pop()
                    if stack:
                        prior = order[len(stack) - 1]
                        if prior in mapping:
                            used.discard(mapping[prior])
                            del mapping[prior]
        finally:
            _SEARCHES.add(1)
            _STATES_EXPLORED.add(states_explored)
            _BACKTRACKS.add(backtracks)
