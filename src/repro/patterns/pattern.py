"""Canned patterns and pattern sets.

A *canned pattern* is a small connected labelled graph displayed on the
visual query interface; the GUI exposes γ of them at a time (paper,
Sections 1–2).  :class:`PatternSet` is the mutable collection MIDAS
maintains: patterns carry stable integer IDs and a provenance tag
recording which algorithm produced them.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from ..graph.canonical import canonical_certificate
from ..graph.labeled_graph import LabeledGraph


@dataclass(frozen=True)
class CannedPattern:
    """One pattern on the interface."""

    pattern_id: int
    graph: LabeledGraph
    provenance: str = ""
    key: tuple = field(default=None, compare=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not self.graph.is_connected():
            raise ValueError("canned patterns must be connected")
        if self.key is None:
            object.__setattr__(
                self, "key", canonical_certificate(self.graph)
            )

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CannedPattern #{self.pattern_id} |V|={self.num_vertices} "
            f"|E|={self.num_edges} from={self.provenance or '?'}>"
        )


class PatternSet:
    """The ordered set of canned patterns currently on the GUI."""

    def __init__(self) -> None:
        self._patterns: dict[int, CannedPattern] = {}
        self._keys: set[tuple] = set()
        self._next_id = 0

    # ------------------------------------------------------------------
    # container behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._patterns)

    def __iter__(self) -> Iterator[CannedPattern]:
        for pattern_id in sorted(self._patterns):
            yield self._patterns[pattern_id]

    def __contains__(self, pattern_id: int) -> bool:
        return pattern_id in self._patterns

    def get(self, pattern_id: int) -> CannedPattern:
        return self._patterns[pattern_id]

    def ids(self) -> list[int]:
        return sorted(self._patterns)

    def patterns(self) -> list[CannedPattern]:
        return list(self)

    def has_isomorphic(self, graph: LabeledGraph) -> bool:
        """True when an isomorphic pattern is already displayed."""
        return canonical_certificate(graph) in self._keys

    def size_distribution(self) -> list[int]:
        """Edge counts of the displayed patterns (for the KS test)."""
        return sorted(p.num_edges for p in self)

    # ------------------------------------------------------------------
    # id allocation
    # ------------------------------------------------------------------
    def next_pattern_id(self) -> int:
        """The id the next :meth:`add` will assign."""
        return self._next_id

    def reserve_through(self, pattern_id: int) -> None:
        """Advance the allocator so the next assigned id is ≥ *pattern_id*.

        Deserialisers use this to re-create explicit id spaces without
        reaching into allocator internals (mirrors
        :meth:`repro.store.base.GraphStore.reserve_through`).
        """
        self._next_id = max(self._next_id, pattern_id)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, graph: LabeledGraph, provenance: str = "") -> CannedPattern:
        """Display a new pattern; isomorphic duplicates are rejected."""
        pattern = CannedPattern(self._next_id, graph, provenance)
        if pattern.key in self._keys:
            raise ValueError("an isomorphic pattern is already displayed")
        self._next_id += 1
        self._patterns[pattern.pattern_id] = pattern
        self._keys.add(pattern.key)
        return pattern

    def remove(self, pattern_id: int) -> CannedPattern:
        try:
            pattern = self._patterns.pop(pattern_id)
        except KeyError:
            raise KeyError(f"no pattern with id {pattern_id}") from None
        self._keys.discard(pattern.key)
        return pattern

    def swap(
        self, old_id: int, graph: LabeledGraph, provenance: str = ""
    ) -> CannedPattern:
        """Replace pattern *old_id* with a new pattern atomically."""
        if old_id not in self._patterns:
            raise KeyError(f"no pattern with id {old_id}")
        incoming = CannedPattern(self._next_id, graph, provenance)
        if incoming.key in self._keys and incoming.key != self._patterns[old_id].key:
            raise ValueError("an isomorphic pattern is already displayed")
        self.remove(old_id)
        self._next_id += 1
        self._patterns[incoming.pattern_id] = incoming
        self._keys.add(incoming.key)
        return incoming

    def copy(self) -> "PatternSet":
        clone = PatternSet()
        clone._patterns = dict(self._patterns)
        clone._keys = set(self._keys)
        clone._next_id = self._next_id
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PatternSet γ={len(self._patterns)}>"
