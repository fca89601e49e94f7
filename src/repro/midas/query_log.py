"""Query-log-aware pattern weighting (the Section 3.5 extension).

MIDAS is query-log-oblivious by default because public graph repositories
rarely publish logs, but the paper notes it "can be easily extended to
accommodate query logs by considering the weight of a pattern based on
its frequency in the log during multi-scan swapping".  This module
implements that extension:

* :class:`QueryLog` records formulated queries (bounded, FIFO);
* ``pattern_weight`` is the smoothed fraction of logged queries a
  pattern is usable in — a displayed pattern users rely on is protected
  from being swapped out, and a candidate matching many logged queries
  is boosted;
* :class:`LogWeightedSwapper` multiplies the modified pattern score
  ``s'`` by that weight on both sides of the sw2 comparison.
"""

from __future__ import annotations

from collections import deque

from ..graph.labeled_graph import LabeledGraph
from ..isomorphism.matcher import contains
from .swap import MultiScanSwapper


class QueryLog:
    """A bounded FIFO log of formulated queries."""

    def __init__(self, capacity: int = 200) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: deque[LabeledGraph] = deque(maxlen=capacity)

    def record(self, query: LabeledGraph) -> None:
        self._entries.append(query)

    def record_many(self, queries: list[LabeledGraph]) -> None:
        for query in queries:
            self.record(query)

    def __len__(self) -> int:
        return len(self._entries)

    def queries(self) -> list[LabeledGraph]:
        return list(self._entries)

    def usage_fraction(self, pattern: LabeledGraph) -> float:
        """Fraction of logged queries that contain *pattern*."""
        if not self._entries:
            return 0.0
        usable = sum(
            1 for query in self._entries if contains(query, pattern)
        )
        return usable / len(self._entries)

    def pattern_weight(self, pattern: LabeledGraph, smoothing: float = 1.0) -> float:
        """Multiplicative score weight ``smoothing + usage_fraction``.

        The additive smoothing keeps unlogged patterns competitive (an
        empty log degenerates to uniform weights, i.e. plain MIDAS).
        """
        if smoothing < 0:
            raise ValueError("smoothing must be non-negative")
        return smoothing + self.usage_fraction(pattern)


class LogWeightedSwapper(MultiScanSwapper):
    """The multi-scan swapper with query-log score weighting."""

    def __init__(self, oracle, query_log: QueryLog, smoothing: float = 1.0, **kwargs) -> None:
        super().__init__(oracle, **kwargs)
        self.query_log = query_log
        self.smoothing = smoothing
        self._weight_cache: dict[tuple, float] = {}

    def _weight(self, pattern: LabeledGraph) -> float:
        from ..graph.canonical import canonical_certificate

        key = canonical_certificate(pattern)
        cached = self._weight_cache.get(key)
        if cached is None:
            cached = self.query_log.pattern_weight(pattern, self.smoothing)
            self._weight_cache[key] = cached
        return cached

    def _score(self, pattern: LabeledGraph, diversity) -> float:
        return super()._score(pattern, diversity) * self._weight(pattern)
