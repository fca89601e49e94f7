"""The coverage engine: filtered, incrementally maintained cover state.

:class:`CoverageEngine` owns a :class:`~repro.covindex.index.CoverageIndex`
over one database view plus, per registered pattern, two verdict
bitsets (always canonical ints, whatever substrate the index's posting
lists live on — the vectorized matrix stops at the
:meth:`~repro.covindex.index.CoverageIndex.run_query` boundary because
big-int set ops beat array-op dispatch at per-call granularity; see
:mod:`repro.covindex.bitset`):

* ``match_bits`` — graphs *verified* to contain the pattern;
* ``seen_bits`` — graphs whose verdict is known (verified either way, or
  rejected by the filter without a VF2 call).

Cover queries are lazy over the delta: :meth:`pending` returns only the
graphs whose verdict is still unknown **after** filtering — on a fresh
pattern that is the filtered universe, after a
:class:`~repro.graph.database.BatchUpdate` it is just the filtered
*inserted* graphs, because :meth:`apply_update` clears exactly the bits
of removed graphs and leaves every other verdict in place.  One code
path therefore serves both initial coverage and incremental delta
re-verification, and a MIDAS round re-verifies only changed graphs.
Each registered pattern keeps a
:class:`~repro.covindex.index.CompiledQuery` so the numpy substrate
reuses its posting-row plan round after round; the time the filter
phase spends (delta filtering plus cover materialization) accumulates
in the ``covindex.filter_ns`` counter, which the covix figure turns
into a wall-clock-per-round trend gate.  Fully-drained patterns
short-circuit on an O(1) seen-verdict count and cover sets are
memoized until a verdict moves, so neither bookkeeping path touches a
bitset or the filter clock — the counter measures genuine filter work.

The engine never runs VF2 itself; the caller (the
:class:`~repro.patterns.metrics.CoverageOracle`) verifies pending hosts
— through the embedding cache and kernel pool — and reports verdicts
back via :meth:`commit`.  :meth:`vertex_domains` seeds those
verifications with per-vertex candidate domains from the index.

The module also hosts the ambient on/off toggle
(:func:`set_covindex` / :func:`use_covindex` / :func:`covindex_enabled`)
mirroring :mod:`repro.cache.stores`; the engine is off by default and
``ExecutionConfig(covindex=True)`` turns it on for a scope.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Mapping
from contextlib import contextmanager

from ..check.invariants import check_enabled, check_engine
from ..graph.labeled_graph import LabeledGraph, VertexId
from ..obs import BoundCounter, get_registry
from .bitset import make_ops
from .index import CompiledQuery, CoverageIndex

#: Bound on concurrently tracked patterns.  MIDAS rounds evaluate many
#: short-lived candidate patterns; evicting the oldest registration
#: (re-verified from scratch if it ever returns) keeps bitset state
#: proportional to the working set, not to history.
MAX_TRACKED_PATTERNS = 1024

# Filter timing counter, resolved once rather than by name per query.
_FILTER_NS = BoundCounter("covindex.filter_ns")


class CoverageEngine:
    """Filter-then-verify cover maintenance over one database view."""

    def __init__(
        self,
        graphs: Mapping[int, LabeledGraph],
        substrate: str | None = None,
    ) -> None:
        self._graphs: dict[int, LabeledGraph] = dict(graphs)
        self.index = CoverageIndex.build(self._graphs, substrate=substrate)
        # Verdict bookkeeping is int-typed on every substrate: the
        # index returns canonical ints from run_query, and the tiny
        # O(1) delta ops here are where big-ints win.
        self._ops = make_ops("int")
        self._patterns: dict[tuple, LabeledGraph] = {}
        self._compiled: dict[tuple, CompiledQuery] = {}
        self._match_bits: dict[tuple, object] = {}
        self._seen_bits: dict[tuple, object] = {}
        # O(1) bookkeeping so fully-drained patterns never pay a bitset
        # op: popcount of seen bits (seen ⊆ universe is an engine
        # invariant, so count == len(view) means nothing is pending)
        # and the memoized cover set, dropped whenever match bits move.
        self._seen_count: dict[tuple, int] = {}
        self._covers: dict[tuple, frozenset[int]] = {}
        # Live mirror of each pattern's match bits as an id set,
        # maintained incrementally at commit time so cover_ids never
        # re-extracts ids from a bitset on the hot path.
        self._cover_sets: dict[tuple, set[int]] = {}
        self._publish_gauges()

    @property
    def substrate(self) -> str:
        """The bitset substrate this engine's verdicts live on."""
        return self.index.substrate

    # ------------------------------------------------------------------
    # view access
    # ------------------------------------------------------------------
    @property
    def graphs(self) -> Mapping[int, LabeledGraph]:
        return self._graphs

    def graph_ids(self) -> set[int]:
        return set(self._graphs)

    def __len__(self) -> int:
        return len(self._graphs)

    # ------------------------------------------------------------------
    # pattern registration
    # ------------------------------------------------------------------
    def register(self, key: tuple, pattern: LabeledGraph) -> None:
        """Start tracking *pattern* under its canonical *key*.

        Re-registering a tracked key refreshes its recency and keeps
        the verdict bitsets — verdicts are isomorphism-invariant, so
        the bits stay valid — but when the caller's copy permutes
        vertex IDs relative to the stored pattern, the stored pattern
        (and its compiled query) is replaced by the new copy.  That
        keeps registration symmetric with evict-then-re-register:
        :meth:`pattern` / :meth:`vertex_domains` always speak the
        vertex IDs of the *latest* registration, whatever the eviction
        history.  Callers must still verify with :meth:`pattern`, not
        with their own isomorphic copy.
        """
        if key in self._patterns:
            self._touch(key)
            stored = self._patterns[key]
            if stored.labels() != pattern.labels() or set(
                stored.edges()
            ) != set(pattern.edges()):
                self._patterns[key] = pattern
                self._compiled[key] = self.index.compile(pattern)
                get_registry().counter(
                    "covindex.pattern_refreshes"
                ).add(1)
            return
        while len(self._patterns) >= MAX_TRACKED_PATTERNS:
            oldest = next(iter(self._patterns))
            self.discard(oldest)
        self._patterns[key] = pattern
        self._compiled[key] = self.index.compile(pattern)
        self._match_bits[key] = self._ops.zero()
        self._seen_bits[key] = self._ops.zero()
        self._seen_count[key] = 0
        self._cover_sets[key] = set()
        self._publish_gauges()

    def _touch(self, key: tuple) -> None:
        """Move *key* to the back of the eviction order (LRU, not FIFO)."""
        self._patterns[key] = self._patterns.pop(key)

    def pattern(self, key: tuple) -> LabeledGraph:
        """The stored pattern for *key* — the object whose vertex IDs
        :meth:`vertex_domains` is expressed in."""
        return self._patterns[key]

    def discard(self, key: tuple) -> None:
        self._patterns.pop(key, None)
        self._compiled.pop(key, None)
        self._match_bits.pop(key, None)
        self._seen_bits.pop(key, None)
        self._seen_count.pop(key, None)
        self._covers.pop(key, None)
        self._cover_sets.pop(key, None)

    def tracked(self, key: tuple) -> bool:
        return key in self._patterns

    # ------------------------------------------------------------------
    # lazy filtered verification
    # ------------------------------------------------------------------
    def pending(self, key: tuple) -> list[int]:
        """Graph IDs whose verdict for *key* is unknown, post-filter.

        Unseen graphs rejected by the posting-list filter are marked
        seen (non-matching) here without any VF2 work — that is the
        "verify only what the filter cannot decide" half of the
        contract.  The returned IDs are sorted, matching the order the
        unfiltered serial loop would visit them in.
        """
        self._touch(key)
        if self._seen_count[key] == len(self._graphs):
            # Every verdict is known (seen ⊆ universe, so equal counts
            # mean equal sets) — no bitset op, no substrate involved,
            # and nothing added to the filter-phase clock.
            return []
        started = time.perf_counter_ns()
        # The filter is monotone — candidates(unseen) is exactly
        # candidates(universe) ∩ unseen — so run the compiled query
        # over the whole universe (no unseen bitset to build first)
        # and subtract seen from the survivors.  Verdict bitsets are
        # plain ints, so the deltas are written as direct big-int
        # expressions rather than BitsetOps method calls.
        candidates = self.index.run_query(self._compiled[key])
        pending_value = candidates & ~self._seen_bits[key]
        # Marking every non-pending graph seen collapses to one
        # subtraction: seen ∪ (unseen \ candidates) == universe \ pending.
        self._seen_bits[key] = self.index.universe_value & ~pending_value
        result = self._ops.ids(pending_value)
        self._seen_count[key] = len(self._graphs) - len(result)
        _FILTER_NS.add(time.perf_counter_ns() - started)
        return result

    def commit(self, key: tuple, graph_id: int, verdict: bool) -> None:
        """Record one verification verdict for (*key*, *graph_id*)."""
        ops = self._ops
        if not ops.test(self._seen_bits[key], graph_id):
            self._seen_bits[key] = ops.set_bit(
                self._seen_bits[key], graph_id
            )
            self._seen_count[key] += 1
        if verdict:
            self._match_bits[key] = ops.set_bit(
                self._match_bits[key], graph_id
            )
            self._cover_sets[key].add(graph_id)
            self._covers.pop(key, None)
        get_registry().counter("covindex.verifications").add(1)

    def cover_ids(self, key: tuple) -> frozenset[int]:
        """The verified cover set of *key* (call after draining pending)."""
        self._touch(key)
        if check_enabled():
            check_engine(self)
        result = self._covers.get(key)
        if result is None:
            # The live id-set mirror makes this a set copy, not a
            # bitset id extraction.
            started = time.perf_counter_ns()
            result = self._covers[key] = frozenset(self._cover_sets[key])
            _FILTER_NS.add(time.perf_counter_ns() - started)
        return result

    def vertex_domains(
        self, key: tuple, graph_id: int
    ) -> dict[VertexId, set[VertexId]]:
        """VF2 candidate domains for verifying *key* against *graph_id*."""
        return self.index.vertex_domains(
            self._patterns[key], graph_id, self._graphs[graph_id]
        )

    # ------------------------------------------------------------------
    # verdict persistence (out-of-core warm start; docs/STORAGE.md)
    # ------------------------------------------------------------------
    def export_verdicts(self) -> dict[tuple, tuple[int, int]]:
        """Per tracked pattern key, its ``(match_bits, seen_bits)`` as ints.

        The persistence handshake with a durable
        :class:`~repro.store.base.GraphStore`: the store saves these
        bitsets per shard and a restarted engine re-imports them instead
        of re-verifying the whole database.  Always the canonical int
        form, whatever substrate the engine runs on.
        """
        ops = self._ops
        return {
            key: (
                ops.to_int(self._match_bits[key]),
                ops.to_int(self._seen_bits[key]),
            )
            for key in self._patterns
        }

    def import_verdicts(
        self, key: tuple, match_bits: int, seen_bits: int
    ) -> None:
        """Warm-start verdicts for a tracked *key* from persisted bits.

        Bits are intersected with the current universe so verdicts for
        graphs that left the view since the bits were saved are dropped;
        everything else skips re-verification.
        """
        if key not in self._patterns:
            raise KeyError(f"pattern {key!r} is not tracked")
        ops = self._ops
        universe = self.index.universe_value
        self._match_bits[key] = ops.union(
            self._match_bits[key],
            ops.intersect(ops.from_int(match_bits), universe),
        )
        self._seen_bits[key] = ops.union(
            self._seen_bits[key],
            ops.intersect(ops.from_int(seen_bits), universe),
        )
        self._seen_count[key] = ops.popcount(self._seen_bits[key])
        self._cover_sets[key] = set(ops.ids(self._match_bits[key]))
        self._covers.pop(key, None)
        get_registry().counter("covindex.verdicts_imported").add(1)

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def apply_update(
        self,
        added: Mapping[int, LabeledGraph],
        removed_ids: Iterable[int],
    ) -> None:
        """Reconcile with a database batch without a rebuild.

        Removed graphs leave the index and lose their verdict bits in
        every tracked pattern; added graphs enter the index unverified,
        so the next :meth:`pending` call per pattern surfaces exactly
        the filtered delta.  Adding a graph_id already in the view is an
        in-place replacement: its old verdicts are cleared too, exactly
        as if it had been removed and re-added.  Verdicts for untouched
        graphs survive.
        """
        ops = self._ops
        removed = [gid for gid in removed_ids if gid in self._graphs]
        for graph_id in removed:
            self.index.remove_graph(graph_id)
            del self._graphs[graph_id]
        stale = removed + [gid for gid in added if gid in self._graphs]
        if stale:
            stale_value = ops.from_ids(stale)
            for key in self._patterns:
                self._match_bits[key] = ops.subtract(
                    self._match_bits[key], stale_value
                )
                self._seen_bits[key] = ops.subtract(
                    self._seen_bits[key], stale_value
                )
                self._seen_count[key] = ops.popcount(self._seen_bits[key])
                self._cover_sets[key].difference_update(stale)
            self._covers.clear()
        for graph_id, graph in added.items():
            self._graphs[graph_id] = graph
            self.index.add_graph(graph_id, graph)
        registry = get_registry()
        registry.counter("covindex.updates").add(1)
        registry.counter("covindex.dirty_graphs").add(
            len(added) + len(removed)
        )
        if check_enabled():
            check_engine(self)
        self._publish_gauges()
        stats = self.stats()
        registry.gauge("covindex.matched_verdicts").set(
            stats["matched_verdicts"]
        )
        registry.gauge("covindex.seen_verdicts").set(stats["seen_verdicts"])

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Aggregate engine statistics via bitset popcounts.

        Verdict totals use ``int.bit_count`` on the canonical int
        verdict bitsets — no per-bit scans.
        """
        ops = self._ops
        return {
            "patterns": len(self._patterns),
            "graphs": len(self._graphs),
            "postings": self.index.num_postings(),
            "matched_verdicts": sum(
                ops.popcount(value) for value in self._match_bits.values()
            ),
            "seen_verdicts": sum(
                ops.popcount(value) for value in self._seen_bits.values()
            ),
        }

    def _publish_gauges(self) -> None:
        registry = get_registry()
        registry.gauge("covindex.patterns").set(len(self._patterns))
        registry.gauge("covindex.postings").set(self.index.num_postings())


# ----------------------------------------------------------------------
# ambient enable flag (mirrors repro.cache.stores)
# ----------------------------------------------------------------------
_enabled = False


def set_covindex(enabled: bool) -> None:
    """Globally enable/disable the coverage engine (CLI ``--covindex``)."""
    global _enabled
    _enabled = enabled


def covindex_enabled() -> bool:
    return _enabled


@contextmanager
def use_covindex(enabled: bool = True):
    """Enable (or disable) the engine for the dynamic extent of the block."""
    global _enabled
    previous = _enabled
    _enabled = enabled
    try:
        yield
    finally:
        _enabled = previous


__all__ = [
    "MAX_TRACKED_PATTERNS",
    "CoverageEngine",
    "covindex_enabled",
    "set_covindex",
    "use_covindex",
]
