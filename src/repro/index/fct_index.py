"""The FCT-Index: TG/TP embedding-count matrices over tree features.

Definition 5.1 of the paper: given the frequent closed trees ``F`` and
frequent edges ``E_freq`` of ``D``, the FCT-Index holds

* the **TG-matrix** — embedding counts of each feature in each data
  graph — and
* the **TP-matrix** — embedding counts of each feature in each
  displayed canned pattern.

The paper reaches the matrix rows through a trie of the features'
canonical strings; here rows are keyed by the feature's canonical tree
code directly, and TP columns by the pattern's
:func:`~repro.graph.canonical.canonical_certificate`, the key the
coverage oracle memoises covers by.

The index serves two purposes in MIDAS:

* ``G_scov`` lookups for frequent edges during coverage-based pruning
  (Equation 2);
* the containment prefilter for ``scov`` estimation (Section 6.1): a
  pattern ``p`` can only be contained in ``G`` when every TP entry of
  ``p`` is ≤ the corresponding TG entry of ``G``, so most subgraph
  isomorphism tests are skipped.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping

from ..graph.canonical import Certificate, canonical_certificate
from ..graph.labeled_graph import LabeledGraph
from ..isomorphism.invariants import prune_by_counts
from ..obs import BoundCounter
from ..resilience.degrade import resilient_count
from ..trees.canonical import TreeCode
from ..trees.mining import MinedTree
from .sparse import SparseCountMatrix

#: Cap on embeddings counted per (feature, graph) cell; counts above the
#: cap are clamped, which preserves the prefilter's correctness because
#: pattern-side counts are clamped identically and patterns are tiny.
EMBEDDING_COUNT_CAP = 64

_COVER_CALLS = BoundCounter("vf2.cover_calls")

#: Embedding counts a tree mine recorded in a graph, keyed by feature,
#: or None for a graph it did not see (``FCTSet.mined_counts``).
MinedCounts = Callable[[int, LabeledGraph], Mapping[TreeCode, int] | None]


def count_embeddings(
    host: LabeledGraph, tree: LabeledGraph, limit: int = EMBEDDING_COUNT_CAP
) -> int:
    """Embedding count for one index cell, budget-aware.

    Under budget pressure the count degrades to the embeddings found so
    far (a capped count) instead of aborting index maintenance; the
    prefilter built on these cells then becomes approximate for the
    affected cells, which is the documented degraded-mode trade-off.
    """
    return resilient_count(tree, host, limit=limit).value


class FCTIndex:
    """TG/TP matrices over FCT and frequent-edge features.

    ``tp`` has one column per displayed pattern, kept in step with the
    panel by :meth:`sync_patterns` and with the features by
    :meth:`add_feature`/:meth:`remove_feature`.  A TP cell counted
    under a deadline may have degraded to a lower bound; it only
    weakens pruning, because a smaller requirement rules out fewer
    graphs, and covers stay exact because VF2 decides every survivor.
    """

    def __init__(self) -> None:
        self.tg = SparseCountMatrix()  # feature key -> graph id -> count
        self.tp = SparseCountMatrix()  # feature key -> certificate -> count
        self._features: dict[TreeCode, MinedTree] = {}
        self._patterns: dict[Certificate, LabeledGraph] = {}

    def __setstate__(self, state: dict) -> None:
        # Pickles from before TP was keyed by certificate carry a token
        # trie and TP columns keyed by pattern ID: both are dropped, and
        # the next sync_patterns refills TP.
        if "_patterns" not in state:
            state.pop("trie", None)
            state["tp"] = SparseCountMatrix()
            state["_patterns"] = {}
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        features: Iterable[MinedTree],
        graphs: Mapping[int, LabeledGraph],
        mined: MinedCounts | None = None,
    ) -> "FCTIndex":
        """Index *features* over *graphs*.

        TG cells are filled over each feature's cover set only, so
        construction cost follows the covers rather than |F| × |D|.
        """
        index = cls()
        for feature in features:
            index.add_feature(feature, graphs, mined)
        return index

    # ------------------------------------------------------------------
    # feature maintenance
    # ------------------------------------------------------------------
    def add_feature(
        self,
        feature: MinedTree,
        graphs: Mapping[int, LabeledGraph],
        mined: MinedCounts | None = None,
    ) -> None:
        """Insert a feature: its TG row from its cover set, and its TP
        row over the displayed patterns.

        TG cells are read from *mined* where it has them (see
        :meth:`_set_tg`).
        """
        if feature.key in self._features:
            self.remove_feature(feature.key)
        self._features[feature.key] = feature
        for graph_id in feature.cover:
            graph = graphs.get(graph_id)
            if graph is not None:
                self._set_tg(feature, graph_id, graph, mined)
        for pattern_key, pattern in self._patterns.items():
            count = count_embeddings(pattern, feature.tree)
            if count:
                self.tp.set(feature.key, pattern_key, count)

    def remove_feature(self, key: TreeCode) -> None:
        if self._features.pop(key, None) is None:
            return
        self.tg.remove_row(key)
        self.tp.remove_row(key)

    def features(self) -> list[MinedTree]:
        return sorted(
            self._features.values(), key=lambda f: (f.num_edges, repr(f.key))
        )

    def feature_keys(self) -> set[TreeCode]:
        return set(self._features)

    def __contains__(self, key: TreeCode) -> bool:
        return key in self._features

    def __len__(self) -> int:
        return len(self._features)

    # ------------------------------------------------------------------
    # graph / pattern maintenance
    # ------------------------------------------------------------------
    def add_graph(
        self,
        graph_id: int,
        graph: LabeledGraph,
        mined: MinedCounts | None = None,
    ) -> None:
        """Fill the TG column of a newly inserted data graph.

        Only features whose cover holds *graph_id* embed in it.  TG
        cells are read from *mined* where it has them (see
        :meth:`_set_tg`).
        """
        for feature in self._features.values():
            if graph_id in feature.cover:
                self._set_tg(feature, graph_id, graph, mined)

    def remove_graph(self, graph_id: int) -> None:
        self.tg.remove_column(graph_id)

    def _set_tg(
        self,
        feature: MinedTree,
        graph_id: int,
        graph: LabeledGraph,
        mined: MinedCounts | None,
    ) -> None:
        """One TG cell: the count the last exact mine recorded for
        (*graph*, *feature*), else a VF2 count."""
        counts = mined(graph_id, graph) if mined is not None else None
        count = counts.get(feature.key) if counts is not None else None
        if count is None:
            count = count_embeddings(graph, feature.tree)
        count = min(count, EMBEDDING_COUNT_CAP)
        if count:
            self.tg.set(feature.key, graph_id, count)

    def sync_patterns(self, patterns: Iterable[LabeledGraph]) -> None:
        """Reconcile the TP columns with the displayed *patterns*."""
        current = {canonical_certificate(p): p for p in patterns}
        for key in self._patterns.keys() - current.keys():
            self.tp.remove_column(key)
        for key in current.keys() - self._patterns.keys():
            counts = self._pattern_counts(current[key])
            for feature_key, count in counts.items():
                self.tp.set(feature_key, key, count)
        self._patterns = current

    def _pattern_counts(self, pattern: LabeledGraph) -> dict[TreeCode, int]:
        """Non-zero embedding counts of every feature in *pattern*."""
        counts = {}
        for key, feature in self._features.items():
            count = count_embeddings(pattern, feature.tree)
            if count:
                counts[key] = count
        return counts

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def graphs_with_feature(self, key: TreeCode) -> set[int]:
        """Graph IDs whose TG entry for *key* is non-zero."""
        return set(self.tg.row(key))

    def candidate_graphs(
        self, pattern: LabeledGraph, universe: Iterable[int]
    ) -> set[int]:
        """Containment prefilter (Section 6.1).

        Returns graph IDs in *universe* not ruled out by the feature
        counts: every feature embedded in *pattern* must be embedded at
        least as often in the graph.  Patterns with no indexed features
        cannot be filtered and the universe is returned unchanged.

        A displayed pattern's counts are its TP column.  Any other
        pattern is counted here, unstored; those counts are VF2 matcher
        invocations spent on cover computation, so they count toward
        ``vf2.cover_calls``.
        """
        key = canonical_certificate(pattern)
        if key in self._patterns:
            pattern_counts = self.tp.column(key)
        else:
            _COVER_CALLS.add(len(self._features))
            pattern_counts = self._pattern_counts(pattern)
        return prune_by_counts(set(universe), pattern_counts, self.tg.row)

    def memory_bytes(self) -> int:
        return self.tg.memory_bytes() + self.tp.memory_bytes()
