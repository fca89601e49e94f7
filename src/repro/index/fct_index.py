"""The FCT-Index: a trie over canonical strings plus TG/TP matrices.

Definition 5.1 of the paper: given the frequent closed trees ``F`` and
frequent edges ``E_freq`` of ``D``, the FCT-Index consists of

* a trie of the canonical strings of ``F ∪ E_freq`` whose terminal nodes
  carry a *graph pointer* and a *pattern pointer*;
* the **TG-matrix** — embedding counts of each feature in each data
  graph — and the **TP-matrix** — embedding counts of each feature in
  each canned pattern.

The index serves two purposes in MIDAS:

* ``G_scov`` lookups for frequent edges during coverage-based pruning
  (Equation 2);
* the containment prefilter for ``scov`` estimation (Section 6.1): a
  pattern ``p`` can only be contained in ``G`` when every TP entry of
  ``p`` is ≤ the corresponding TG entry of ``G``, so most subgraph
  isomorphism tests are skipped.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from ..graph.labeled_graph import LabeledGraph
from ..isomorphism.invariants import prune_by_counts
from ..obs import BoundCounter
from ..resilience.degrade import resilient_count
from ..trees.canonical import TreeCode
from ..trees.mining import MinedTree
from .sparse import SparseCountMatrix
from .trie import TokenTrie

#: Cap on embeddings counted per (feature, graph) cell; counts above the
#: cap are clamped, which preserves the prefilter's correctness because
#: pattern-side counts are clamped identically and patterns are tiny.
EMBEDDING_COUNT_CAP = 64

_COVER_CALLS = BoundCounter("vf2.cover_calls")


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
    """Trie + TG/TP matrices over FCT and frequent-edge features."""

    def __init__(self) -> None:
        self.trie = TokenTrie()
        self.tg = SparseCountMatrix()  # feature key -> graph id -> count
        self.tp = SparseCountMatrix()  # feature key -> pattern id -> count
        self._features: dict[TreeCode, MinedTree] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        features: Iterable[MinedTree],
        graphs: Mapping[int, LabeledGraph],
        patterns: Mapping[int, LabeledGraph] | None = None,
    ) -> "FCTIndex":
        """Index *features* over *graphs* (and optionally *patterns*).

        Embedding counting is restricted to each feature's cover set, so
        construction cost follows the covers rather than |F| × |D|.
        """
        index = cls()
        for feature in features:
            index.add_feature(feature, graphs)
        if patterns:
            for pattern_id, pattern in patterns.items():
                index.add_pattern(pattern_id, pattern)
        return index

    # ------------------------------------------------------------------
    # feature maintenance
    # ------------------------------------------------------------------
    def add_feature(
        self,
        feature: MinedTree,
        graphs: Mapping[int, LabeledGraph],
        known: Mapping[int, int] | None = None,
    ) -> None:
        """Insert a feature and populate its TG row from its cover set.

        *known* holds exact embedding counts already at hand for some
        graphs; only the others are counted here.
        """
        if feature.key in self._features:
            self.remove_feature(feature.key)
        self._features[feature.key] = feature
        self.trie.insert(feature.tokens(), feature.key)
        known = known or {}
        for graph_id in feature.cover:
            graph = graphs.get(graph_id)
            if graph is None:
                continue
            count = known.get(graph_id)
            if count is None:
                count = count_embeddings(
                    graph, feature.tree, limit=EMBEDDING_COUNT_CAP
                )
            count = min(count, EMBEDDING_COUNT_CAP)
            if count:
                self.tg.set(feature.key, graph_id, count)

    def remove_feature(self, key: TreeCode) -> None:
        feature = self._features.pop(key, None)
        if feature is None:
            return
        self.trie.delete(feature.tokens())
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
    def add_graph(self, graph_id: int, graph: LabeledGraph) -> None:
        """Add a TG column for a newly inserted data graph."""
        for key, feature in self._features.items():
            count = count_embeddings(
                graph, feature.tree, limit=EMBEDDING_COUNT_CAP
            )
            if count:
                self.tg.set(key, graph_id, count)

    def remove_graph(self, graph_id: int) -> None:
        self.tg.remove_column(graph_id)

    def add_pattern(self, pattern_id: int, pattern: LabeledGraph) -> None:
        """Add a TP column for a canned pattern."""
        for key, feature in self._features.items():
            count = count_embeddings(
                pattern, feature.tree, limit=EMBEDDING_COUNT_CAP
            )
            if count:
                self.tp.set(key, pattern_id, count)

    def remove_pattern(self, pattern_id: int) -> None:
        self.tp.remove_column(pattern_id)

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

        The per-feature pattern-side embedding counts are VF2 matcher
        invocations spent on cover computation, so they count toward
        ``vf2.cover_calls`` (the coverage-engine comparison metric).
        """
        _COVER_CALLS.add(len(self._features))
        pattern_counts: dict[TreeCode, int] = {}
        for key, feature in self._features.items():
            count = count_embeddings(
                pattern, feature.tree, limit=EMBEDDING_COUNT_CAP
            )
            if count:
                pattern_counts[key] = count
        return prune_by_counts(set(universe), pattern_counts, self.tg.row)

    def memory_bytes(self) -> int:
        return self.tg.memory_bytes() + self.tp.memory_bytes()
