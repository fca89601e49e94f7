"""Joint maintenance of the FCT- and IFE-indices.

Algorithm 1 (line 12) maintains both indices after every batch — whether
or not the canned pattern set itself changed — so they stay consistent
with ``D ⊕ ΔD``.  :class:`IndexPair` wires the two indices to a feature
source (an :class:`~repro.trees.maintenance.FCTSet`) and exposes the
operations MIDAS needs:

* ``graphs_covering_edge`` — ``G_scov(e)`` for any edge label, answered
  from the TG-matrix for frequent edges and the EG-matrix otherwise
  (Section 5.2);
* ``candidate_graphs`` — the scov containment prefilter (Section 6.1);
* ``apply_update`` — reconcile after a database batch;
* ``sync_patterns`` — reconcile the TP/EP columns after pattern swaps.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from ..graph.labeled_graph import EdgeLabel, LabeledGraph
from ..isomorphism.invariants import prune_by_counts
from ..obs import get_registry
from ..trees.maintenance import FCTSet
from .fct_index import EMBEDDING_COUNT_CAP, FCTIndex, count_embeddings
from .ife_index import IFEIndex


class IndexPair:
    """The FCT-Index and IFE-Index maintained in lockstep."""

    def __init__(self, fct_index: FCTIndex, ife_index: IFEIndex) -> None:
        self.fct = fct_index
        self.ife = ife_index
        self._pattern_ids: set[int] = set()

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        fct_set: FCTSet,
        graphs: Mapping[int, LabeledGraph],
        patterns: Mapping[int, LabeledGraph] | None = None,
    ) -> "IndexPair":
        """Construct both indices from the current FCT pool and database."""
        features = fct_set.fcts() + [
            edge
            for edge in fct_set.frequent_edges()
            if not edge.closed  # closed single edges already included
        ]
        fct_index = FCTIndex.build(features, graphs, patterns)
        ife_index = IFEIndex.build(
            fct_set.infrequent_edge_labels(), graphs, patterns
        )
        pair = cls(fct_index, ife_index)
        pair._pattern_ids = set(patterns or {})
        return pair

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def graphs_covering_edge(self, label: EdgeLabel) -> set[int] | None:
        """``G_scov(e)`` for an edge label, or None when unindexed.

        Frequent edges are FCT-Index features (single-edge trees);
        infrequent ones live in the IFE-Index.  ``None`` signals the
        caller to fall back to a direct scan (only possible for labels
        that appeared after the last reconciliation).
        """
        for feature in self.fct.features():
            if feature.num_edges != 1:
                continue
            tree = feature.tree
            u, v = next(tree.edges())
            if tree.edge_label(u, v) == label:
                return self.fct.graphs_with_feature(feature.key)
        if self.ife.is_indexed(label):
            return self.ife.graphs_with_edge(label)
        return None

    def candidate_graphs(
        self, pattern: LabeledGraph, universe: Iterable[int]
    ) -> set[int]:
        """Containment prefilter across both indices (Section 6.1)."""
        get_registry().counter("index.prefilter_queries").add(1)
        candidates = self.fct.candidate_graphs(pattern, universe)
        requirements = {
            label: needed
            for label, needed in pattern.edge_label_multiset().items()
            if self.ife.is_indexed(label)
        }
        return prune_by_counts(candidates, requirements, self.ife.eg.row)

    def memory_bytes(self) -> int:
        return self.fct.memory_bytes() + self.ife.memory_bytes()

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def apply_update(
        self,
        fct_set: FCTSet,
        graphs: Mapping[int, LabeledGraph],
        added_ids: Iterable[int],
        removed_ids: Iterable[int],
        patterns: Mapping[int, LabeledGraph] | None = None,
    ) -> None:
        """Reconcile both indices with the post-batch database.

        *graphs* is the post-batch content; *added_ids*/*removed_ids*
        identify the modified columns.  Feature rows are diffed against
        the post-maintenance *fct_set*.
        """
        removed = set(removed_ids)
        added = set(added_ids)
        registry = get_registry()
        registry.counter("index.graphs_added").add(len(added))
        registry.counter("index.graphs_removed").add(len(removed))
        # Column maintenance first: drop dead graphs, add new ones.
        for graph_id in removed:
            self.fct.remove_graph(graph_id)
            self.ife.remove_graph(graph_id)
        # Feature (row) maintenance against the refreshed FCT set.
        current = {feature.key: feature for feature in fct_set.fcts()}
        for feature in fct_set.frequent_edges():
            current.setdefault(feature.key, feature)
        # Embedding counts in the added graphs, where the FCT mine of Δ⁺
        # enumerated them.
        mined_counts = {}
        for graph_id in added:
            graph = graphs.get(graph_id)
            if graph is not None:
                counts = fct_set.delta_counts(graph_id, graph)
                if counts is not None:
                    mined_counts[graph_id] = counts
        stale_keys = self.fct.feature_keys() - set(current)
        for key in stale_keys:
            self.fct.remove_feature(key)
        new_keys = set(current) - self.fct.feature_keys()
        for key in new_keys:
            self.fct.add_feature(
                current[key],
                graphs,
                known={
                    graph_id: counts[key]
                    for graph_id, counts in mined_counts.items()
                    if key in counts
                },
            )
        registry.counter("index.features_added").add(len(new_keys))
        registry.counter("index.features_removed").add(len(stale_keys))
        # Columns for newly added graphs (features already present get
        # their counts here; features added above already scanned them).
        for graph_id in added:
            graph = graphs.get(graph_id)
            if graph is None:
                continue
            counts = mined_counts.get(graph_id, {})
            for key in self.fct.feature_keys() - new_keys:
                feature = current[key]
                if graph_id not in feature.cover:
                    continue
                count = counts.get(key)
                if count is None:
                    count = count_embeddings(
                        graph, feature.tree, limit=EMBEDDING_COUNT_CAP
                    )
                count = min(count, EMBEDDING_COUNT_CAP)
                if count:
                    self.fct.tg.set(key, graph_id, count)
        # IFE side: refresh the infrequent label set, then new columns.
        self.ife.set_edge_labels(
            fct_set.infrequent_edge_labels(), graphs, patterns
        )
        for graph_id in added:
            graph = graphs.get(graph_id)
            if graph is not None:
                self.ife.add_graph(graph_id, graph)

    def sync_patterns(self, patterns: Mapping[int, LabeledGraph]) -> None:
        """Reconcile TP/EP columns with the current canned pattern set."""
        current = set(patterns)
        for pattern_id in self._pattern_ids - current:
            self.fct.remove_pattern(pattern_id)
            self.ife.remove_pattern(pattern_id)
        for pattern_id in current - self._pattern_ids:
            self.fct.add_pattern(pattern_id, patterns[pattern_id])
            self.ife.add_pattern(pattern_id, patterns[pattern_id])
        self._pattern_ids = current
