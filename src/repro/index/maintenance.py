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
* ``sync_patterns`` — reconcile the TP columns after pattern swaps.

The pattern side of the prefilter is the TP column of a displayed
pattern (counted for any other pattern) and the pattern's own
edge-label multiset for the infrequent edges.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from ..graph.labeled_graph import EdgeLabel, LabeledGraph
from ..isomorphism.invariants import prune_by_counts
from ..obs import BoundCounter, get_registry
from ..trees.maintenance import FCTSet
from .fct_index import FCTIndex
from .ife_index import IFEIndex

_PREFILTER_QUERIES = BoundCounter("index.prefilter_queries")


class IndexPair:
    """The FCT-Index and IFE-Index maintained in lockstep."""

    def __init__(self, fct_index: FCTIndex, ife_index: IFEIndex) -> None:
        self.fct = fct_index
        self.ife = ife_index

    def __setstate__(self, state: dict) -> None:
        # Pickles from before TP was keyed by certificate carry the
        # pattern IDs its columns were keyed by.
        state.pop("_pattern_ids", None)
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        fct_set: FCTSet,
        graphs: Mapping[int, LabeledGraph],
    ) -> "IndexPair":
        """Construct both indices from the current FCT pool and database."""
        features = fct_set.fcts() + [
            edge
            for edge in fct_set.frequent_edges()
            if not edge.closed  # closed single edges already included
        ]
        fct_index = FCTIndex.build(features, graphs)
        ife_index = IFEIndex.build(fct_set.infrequent_edge_labels(), graphs)
        return cls(fct_index, ife_index)

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
        _PREFILTER_QUERIES.add(1)
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
        # A kept feature is the pool's own tree, whose cover the FCT
        # maintenance extended in place; a key the pool re-mined as a
        # new tree is re-added.
        kept = {
            feature.key
            for feature in self.fct.features()
            if current.get(feature.key) is feature
        }
        stale_keys = self.fct.feature_keys() - kept
        for key in stale_keys:
            self.fct.remove_feature(key)
        # Columns for newly added graphs over the kept features, with the
        # embedding counts the FCT mine of Δ⁺ enumerated (the features
        # added below scan their whole cover, new graphs too).
        mined_counts = {}
        for graph_id in added:
            graph = graphs.get(graph_id)
            if graph is None:
                continue
            counts = fct_set.delta_counts(graph_id, graph)
            if counts is not None:
                mined_counts[graph_id] = counts
            self.fct.add_graph(graph_id, graph, known=counts)
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
        # IFE side: refresh the infrequent label set, then new columns.
        self.ife.set_edge_labels(fct_set.infrequent_edge_labels(), graphs)
        for graph_id in added:
            graph = graphs.get(graph_id)
            if graph is not None:
                self.ife.add_graph(graph_id, graph)

    def sync_patterns(self, patterns: Iterable[LabeledGraph]) -> None:
        """Reconcile the TP columns with the displayed *patterns*."""
        self.fct.sync_patterns(patterns)
