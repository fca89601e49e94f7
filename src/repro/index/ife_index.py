"""The IFE-Index: infrequent-edge embedding counts (the EG-matrix).

Definition 5.2 of the paper: for the infrequent edge labels ``E_inf`` of
``D``, the IFE-Index stores the **EG-matrix** (embedding counts of each
infrequent edge over the data graphs) and the **EP-matrix** (counts over
the canned patterns).  An "embedding of an edge" is simply an edge with
the same endpoint labels, so the counts come straight from edge-label
multisets — no isomorphism machinery needed.  That also makes an
EP-matrix redundant: a pattern's column is its edge-label multiset,
which the prefilter reads directly, so only EG is stored.

Together with the FCT-Index this answers ``G_scov(e)`` for *any* edge
label during coverage-based pruning: frequent edges hit the TG-matrix,
infrequent ones hit the EG-matrix.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from ..graph.labeled_graph import EdgeLabel, LabeledGraph
from .sparse import SparseCountMatrix


class IFEIndex:
    """The EG-matrix over infrequent edge labels."""

    def __init__(self) -> None:
        self.eg = SparseCountMatrix()  # edge label -> graph id -> count
        self._edge_labels: set[EdgeLabel] = set()

    def __setstate__(self, state: dict) -> None:
        # Pickles from before the EP-matrix was retired still carry it.
        state.pop("ep", None)
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        edge_labels: Iterable[EdgeLabel],
        graphs: Mapping[int, LabeledGraph],
    ) -> "IFEIndex":
        index = cls()
        index._edge_labels = set(edge_labels)
        for graph_id, graph in graphs.items():
            index.add_graph(graph_id, graph)
        return index

    # ------------------------------------------------------------------
    # edge-label set maintenance
    # ------------------------------------------------------------------
    def edge_labels(self) -> set[EdgeLabel]:
        return set(self._edge_labels)

    def set_edge_labels(
        self,
        edge_labels: Iterable[EdgeLabel],
        graphs: Mapping[int, LabeledGraph],
    ) -> None:
        """Reconcile the indexed label set after (in)frequency changes.

        Labels leaving the set drop their rows; labels entering the set
        get rows populated by one scan of *graphs*.
        """
        new_labels = set(edge_labels)
        for gone in self._edge_labels - new_labels:
            self.eg.remove_row(gone)
        added = new_labels - self._edge_labels
        if added:
            for graph_id, graph in graphs.items():
                for label, count in graph.edge_label_multiset().items():
                    if label in added:
                        self.eg.set(label, graph_id, count)
        self._edge_labels = new_labels

    # ------------------------------------------------------------------
    # graph maintenance
    # ------------------------------------------------------------------
    def add_graph(self, graph_id: int, graph: LabeledGraph) -> None:
        for label, count in graph.edge_label_multiset().items():
            if label in self._edge_labels:
                self.eg.set(label, graph_id, count)

    def remove_graph(self, graph_id: int) -> None:
        self.eg.remove_column(graph_id)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def graphs_with_edge(self, label: EdgeLabel) -> set[int]:
        """Graph IDs containing at least one edge with *label*."""
        return set(self.eg.row(label))

    def is_indexed(self, label: EdgeLabel) -> bool:
        return label in self._edge_labels

    def memory_bytes(self) -> int:
        return self.eg.memory_bytes()
