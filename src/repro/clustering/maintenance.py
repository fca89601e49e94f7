"""Cluster construction and incremental maintenance.

Implements CATAPULT's 2-step clustering (coarse k-means on tree feature
vectors, fine MCCS-based splitting of oversized clusters) and the cluster
maintenance of MIDAS (paper, Section 4.3 and Algorithm 1, lines 1–2, 6):

* a newly inserted graph is assigned to the cluster whose centroid is
  nearest to the graph's feature vector;
* a deleted graph simply leaves its cluster;
* clusters pushed past the maximum size N are fine-split in place.

:class:`ClusterSet` keeps incremental centroid sums so assignment is
O(k·|features|), and records which clusters were touched (``C⁺``/``C⁻``)
so CSG maintenance and candidate generation can focus on evolved
clusters only.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..graph.labeled_graph import LabeledGraph
from ..obs import BoundCounter
from ..trees.features import FeatureSpace
from .fine import fine_split
from .kmeans import kmeans

DEFAULT_MAX_CLUSTER_SIZE = 40

_ASSIGNMENTS = BoundCounter("clustering.assignments")
_REMOVALS = BoundCounter("clustering.removals")
_FINE_SPLITS = BoundCounter("clustering.fine_splits")


class ClusterSet:
    """A mutable partition of database graphs with nearest-centroid
    assignment and automatic fine-splitting."""

    def __init__(
        self,
        feature_space: FeatureSpace,
        max_cluster_size: int = DEFAULT_MAX_CLUSTER_SIZE,
    ) -> None:
        self.feature_space = feature_space
        self.max_cluster_size = max_cluster_size
        self._clusters: dict[int, set[int]] = {}
        self._membership: dict[int, int] = {}
        self._vectors: dict[int, np.ndarray] = {}
        self._sums: dict[int, np.ndarray] = {}
        self._next_cluster_id = 0
        #: Clusters that gained members since the last reset (C⁺).
        self.touched_added: set[int] = set()
        #: Clusters that lost members since the last reset (C⁻).
        self.touched_removed: set[int] = set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graphs: Mapping[int, LabeledGraph],
        feature_space: FeatureSpace,
        num_clusters: int,
        seed: int = 0,
        max_cluster_size: int = DEFAULT_MAX_CLUSTER_SIZE,
    ) -> "ClusterSet":
        """Full 2-step clustering of *graphs* (coarse + fine)."""
        instance = cls(feature_space, max_cluster_size)
        ids = sorted(graphs)
        if not ids:
            return instance
        matrix = feature_space.matrix_for_known(ids)
        k = max(1, min(num_clusters, len(ids)))
        assignments, _ = kmeans(matrix, k, seed=seed)
        coarse: dict[int, list[int]] = {}
        for row, graph_id in enumerate(ids):
            coarse.setdefault(int(assignments[row]), []).append(graph_id)
            instance._vectors[graph_id] = matrix[row]
        for members in coarse.values():
            for part in fine_split(members, graphs, max_cluster_size):
                instance._new_cluster(part)
        instance.reset_touched()
        return instance

    def _new_cluster(self, members: set[int]) -> int:
        cluster_id = self._next_cluster_id
        self._next_cluster_id += 1
        self._clusters[cluster_id] = set(members)
        total = np.zeros(len(self.feature_space), dtype=np.float64)
        for graph_id in members:
            self._membership[graph_id] = cluster_id
            total += self._vectors[graph_id]
        self._sums[cluster_id] = total
        self.touched_added.add(cluster_id)
        return cluster_id

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._clusters)

    def cluster_ids(self) -> list[int]:
        return sorted(self._clusters)

    def members(self, cluster_id: int) -> set[int]:
        return set(self._clusters[cluster_id])

    def cluster_of(self, graph_id: int) -> int:
        return self._membership[graph_id]

    def clusters(self) -> dict[int, set[int]]:
        return {cid: set(m) for cid, m in self._clusters.items()}

    def centroid(self, cluster_id: int) -> np.ndarray:
        members = self._clusters[cluster_id]
        if not members:
            return self._sums[cluster_id].copy()
        return self._sums[cluster_id] / len(members)

    def total_graphs(self) -> int:
        return len(self._membership)

    def cluster_weights(self) -> dict[int, float]:
        """``cw_i = |C_i| / |D|`` (Definition 2.1)."""
        total = self.total_graphs()
        if total == 0:
            return {cid: 0.0 for cid in self._clusters}
        return {
            cid: len(members) / total
            for cid, members in self._clusters.items()
        }

    def reset_touched(self) -> None:
        self.touched_added = set()
        self.touched_removed = set()

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def assign(
        self,
        graph_id: int,
        graph: LabeledGraph,
        graphs: Mapping[int, LabeledGraph] | None = None,
    ) -> int:
        """Assign a new graph to the nearest cluster (Algorithm 1, line 1).

        *graphs* supplies member graphs for fine-splitting when the
        target cluster overflows; without it the overflow split degrades
        to an arbitrary balanced cut.
        """
        if graph_id in self._membership:
            raise ValueError(f"graph {graph_id} is already clustered")
        _ASSIGNMENTS.add(1)
        vector = self.feature_space.vector_for_graph(graph)
        self._vectors[graph_id] = vector
        if not self._clusters:
            return self._new_cluster({graph_id})
        best_cluster = min(
            self._clusters,
            key=lambda cid: (
                float(np.linalg.norm(self.centroid(cid) - vector)),
                cid,
            ),
        )
        self._clusters[best_cluster].add(graph_id)
        self._membership[graph_id] = best_cluster
        self._sums[best_cluster] += vector
        self.touched_added.add(best_cluster)
        if len(self._clusters[best_cluster]) > self.max_cluster_size:
            self._split(best_cluster, graphs)
        return self._membership[graph_id]

    def remove(self, graph_id: int) -> int:
        """Remove a deleted graph from its cluster (Algorithm 1, line 2)."""
        try:
            cluster_id = self._membership.pop(graph_id)
        except KeyError:
            raise ValueError(f"graph {graph_id} is not clustered") from None
        _REMOVALS.add(1)
        self._clusters[cluster_id].discard(graph_id)
        self._sums[cluster_id] -= self._vectors.pop(graph_id)
        self.touched_removed.add(cluster_id)
        if not self._clusters[cluster_id]:
            del self._clusters[cluster_id]
            del self._sums[cluster_id]
        return cluster_id

    def _split(
        self, cluster_id: int, graphs: Mapping[int, LabeledGraph] | None
    ) -> None:
        _FINE_SPLITS.add(1)
        members = sorted(self._clusters[cluster_id])
        if graphs is not None:
            parts = fine_split(members, graphs, self.max_cluster_size)
        else:
            parts = [
                set(members[i : i + self.max_cluster_size])
                for i in range(0, len(members), self.max_cluster_size)
            ]
        del self._clusters[cluster_id]
        del self._sums[cluster_id]
        self.touched_removed.add(cluster_id)
        for part in parts:
            self._new_cluster(part)

    def refresh_feature_space(
        self, feature_space: FeatureSpace, known_ids: bool = True
    ) -> None:
        """Swap in a new feature space (after FCT maintenance).

        Vectors and centroid sums are recomputed from the new features'
        cover sets; memberships are untouched.
        """
        self.feature_space = feature_space
        for graph_id in self._membership:
            self._vectors[graph_id] = feature_space.vector_for_known(graph_id)
        for cluster_id, members in self._clusters.items():
            total = np.zeros(len(feature_space), dtype=np.float64)
            for graph_id in members:
                total += self._vectors[graph_id]
            self._sums[cluster_id] = total
        _ = known_ids
