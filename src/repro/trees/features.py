"""Feature vectors for graph clustering.

CATAPULT's coarse clustering runs k-means on per-graph feature vectors
whose dimensions are frequent subtrees; CATAPULT++/MIDAS use frequent
closed trees instead (paper, Sections 2.3 and 3.3).  Because the miners
in :mod:`repro.trees.mining` track exact cover sets, every vector is a
cover lookup: FCT maintenance puts a *new* graph in the covers of the
features it holds before the graph is assigned to a cluster (Algorithm
1, line 1), so no vector needs a containment test.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .mining import MinedTree


class FeatureSpace:
    """A fixed, ordered list of tree features defining a vector space.

    Parameters
    ----------
    features:
        Mined trees (FS or FCT) in a stable order; the i-th feature is
        the i-th vector dimension.
    """

    def __init__(self, features: Sequence[MinedTree]) -> None:
        self._features = list(features)
        self._index = {feature.key: i for i, feature in enumerate(features)}
        if len(self._index) != len(self._features):
            raise ValueError("duplicate feature keys in feature space")

    def __len__(self) -> int:
        return len(self._features)

    @property
    def features(self) -> list[MinedTree]:
        return list(self._features)

    def vector_for_known(self, graph_id: int) -> np.ndarray:
        """Vector of a graph the features' cover sets already account
        for."""
        vector = np.zeros(len(self._features), dtype=np.float64)
        for i, feature in enumerate(self._features):
            if graph_id in feature.cover:
                vector[i] = 1.0
        return vector

    def matrix_for_known(self, graph_ids: Sequence[int]) -> np.ndarray:
        """Stacked vectors (rows follow *graph_ids* order)."""
        matrix = np.zeros(
            (len(graph_ids), len(self._features)), dtype=np.float64
        )
        for row, graph_id in enumerate(graph_ids):
            matrix[row] = self.vector_for_known(graph_id)
        return matrix
