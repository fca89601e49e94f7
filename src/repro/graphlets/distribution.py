"""Graphlet frequency distributions (GFD) and distances between them.

A graph database is viewed as one large network of disconnected
components; its GFD is the relative frequency of each atlas graphlet over
all data graphs (paper, Section 3.4).  MIDAS compares the GFD of ``D``
and ``D ⊕ ΔD`` with the Euclidean distance and classifies the batch as a
*major* modification when the distance reaches the evolution ratio
threshold ε.  The paper's technical report states the choice of distance
has little impact; :data:`DISTANCE_MEASURES` provides alternatives for
the corresponding ablation benchmark.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from ..graph.labeled_graph import LabeledGraph
from .atlas import GRAPHLET_NAMES
from .counting import count_graphlets


class GraphletDistribution:
    """Aggregated, incrementally-maintainable graphlet counts.

    Per-graph count vectors are cached by graph ID so that applying a
    batch update costs one :func:`count_graphlets` call per *modified*
    graph only — the surviving graphs' contributions are reused.
    """

    def __init__(self, graphs: Mapping[int, LabeledGraph] | None = None) -> None:
        self._per_graph: dict[int, np.ndarray] = {}
        self._total = np.zeros(len(GRAPHLET_NAMES), dtype=np.float64)
        if graphs:
            for graph_id, graph in graphs.items():
                self.add(graph_id, graph)

    # ------------------------------------------------------------------
    def add(self, graph_id: int, graph: LabeledGraph) -> None:
        if graph_id in self._per_graph:
            raise ValueError(f"graph id {graph_id} already counted")
        counts = count_graphlets(graph)
        self._per_graph[graph_id] = counts
        self._total += counts

    def remove(self, graph_id: int) -> None:
        try:
            counts = self._per_graph.pop(graph_id)
        except KeyError:
            raise ValueError(f"graph id {graph_id} not counted") from None
        self._total -= counts

    def copy(self) -> "GraphletDistribution":
        clone = GraphletDistribution()
        clone._per_graph = dict(self._per_graph)
        clone._total = self._total.copy()
        return clone

    # ------------------------------------------------------------------
    @property
    def num_graphs(self) -> int:
        return len(self._per_graph)

    def totals(self) -> np.ndarray:
        """Raw aggregated counts in atlas order."""
        return self._total.copy()

    def frequencies(self) -> np.ndarray:
        """Normalised frequencies ψ (sums to 1; zero vector when empty)."""
        total = self._total.sum()
        if total <= 0:
            return np.zeros_like(self._total)
        return self._total / total

    def as_dict(self) -> dict[str, float]:
        return dict(zip(GRAPHLET_NAMES, self.frequencies()))


def database_distribution(
    graphs: Mapping[int, LabeledGraph]
) -> GraphletDistribution:
    """GFD of a database snapshot."""
    return GraphletDistribution(graphs)


# ----------------------------------------------------------------------
# distances between distributions
# ----------------------------------------------------------------------
def euclidean_distance(psi_a: np.ndarray, psi_b: np.ndarray) -> float:
    """The paper's default ``dist(ψ_D, ψ_{D⊕ΔD})``."""
    return float(np.linalg.norm(psi_a - psi_b))


def manhattan_distance(psi_a: np.ndarray, psi_b: np.ndarray) -> float:
    return float(np.abs(psi_a - psi_b).sum())


def cosine_distance(psi_a: np.ndarray, psi_b: np.ndarray) -> float:
    norm_a = np.linalg.norm(psi_a)
    norm_b = np.linalg.norm(psi_b)
    if norm_a == 0 or norm_b == 0:
        return 0.0 if norm_a == norm_b else 1.0
    return float(1.0 - np.dot(psi_a, psi_b) / (norm_a * norm_b))


def hellinger_distance(psi_a: np.ndarray, psi_b: np.ndarray) -> float:
    return float(
        np.linalg.norm(np.sqrt(np.clip(psi_a, 0, None)) - np.sqrt(np.clip(psi_b, 0, None)))
        / np.sqrt(2.0)
    )


DISTANCE_MEASURES = {
    "euclidean": euclidean_distance,
    "manhattan": manhattan_distance,
    "cosine": cosine_distance,
    "hellinger": hellinger_distance,
}


def distribution_distance(
    first: GraphletDistribution | np.ndarray | Iterable[float],
    second: GraphletDistribution | np.ndarray | Iterable[float],
    measure: str = "euclidean",
) -> float:
    """Distance between two GFDs under *measure*."""
    try:
        implementation = DISTANCE_MEASURES[measure]
    except KeyError:
        raise ValueError(
            f"unknown measure {measure!r}; choose from {sorted(DISTANCE_MEASURES)}"
        ) from None
    psi_a = (
        first.frequencies()
        if isinstance(first, GraphletDistribution)
        else np.asarray(list(first), dtype=np.float64)
    )
    psi_b = (
        second.frequencies()
        if isinstance(second, GraphletDistribution)
        else np.asarray(list(second), dtype=np.float64)
    )
    return implementation(psi_a, psi_b)
