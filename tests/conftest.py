"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.graph import GraphDatabase, LabeledGraph
from repro.trees import FeatureSpace


def make_graph(labels: str, edges) -> LabeledGraph:
    """Build a graph from a label string and an edge list.

    ``make_graph("COS", [(0, 1), (0, 2)])`` is the star C(-O)(-S).
    """
    return LabeledGraph.from_edges(dict(enumerate(labels)), edges)


def insert_and_assign(clusters, fct_set, graphs, graph_id, graph) -> int:
    """Insert *graph* as a maintenance round does: FCT maintenance
    first, so the feature covers hold it, then cluster assignment."""
    graphs[graph_id] = graph
    fct_set.apply(added={graph_id: graph})
    clusters.refresh_feature_space(FeatureSpace(fct_set.fcts()))
    return clusters.assign(graph_id, graphs)


@pytest.fixture
def triangle() -> LabeledGraph:
    return make_graph("CCC", [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path3() -> LabeledGraph:
    return make_graph("CCC", [(0, 1), (1, 2)])


@pytest.fixture
def paper_db() -> GraphDatabase:
    """A database modelled on the paper's Figure 3 sample (G1–G9).

    Small star/chain molecules over the labels C, O, S, N; used by the
    mining and maintenance tests (cf. Examples 3.3 and 4.7).
    """
    graphs = [
        make_graph("COS", [(0, 1), (0, 2)]),          # G0: S-C-O
        make_graph("CON", [(0, 1), (0, 2)]),          # G1: N-C-O
        make_graph("CO", [(0, 1)]),                   # G2: C-O
        make_graph("COS", [(0, 1), (0, 2)]),          # G3: S-C-O
        make_graph("CN", [(0, 1)]),                   # G4: C-N
        make_graph("COOS", [(0, 1), (0, 2), (0, 3)]), # G5: star
        make_graph("CO", [(0, 1)]),                   # G6: C-O
        make_graph("COO", [(0, 1), (0, 2)]),          # G7: O-C-O
        make_graph("COO", [(0, 1), (0, 2)]),          # G8: O-C-O
    ]
    return GraphDatabase(graphs)


@pytest.fixture
def molecule_db() -> GraphDatabase:
    """A small seeded molecule database for integration-ish tests."""
    from repro.datasets import aids_like

    return aids_like(40, seed=11)
