"""Unit tests for repro.graph.labeled_graph."""

import copy
import pickle
import random

import pytest

from repro.check.fuzz import random_labeled_graph
from repro.graph import GraphError, LabeledGraph, edge_key, normalize_edge_label
from repro.graph.canonical import canonical_certificate

from .conftest import make_graph


class TestConstruction:
    def test_empty_graph(self):
        g = LabeledGraph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert len(g) == 0

    def test_add_vertex_and_edge(self):
        g = LabeledGraph()
        g.add_vertex(0, "C")
        g.add_vertex(1, "O")
        g.add_edge(0, 1)
        assert g.num_vertices == 2
        assert g.num_edges == 1
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)

    def test_from_edges_keeps_isolated_vertices(self):
        g = LabeledGraph.from_edges({0: "C", 1: "O", 2: "N"}, [(0, 1)])
        assert g.num_vertices == 3
        assert g.degree(2) == 0

    def test_duplicate_vertex_same_label_is_noop(self):
        g = LabeledGraph()
        g.add_vertex(0, "C")
        g.add_vertex(0, "C")
        assert g.num_vertices == 1

    def test_duplicate_vertex_conflicting_label_raises(self):
        g = LabeledGraph()
        g.add_vertex(0, "C")
        with pytest.raises(GraphError):
            g.add_vertex(0, "O")

    def test_self_loop_rejected(self):
        g = LabeledGraph()
        g.add_vertex(0, "C")
        with pytest.raises(GraphError):
            g.add_edge(0, 0)

    def test_edge_to_missing_vertex_rejected(self):
        g = LabeledGraph()
        g.add_vertex(0, "C")
        with pytest.raises(GraphError):
            g.add_edge(0, 99)

    def test_parallel_edge_is_noop(self):
        g = make_graph("CC", [(0, 1)])
        g.add_edge(1, 0)
        assert g.num_edges == 1


class TestMutation:
    def test_remove_edge(self):
        g = make_graph("CCC", [(0, 1), (1, 2)])
        g.remove_edge(0, 1)
        assert g.num_edges == 1
        assert not g.has_edge(0, 1)

    def test_remove_missing_edge_raises(self):
        g = make_graph("CC", [(0, 1)])
        with pytest.raises(GraphError):
            g.remove_edge(0, 2)

    def test_remove_vertex_removes_incident_edges(self):
        g = make_graph("CCC", [(0, 1), (1, 2), (0, 2)])
        g.remove_vertex(1)
        assert g.num_vertices == 2
        assert g.num_edges == 1
        assert g.has_edge(0, 2)

    def test_remove_missing_vertex_raises(self):
        g = LabeledGraph()
        with pytest.raises(GraphError):
            g.remove_vertex(0)

    def test_copy_is_independent(self):
        g = make_graph("CC", [(0, 1)])
        clone = g.copy()
        clone.remove_edge(0, 1)
        assert g.num_edges == 1
        assert clone.num_edges == 0


class TestQueries:
    def test_size_is_edge_count(self):
        g = make_graph("CCCC", [(0, 1), (1, 2), (2, 3)])
        assert g.size == 3

    def test_edge_label_is_normalized(self):
        g = make_graph("OC", [(0, 1)])
        assert g.edge_label(0, 1) == ("C", "O")
        assert g.edge_label(1, 0) == ("C", "O")
        assert normalize_edge_label("O", "C") == ("C", "O")

    def test_edge_label_multiset(self):
        g = make_graph("COO", [(0, 1), (0, 2)])
        assert g.edge_label_multiset() == {("C", "O"): 2}

    def test_vertex_label_multiset(self):
        g = make_graph("CCO", [(0, 1), (1, 2)])
        assert g.vertex_label_multiset() == {"C": 2, "O": 1}

    def test_density_triangle(self, triangle):
        assert triangle.density() == pytest.approx(1.0)

    def test_density_small_graphs(self):
        assert LabeledGraph().density() == 0.0
        g = make_graph("C", [])
        assert g.density() == 0.0

    def test_neighbors_missing_vertex_raises(self):
        g = LabeledGraph()
        with pytest.raises(GraphError):
            g.neighbors(5)

    def test_edges_reported_once(self):
        g = make_graph("CCC", [(0, 1), (1, 2), (0, 2)])
        assert len(list(g.edges())) == 3

    def test_edge_key_is_order_independent(self):
        assert edge_key(2, 1) == edge_key(1, 2)

    def test_edge_key_rejects_self_loop(self):
        with pytest.raises(GraphError):
            edge_key(1, 1)


class TestStructure:
    def test_subgraph_induced(self):
        g = make_graph("CCCC", [(0, 1), (1, 2), (2, 3), (0, 3)])
        sub = g.subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        assert sub.num_edges == 2

    def test_subgraph_missing_vertex_raises(self):
        g = make_graph("CC", [(0, 1)])
        with pytest.raises(GraphError):
            g.subgraph([0, 5])

    def test_edge_subgraph(self):
        g = make_graph("CCCC", [(0, 1), (1, 2), (2, 3)])
        sub = g.edge_subgraph([(0, 1), (1, 2)])
        assert sub.num_vertices == 3
        assert sub.num_edges == 2

    def test_edge_subgraph_missing_edge_raises(self):
        g = make_graph("CC", [(0, 1)])
        with pytest.raises(GraphError):
            g.edge_subgraph([(0, 5)])

    def test_connected_components(self):
        g = LabeledGraph.from_edges(
            {0: "C", 1: "C", 2: "O", 3: "O"}, [(0, 1), (2, 3)]
        )
        components = g.connected_components()
        assert len(components) == 2
        assert {frozenset(c) for c in components} == {
            frozenset({0, 1}),
            frozenset({2, 3}),
        }

    def test_is_connected(self, triangle):
        assert triangle.is_connected()
        assert LabeledGraph().is_connected()  # vacuously

    def test_is_tree(self, path3, triangle):
        assert path3.is_tree()
        assert not triangle.is_tree()
        forest = LabeledGraph.from_edges(
            {0: "C", 1: "C", 2: "C", 3: "C"}, [(0, 1), (2, 3)]
        )
        assert not forest.is_tree()

    def test_relabeled_preserves_structure(self):
        g = LabeledGraph.from_edges(
            {"a": "C", "b": "O", "c": "N"}, [("a", "b"), ("b", "c")]
        )
        relabeled = g.relabeled()
        assert set(relabeled.vertices()) == {0, 1, 2}
        assert relabeled.num_edges == 2
        assert sorted(relabeled.labels().values()) == ["C", "N", "O"]

    def test_signature_isomorphism_invariant(self):
        g1 = make_graph("CON", [(0, 1), (1, 2)])
        g2 = LabeledGraph.from_edges(
            {7: "N", 8: "O", 9: "C"}, [(8, 9), (7, 8)]
        )
        assert g1.signature() == g2.signature()

    def test_signature_distinguishes_sizes(self, triangle, path3):
        assert triangle.signature() != path3.signature()


# ----------------------------------------------------------------------
# derived-data cache
# ----------------------------------------------------------------------
def edges_by_walk(graph: LabeledGraph) -> list:
    """The edge order of an adjacency walk, as ``edges()`` reports it."""
    seen, order = set(), []
    for u in graph._adj:
        for v in graph._adj[u]:
            key = edge_key(u, v)
            if key not in seen:
                seen.add(key)
                order.append(key)
    return order


def derived(graph: LabeledGraph) -> tuple:
    """Every cached quantity, recomputed through the public methods."""
    return (
        list(graph.edges()),
        graph.vertex_label_multiset(),
        graph.edge_label_multiset(),
        graph.edge_label_set(),
        canonical_certificate(graph),
    )


def fresh(graph: LabeledGraph) -> tuple:
    """The same quantities of an uncached graph with the same content."""
    clone = pickle.loads(pickle.dumps(graph))
    assert clone._views is None
    return derived(clone)


#: ``LabeledGraph.from_edges({0: "C", 1: "O", 2: "N"}, [(0, 1), (1, 2)],
#: name="g")`` pickled by the code before the cache slot existed.
LEGACY_PICKLE = (
    b"\x80\x05\x95\x98\x00\x00\x00\x00\x00\x00\x00\x8c\x19repro.graph."
    b"labeled_graph\x94\x8c\x0cLabeledGraph\x94\x93\x94)\x81\x94N}\x94("
    b"\x8c\x04name\x94\x8c\x01g\x94\x8c\x07_labels\x94}\x94(K\x00\x8c\x01C"
    b"\x94K\x01\x8c\x01O\x94K\x02\x8c\x01N\x94u\x8c\x04_adj\x94}\x94(K\x00"
    b"\x8f\x94(K\x01\x90K\x01\x8f\x94(K\x00K\x02\x90K\x02\x8f\x94(K\x01\x90u"
    b"\x8c\n_num_edges\x94K\x02u\x86\x94b."
)


class TestDerivedCache:
    MUTATIONS = {
        "add_vertex": lambda g: g.add_vertex(9, "S"),
        "add_edge": lambda g: g.add_edge(0, 2),
        "remove_edge": lambda g: g.remove_edge(0, 1),
        "remove_vertex": lambda g: g.remove_vertex(3),
        "remove_isolated_vertex": lambda g: (
            g.add_vertex(8, "N"),
            derived(g),
            g.remove_vertex(8),
        ),
    }

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_every_mutator_invalidates(self, mutation):
        g = make_graph("CONC", [(0, 1), (1, 2), (2, 3)])
        derived(g)
        assert g._views is not None
        self.MUTATIONS[mutation](g)
        assert derived(g) == fresh(g)

    def test_noop_mutations_keep_cache(self):
        g = make_graph("CO", [(0, 1)])
        views = g.views()
        g.add_vertex(0, "C")
        g.add_edge(1, 0)
        assert g.views() is views

    def test_copy_is_independent(self):
        g = make_graph("CON", [(0, 1), (1, 2)])
        before = derived(g)
        clone = g.copy()
        clone.add_edge(0, 2)
        clone.add_vertex(7, "S")
        assert derived(g) == before
        assert derived(clone) == fresh(clone)
        g.remove_edge(0, 1)
        assert derived(clone) == fresh(clone)

    @pytest.mark.parametrize("seed", range(20))
    def test_edge_order_matches_adjacency_walk(self, seed):
        rng = random.Random(seed)
        g = random_labeled_graph(rng, max_vertices=9, edge_probability=0.5)
        assert list(g.edges()) == edges_by_walk(g)
        for u, v in rng.sample(edges_by_walk(g), g.num_edges // 2):
            g.remove_edge(u, v)
        assert list(g.edges()) == edges_by_walk(g)

    def test_returned_collections_cannot_corrupt_cache(self):
        g = make_graph("COO", [(0, 1), (0, 2)])
        before = derived(g)
        g.vertex_label_multiset()["C"] = 99
        g.edge_label_multiset()[("C", "O")] = 99
        g.edge_label_set().add(("N", "N"))
        g.labels()[0] = "S"
        edges = g.edges()
        next(edges)
        assert derived(g) == before
        with pytest.raises(TypeError):
            g.views().edge_labels[("C", "O")] = 0

    def test_pickle_and_deepcopy_drop_cache(self):
        g = make_graph("CON", [(0, 1), (1, 2)])
        cold = pickle.dumps(g)
        derived(g)
        assert pickle.dumps(g) == cold
        clone = copy.deepcopy(g)
        assert clone._views is None
        assert derived(clone) == derived(g)

    def test_legacy_pickle_loads_with_empty_cache(self):
        g = pickle.loads(LEGACY_PICKLE)
        assert g._views is None
        assert g.name == "g"
        assert g.labels() == {0: "C", 1: "O", 2: "N"}
        assert sorted(g.edges()) == [(0, 1), (1, 2)]
        rebuilt = LabeledGraph.from_edges(
            {0: "C", 1: "O", 2: "N"}, [(0, 1), (1, 2)], name="g"
        )
        rebuilt.views()
        assert pickle.dumps(rebuilt, protocol=pickle.HIGHEST_PROTOCOL) == (
            LEGACY_PICKLE
        )
