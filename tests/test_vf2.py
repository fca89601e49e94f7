"""Unit tests for repro.isomorphism — validated against networkx."""

import random

import networkx as nx
import pytest
from networkx.algorithms import isomorphism as nx_iso

from repro.graph import LabeledGraph
from repro.isomorphism import (
    VF2Matcher,
    contains,
    count_embeddings,
    covered_graphs,
    find_embedding,
    find_embeddings,
)

from .conftest import make_graph


def to_networkx(graph: LabeledGraph) -> nx.Graph:
    g = nx.Graph()
    for v in graph.vertices():
        g.add_node(v, label=graph.label(v))
    g.add_edges_from(graph.edges())
    return g


def nx_has_monomorphism(host: LabeledGraph, pattern: LabeledGraph) -> bool:
    matcher = nx_iso.GraphMatcher(
        to_networkx(host),
        to_networkx(pattern),
        node_match=lambda a, b: a["label"] == b["label"],
    )
    return matcher.subgraph_is_monomorphic()


def random_graph(n: int, p: float, labels: str, rng: random.Random) -> LabeledGraph:
    g = LabeledGraph()
    for v in range(n):
        g.add_vertex(v, rng.choice(labels))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j)
    return g


class TestBasics:
    def test_edge_in_triangle(self, triangle):
        p = make_graph("CC", [(0, 1)])
        assert contains(triangle, p)
        assert count_embeddings(triangle, p) == 6  # 3 edges x 2 directions

    def test_label_mismatch(self, triangle):
        p = make_graph("CO", [(0, 1)])
        assert not contains(triangle, p)

    def test_pattern_larger_than_host(self, triangle):
        p = make_graph("CCCC", [(0, 1), (1, 2), (2, 3)])
        assert not contains(triangle, p)

    def test_monomorphism_vs_induced(self, triangle, path3):
        assert contains(triangle, path3)                 # monomorphism
        assert not contains(triangle, path3, induced=True)

    def test_induced_match(self):
        host = make_graph("CCCC", [(0, 1), (1, 2), (2, 3)])
        p = make_graph("CCC", [(0, 1), (1, 2)])
        assert contains(host, p, induced=True)

    def test_empty_pattern_matches(self, triangle):
        assert contains(triangle, LabeledGraph())

    def test_find_embedding_is_valid(self):
        host = make_graph("CONC", [(0, 1), (1, 2), (2, 3), (3, 0)])
        p = make_graph("CO", [(0, 1)])
        embedding = find_embedding(host, p)
        assert embedding is not None
        (u, v) = embedding[0], embedding[1]
        assert host.has_edge(u, v)
        assert host.label(u) == "C" and host.label(v) == "O"

    def test_find_embedding_none(self, triangle):
        assert find_embedding(triangle, make_graph("NN", [(0, 1)])) is None

    def test_find_embeddings_limit(self, triangle):
        p = make_graph("CC", [(0, 1)])
        assert len(find_embeddings(triangle, p, limit=3)) == 3

    def test_count_limit(self, triangle):
        p = make_graph("CC", [(0, 1)])
        assert count_embeddings(triangle, p, limit=4) == 4

    def test_embeddings_are_injective(self):
        host = make_graph("CCC", [(0, 1), (1, 2)])
        p = make_graph("CC", [(0, 1)])
        for embedding in find_embeddings(host, p):
            assert len(set(embedding.values())) == len(embedding)

    def test_disconnected_pattern(self):
        host = make_graph("COCN", [(0, 1), (2, 3)])
        p = LabeledGraph.from_edges(
            {0: "C", 1: "O", 2: "C", 3: "N"}, [(0, 1), (2, 3)]
        )
        assert contains(host, p)


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(20))
    def test_monomorphism_agrees_with_networkx(self, seed):
        rng = random.Random(seed)
        host = random_graph(rng.randint(4, 9), 0.4, "CNO", rng)
        pattern = random_graph(rng.randint(2, 4), 0.6, "CNO", rng)
        if pattern.num_edges == 0 or not pattern.is_connected():
            return
        expected = nx_has_monomorphism(host, pattern)
        assert contains(host, pattern) == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_embedding_count_agrees_with_networkx(self, seed):
        rng = random.Random(seed + 100)
        host = random_graph(6, 0.5, "CN", rng)
        pattern = random_graph(3, 0.8, "CN", rng)
        if not pattern.is_connected() or pattern.num_edges == 0:
            return
        matcher = nx_iso.GraphMatcher(
            to_networkx(host),
            to_networkx(pattern),
            node_match=lambda a, b: a["label"] == b["label"],
        )
        expected = sum(1 for _ in matcher.subgraph_monomorphisms_iter())
        assert count_embeddings(host, pattern) == expected


class TestCoveredGraphs:
    def test_covered_graphs(self, paper_db):
        p = make_graph("CO", [(0, 1)])
        covered = covered_graphs(paper_db, p)
        assert covered == {0, 1, 2, 3, 5, 6, 7, 8}

    def test_candidate_restriction(self, paper_db):
        p = make_graph("CO", [(0, 1)])
        covered = covered_graphs(paper_db, p, candidate_ids=[0, 4])
        assert covered == {0}


class TestMatcherInternals:
    def test_prefilter_rejects_label_shortage(self, triangle):
        p = make_graph("CCO", [(0, 1), (1, 2)])
        matcher = VF2Matcher(p, triangle)
        assert not matcher.has_match()

    def test_matching_order_covers_all_vertices(self):
        p = make_graph("CCCO", [(0, 1), (1, 2), (2, 3)])
        host = make_graph("CCCO", [(0, 1), (1, 2), (2, 3)])
        matcher = VF2Matcher(p, host)
        assert sorted(matcher.order, key=repr) == sorted(
            p.vertices(), key=repr
        )

    def test_order_is_built_only_after_the_prefilter_passes(self, triangle):
        rejected = VF2Matcher(make_graph("CCO", [(0, 1), (1, 2)]), triangle)
        assert not rejected.has_match()
        assert rejected._order is None
        accepted = VF2Matcher(make_graph("CC", [(0, 1)]), triangle)
        assert accepted.has_match()
        assert accepted._order is not None

    @pytest.mark.parametrize("seed", range(40))
    def test_order_matches_the_per_step_rarity_minimum(self, seed):
        """The cached rarity keys pick the same vertex at every step as
        recomputing ``rarity`` inside each ``min`` did."""
        rng = random.Random(seed)
        host = random_graph(rng.randint(3, 12), 0.4, "CNOS", rng)
        pattern = random_graph(rng.randint(1, 8), rng.random(), "CNO", rng)

        def rarity(vertex):
            return (
                host.vertex_label_multiset().get(pattern.label(vertex), 0),
                -pattern.degree(vertex),
                repr(vertex),
            )

        remaining = set(pattern.vertices())
        expected = []
        frontier = set()
        while remaining:
            if frontier:
                nxt = min(frontier, key=rarity)
            else:
                nxt = min(remaining, key=rarity)
            expected.append(nxt)
            remaining.discard(nxt)
            frontier.discard(nxt)
            frontier |= pattern.neighbors(nxt) & remaining
        assert VF2Matcher(pattern, host).order == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_unseeded_candidates_iterate_like_a_vertex_set(self, seed):
        """With no mapped neighbour and no domain, candidates come in the
        iteration order of a set built from ``host.vertices()`` (a set
        built from the label dict itself is presized and iterates
        differently)."""
        rng = random.Random(seed)
        host = LabeledGraph()
        for v in range(rng.randint(3, 30)):
            host.add_vertex(v if rng.random() < 0.5 else f"v{v}", "C")
        single = make_graph("C", [])
        got = [m[0] for m in VF2Matcher(single, host).matches()]
        assert got == list(set(host.vertices()))
