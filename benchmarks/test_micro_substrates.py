"""Micro-benchmarks of the hot substrates.

Unlike the figure benchmarks (one full experiment per run), these are
classic pytest-benchmark micro-measurements with many rounds: subgraph
isomorphism, graphlet counting, GED bounds, FCT mining and the index
prefilter — the operations whose costs dominate every experiment.
"""

import pickle

import pytest

from repro.datasets import aids_like
from repro.ged import ged_bipartite_upper_bound, ged_tight_lower_bound
from repro.graph import LabeledGraph
from repro.graphlets import count_graphlets
from repro.index import IndexPair
from repro.isomorphism import contains, count_embeddings, find_embeddings
from repro.patterns import CoverageOracle
from repro.trees import FCTSet, TreeMiner, tree_certificate
from repro.workload import generate_queries


@pytest.fixture(scope="module")
def db():
    return aids_like(60, seed=42)


@pytest.fixture(scope="module")
def graphs(db):
    return dict(db.items())


@pytest.fixture(scope="module")
def pattern(graphs):
    queries = generate_queries(graphs, 1, size_range=(4, 4), seed=0)
    return queries[0]


def test_vf2_containment_scan(benchmark, graphs, pattern):
    """One pattern tested against the whole database."""

    def scan():
        return sum(1 for g in graphs.values() if contains(g, pattern))

    hits = benchmark(scan)
    assert 0 <= hits <= len(graphs)


def test_graphlet_counting(benchmark, graphs):
    """Graphlet census of the full database."""

    def census():
        total = 0.0
        for g in graphs.values():
            total += count_graphlets(g).sum()
        return total

    assert benchmark(census) > 0


def test_ged_bounds_pairwise(benchmark, graphs):
    """Tight lower + bipartite upper bounds over pattern-sized pairs."""
    pool = generate_queries(graphs, 12, size_range=(3, 8), seed=1)

    def bounds():
        total = 0
        for i, a in enumerate(pool):
            for b in pool[i + 1 :]:
                total += ged_tight_lower_bound(a, b)
                total += ged_bipartite_upper_bound(a, b)
        return total

    assert benchmark(bounds) >= 0


def test_fct_mining(benchmark, graphs):
    """Frequent-tree mining at the default threshold."""

    def mine():
        return len(TreeMiner(graphs, 0.5, max_edges=3).mine_frequent())

    assert benchmark(mine) > 0


def _literal_pool(graphs, threshold, max_edges):
    """Every tree frequent at *threshold* with its VF2 cover, grown
    level-wise by VF2 embeddings, and the closedness rule by VF2."""
    count = len(graphs) * threshold
    minimum = int(count) if int(count) == count else int(count) + 1

    def cover(tree):
        return {gid for gid, graph in graphs.items() if contains(graph, tree)}

    candidates = {}
    for graph in graphs.values():
        for u, v in graph.edges():
            tree = LabeledGraph()
            tree.add_vertex(0, graph.label(u))
            tree.add_vertex(1, graph.label(v))
            tree.add_edge(0, 1)
            candidates.setdefault(tree_certificate(tree), tree)
    pool = {}
    while candidates:
        level = {
            key: (tree, hosts)
            for key, tree in candidates.items()
            if len(hosts := cover(tree)) >= minimum
        }
        pool.update(level)
        candidates = {}
        for tree, hosts in level.values():
            if tree.num_edges >= max_edges:
                continue
            new_vertex = tree.num_vertices
            for gid in hosts:
                host = graphs[gid]
                for embedding in find_embeddings(host, tree):
                    used = set(embedding.values())
                    for vertex, image in embedding.items():
                        for neighbor in host.neighbors(image) - used:
                            grown = tree.copy()
                            grown.add_vertex(new_vertex, host.label(neighbor))
                            grown.add_edge(vertex, new_vertex)
                            candidates.setdefault(tree_certificate(grown), grown)
    return {
        key: (
            hosts,
            not any(
                other.num_edges == tree.num_edges + 1
                and len(other_hosts) == len(hosts)
                and contains(other, tree)
                for other, other_hosts in pool.values()
            ),
        )
        for key, (tree, hosts) in pool.items()
    }


def test_fct_add_batch(benchmark, graphs):
    """CTMiningAdd of a 5-graph batch: growth by embedding extension,
    pooled covers read from the Δ⁺ mine, bounded historic scans.

    Adding to a complete pool keeps it complete (a tree frequent in
    D ∪ Δ⁺ is frequent in D or in Δ⁺), so the maintained pool must
    equal the literal VF2 pool of D ∪ Δ⁺.
    """
    fct_set = FCTSet(graphs, 0.5, max_edges=3)
    blob = pickle.dumps(fct_set)
    batch = {
        1000 + index: graph
        for index, graph in enumerate(aids_like(5, seed=7).graphs())
    }

    def fresh():
        return (pickle.loads(blob),), {}

    def add(target):
        target.apply(added=batch)
        return target

    maintained = benchmark.pedantic(add, setup=fresh, rounds=5)
    merged = dict(graphs)
    merged.update(batch)
    literal = _literal_pool(merged, fct_set.relaxed_threshold, 3)
    assert {
        key: (tree.cover, tree.closed) for key, tree in maintained._pool.items()
    } == literal


def test_count_embeddings(benchmark, graphs, pattern):
    """Embedding counts over every graph (the TG/TP matrix entries)."""

    def scan():
        return sum(
            count_embeddings(g, pattern, limit=64) for g in graphs.values()
        )

    assert benchmark(scan) >= 0


def test_index_prefilter_speedup(benchmark, graphs, pattern):
    """Coverage with the FCT/IFE prefilter (the Section 6.1 trick)."""
    fct_set = FCTSet(graphs, 0.5, max_edges=3)
    pair = IndexPair.build(fct_set, graphs)

    def covered():
        oracle = CoverageOracle(graphs, index_pair=pair)
        return len(oracle.cover(pattern)), oracle.isomorphism_tests

    covered_count, tests = benchmark(covered)
    # The prefilter must not affect correctness...
    plain = CoverageOracle(graphs)
    assert covered_count == len(plain.cover(pattern))
    # ...and should skip at least some isomorphism tests.
    assert tests <= len(graphs)
