"""Unit tests for repro.trees.mining (frequent/closed subtree mining).

The paper_db fixture mirrors the paper's Figure 3 / Example 3.3 database,
so several expectations here come straight from the paper's worked
examples.
"""

import pytest

from repro.isomorphism import contains, covered_graphs
from repro.trees import (
    TreeMiner,
    canonical_string,
    canonical_tokens,
    mine_closed_trees,
    mine_frequent_trees,
)

from .conftest import make_graph


@pytest.fixture
def mined(paper_db):
    graphs = dict(paper_db.items())
    return TreeMiner(graphs, 3 / 9, max_edges=3).mine_frequent()


class TestMiner:
    def test_invalid_support(self, paper_db):
        with pytest.raises(ValueError):
            TreeMiner(dict(paper_db.items()), 0.0)
        with pytest.raises(ValueError):
            TreeMiner(dict(paper_db.items()), 1.5)

    def test_invalid_max_edges(self, paper_db):
        with pytest.raises(ValueError):
            TreeMiner(dict(paper_db.items()), 0.5, max_edges=0)

    def test_supports_are_exact(self, paper_db, mined):
        for tree in mined:
            assert tree.cover == covered_graphs(paper_db, tree.tree)

    def test_all_mined_trees_are_frequent(self, mined):
        for tree in mined:
            assert tree.support_count >= 3

    def test_trees_are_actually_trees(self, mined):
        for tree in mined:
            assert tree.tree.is_tree()

    def test_co_edge_support(self, mined):
        by_string = {canonical_string(t.tree): t for t in mined}
        assert by_string["C $ O"].support_count == 8

    def test_example_3_3_closedness(self, mined):
        """The C-S edge is not closed: its supertree S-C-O has the same
        support (paper, Figure 5)."""
        by_string = {canonical_string(t.tree): t for t in mined}
        assert not by_string["C $ S"].closed
        assert by_string["C $ O S"].closed
        assert by_string["C $ O"].closed

    def test_completeness_against_bruteforce(self, paper_db):
        """Every 1- or 2-edge tree with support >= threshold is mined."""
        graphs = dict(paper_db.items())
        mined = {
            repr(t.key)
            for t in TreeMiner(graphs, 3 / 9, max_edges=2).mine_frequent()
        }
        # Brute force: enumerate all size-<=2 trees over the alphabet.
        from itertools import product

        from repro.trees import tree_certificate

        labels = "CONS"
        candidates = []
        for a, b in product(labels, repeat=2):
            candidates.append(make_graph(a + b, [(0, 1)]))
        for a, b, c in product(labels, repeat=3):
            candidates.append(make_graph(a + b + c, [(0, 1), (1, 2)]))
        seen = set()
        for candidate in candidates:
            key = repr(tree_certificate(candidate))
            if key in seen:
                continue
            seen.add(key)
            support = len(covered_graphs(paper_db, candidate))
            if support >= 3:
                assert key in mined, (
                    f"missed frequent tree {canonical_string(candidate)} "
                    f"(support {support})"
                )

    def test_closed_subset_of_frequent(self, paper_db):
        graphs = dict(paper_db.items())
        frequent = {repr(t.key) for t in mine_frequent_trees(graphs, 3 / 9, 3)}
        closed = {repr(t.key) for t in mine_closed_trees(graphs, 3 / 9, 3)}
        assert closed <= frequent
        assert len(closed) < len(frequent)  # C-S is open

    def test_max_edges_respected(self, paper_db):
        graphs = dict(paper_db.items())
        for tree in mine_frequent_trees(graphs, 2 / 9, max_edges=2):
            assert tree.num_edges <= 2

    def test_closedness_semantics(self, paper_db, mined):
        """A mined tree is closed iff no mined one-edge supertree has
        equal support (exhaustively re-checked)."""
        for tree in mined:
            has_equal_supertree = any(
                other.num_edges == tree.num_edges + 1
                and other.support_count == tree.support_count
                and contains(other.tree, tree.tree)
                for other in mined
            )
            if tree.num_edges < 3:  # frontier trees are reported closed
                assert tree.closed == (not has_equal_supertree)

    def test_empty_database(self):
        assert TreeMiner({}, 0.5).mine_frequent() == []

    def test_mined_tree_tokens(self, mined):
        for tree in mined:
            tokens = canonical_tokens(tree.tree)
            assert tokens[0] != "$"
