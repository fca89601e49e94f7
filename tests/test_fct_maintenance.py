"""Unit tests for repro.trees.maintenance (incremental FCT pool).

The gold standard throughout: maintained state must match mining from
scratch on the updated database (same FCTs, same supports).
"""

import functools
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.fuzz import random_connected_pattern
from repro.isomorphism import contains
from repro.isomorphism.matcher import find_embeddings
from repro.obs import get_registry
from repro.resilience.budget import Budget, use_budget
from repro.trees import (
    FCTSet,
    MinedTree,
    TreeMiner,
    TreeNatMiner,
    maintenance,
    mine_closed_trees,
)
from repro.trees.canonical import tree_certificate

from .conftest import make_graph


def fct_snapshot(fct_set: FCTSet) -> set[tuple[str, int]]:
    return {(repr(t.key), t.support_count) for t in fct_set.fcts()}


@pytest.fixture
def graphs(paper_db):
    return dict(paper_db.items())


@pytest.fixture
def fct_set(graphs):
    return FCTSet(graphs, sup_min=3 / 9, max_edges=3)


DELTA = {
    100: make_graph("COS", [(0, 1), (1, 2)]),
    101: make_graph("CSO", [(0, 1), (0, 2)]),
    102: make_graph("CO", [(0, 1)]),
}


class TestConstruction:
    def test_invalid_sup_min(self, graphs):
        with pytest.raises(ValueError):
            FCTSet(graphs, sup_min=0.0)

    def test_pool_mined_at_relaxed_threshold(self, fct_set):
        assert fct_set.relaxed_threshold == pytest.approx(1 / 6)
        assert fct_set.pool_size >= len(fct_set.fcts())

    def test_fcts_are_closed_and_frequent(self, fct_set):
        minimum = 3
        for tree in fct_set.fcts():
            assert tree.closed
            assert tree.support_count >= minimum

    def test_frequent_edges_are_single_edges(self, fct_set):
        for tree in fct_set.frequent_edges():
            assert tree.num_edges == 1

    def test_infrequent_edge_labels(self, fct_set):
        labels = fct_set.infrequent_edge_labels()
        assert ("C", "N") in labels      # support 2 < 3
        assert ("C", "O") not in labels  # support 8

    def test_empty_database(self):
        empty = FCTSet({}, sup_min=0.5)
        assert empty.fcts() == []


class TestAdditions:
    def test_matches_scratch_after_add(self, graphs, fct_set):
        fct_set.add_graphs(DELTA)
        merged = dict(graphs)
        merged.update(DELTA)
        scratch = FCTSet(merged, sup_min=3 / 9, max_edges=3)
        assert fct_snapshot(fct_set) == fct_snapshot(scratch)

    def test_duplicate_ids_rejected(self, fct_set):
        with pytest.raises(ValueError):
            fct_set.add_graphs({0: make_graph("CO", [(0, 1)])})

    def test_add_empty_is_noop(self, fct_set):
        before = fct_snapshot(fct_set)
        fct_set.add_graphs({})
        assert fct_snapshot(fct_set) == before

    def test_new_family_appears(self, graphs, fct_set):
        family = {
            200 + i: make_graph("BO", [(0, 1)]) for i in range(10)
        }
        fct_set.add_graphs(family)
        labels = {
            t.tree.edge_label(*next(t.tree.edges()))
            for t in fct_set.frequent_edges()
        }
        assert ("B", "O") in labels

    def test_db_size_tracked(self, fct_set):
        fct_set.add_graphs(DELTA)
        assert fct_set.db_size == 12


class TestDeletions:
    def test_matches_scratch_after_delete(self, graphs, fct_set):
        fct_set.remove_graphs([3, 5])
        remaining = {g: v for g, v in graphs.items() if g not in (3, 5)}
        scratch = FCTSet(remaining, sup_min=3 / 9, max_edges=3)
        assert fct_snapshot(fct_set) == fct_snapshot(scratch)

    def test_missing_ids_rejected(self, fct_set):
        with pytest.raises(ValueError):
            fct_set.remove_graphs([999])

    def test_remove_empty_is_noop(self, fct_set):
        before = fct_snapshot(fct_set)
        fct_set.remove_graphs([])
        assert fct_snapshot(fct_set) == before


class TestMixedAndSequences:
    def test_apply_add_and_remove(self, graphs, fct_set):
        fct_set.apply(added=DELTA, removed=[3, 5])
        merged = {g: v for g, v in graphs.items() if g not in (3, 5)}
        merged.update(DELTA)
        scratch = FCTSet(merged, sup_min=3 / 9, max_edges=3)
        assert fct_snapshot(fct_set) == fct_snapshot(scratch)

    def test_paper_example_4_7_sequence(self, graphs, fct_set):
        """Example 4.7: add G10-G12, then delete two graphs; the FCT set
        stays consistent with from-scratch mining throughout."""
        fct_set.add_graphs(DELTA)
        fct_set.remove_graphs([3, 5])
        merged = {g: v for g, v in graphs.items() if g not in (3, 5)}
        merged.update(DELTA)
        scratch = FCTSet(merged, sup_min=3 / 9, max_edges=3)
        assert fct_snapshot(fct_set) == fct_snapshot(scratch)

    def test_randomised_sequences_match_scratch(self, molecule_db):
        import random

        rng = random.Random(3)
        graphs = dict(molecule_db.items())
        live = dict(graphs)
        fct_set = FCTSet(live, sup_min=0.5, max_edges=3)
        from repro.datasets import MoleculeGenerator

        generator = MoleculeGenerator(seed=77)
        next_id = max(live) + 1
        for round_number in range(3):
            additions = {
                next_id + i: g
                for i, g in enumerate(generator.generate_many(5))
            }
            next_id += len(additions)
            victims = rng.sample(sorted(live), 3)
            fct_set.apply(added=additions, removed=victims)
            for victim in victims:
                del live[victim]
            live.update(additions)
            scratch = FCTSet(live, sup_min=0.5, max_edges=3)
            assert fct_snapshot(fct_set) == fct_snapshot(scratch), (
                f"divergence at round {round_number}"
            )

    def test_rebuild_restores_consistency(self, fct_set, graphs):
        fct_set.add_graphs(DELTA)
        before = fct_snapshot(fct_set)
        fct_set.rebuild()
        assert fct_snapshot(fct_set) == before


# ----------------------------------------------------------------------
# CTMiningAdd against an unbounded reference
# ----------------------------------------------------------------------
def min_count(db_size: int, threshold: float) -> int:
    count = db_size * threshold
    return int(count) if int(count) == count else int(count) + 1


def reference_add(fct_set, new_graphs, miner=TreeMiner):
    """Literal CTMiningAdd: no bound, every novel tree scans all of D.

    Returns the pool (key → MinedTree) *fct_set* should hold after
    ``add_graphs(new_graphs)``; *fct_set* itself is not touched.
    """
    old_graphs = dict(fct_set._graphs)
    relaxed = fct_set.relaxed_threshold
    pool = {
        key: MinedTree(tree=t.tree, key=key, cover=set(t.cover))
        for key, t in fct_set._pool.items()
    }
    for entry in pool.values():
        for graph_id, graph in new_graphs.items():
            if contains(graph, entry.tree):
                entry.cover.add(graph_id)
    mined = miner(new_graphs, relaxed, fct_set.max_edges).mine()
    for key, tree in mined.items():
        if key not in pool:
            tree.cover |= {
                graph_id
                for graph_id, graph in old_graphs.items()
                if contains(graph, tree.tree)
            }
            pool[key] = tree
    minimum = min_count(len(old_graphs) + len(new_graphs), relaxed)
    pool = {
        key: t
        for key, t in pool.items()
        if t.support_count >= minimum and t.support_count > 0
    }
    for entry in pool.values():
        entry.closed = not any(
            other.num_edges == entry.num_edges + 1
            and other.support_count == entry.support_count
            and contains(other.tree, entry.tree)
            for other in pool.values()
        )
    return pool


def pool_state(pool) -> list[tuple]:
    """Keys in pool order with covers, closed flags and representatives."""
    return [
        (
            repr(key),
            sorted(t.cover),
            t.closed,
            sorted(t.tree.labels().items()),
            sorted(t.tree.edges()),
        )
        for key, t in pool.items()
    ]


def random_batch(rng: random.Random, first_id: int, count: int) -> dict:
    return {
        first_id + i: random_connected_pattern(
            rng, min_edges=1, max_edges=6, labels="CNO"
        )
        for i in range(count)
    }


class TestBoundedAdd:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.2, 0.4, 0.6]),
        st.sampled_from([3, 4]),
        st.sampled_from([None, 3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_unbounded_reference(self, seed, sup_min, max_edges, cap):
        miner = TreeMiner
        if cap is not None:
            miner = functools.partial(TreeMiner, embedding_cap=cap)
        rng = random.Random(seed)
        live = random_batch(rng, 0, rng.randint(3, 10))
        with mock.patch.object(maintenance, "TreeMiner", miner):
            fct_set = FCTSet(live, sup_min=sup_min, max_edges=max_edges)
            next_id = len(live)
            for _ in range(3):
                victims = rng.sample(
                    sorted(live), rng.randint(0, len(live) // 3)
                )
                fct_set.remove_graphs(victims)
                for victim in victims:
                    del live[victim]
                batch = random_batch(rng, next_id, rng.randint(1, 6))
                next_id += len(batch)
                expected = reference_add(fct_set, batch, miner=miner)
                fct_set.add_graphs(batch)
                live.update(batch)
                assert pool_state(fct_set._pool) == pool_state(expected)

    def test_bound_skips_novel_trees(self, graphs, fct_set):
        # S-N is frequent in Δ⁺ (3 of 10 graphs, relaxed count 2) but no
        # old graph has that edge label, so it cannot reach the relaxed
        # count of 4 over 19 graphs: skipped without a historic scan.
        batch = {
            100 + i: make_graph("CSN", [(0, 1), (1, 2)]) for i in range(3)
        }
        batch.update({103 + i: make_graph("CO", [(0, 1)]) for i in range(7)})
        expected = reference_add(fct_set, batch)
        registry = get_registry()
        before = registry.counter("fct.bound_skips").value
        fct_set.add_graphs(batch)
        assert registry.counter("fct.bound_skips").value > before
        assert pool_state(fct_set._pool) == pool_state(expected)

    def test_embedding_cap_hit_falls_back(self, graphs, fct_set, monkeypatch):
        filtered = []

        class CappedMiner(TreeMiner):
            def __init__(self, *args):
                super().__init__(*args, embedding_cap=2)

            def mine(self, grow_filter=None, pooled=None, memo=None):
                filtered.append(grow_filter is not None)
                return super().mine(grow_filter, pooled, memo)

        monkeypatch.setattr(maintenance, "TreeMiner", CappedMiner)
        # A C with four O neighbours embeds C-O four times: over the cap.
        stars = {
            100 + i: make_graph("COOOO", [(0, 1), (0, 2), (0, 3), (0, 4)])
            for i in range(4)
        }
        expected = reference_add(fct_set, stars, miner=CappedMiner)
        filtered.clear()
        fct_set.add_graphs(stars)
        assert filtered == [True, False]  # the bounded mine is redone
        assert pool_state(fct_set._pool) == pool_state(expected)
        assert not fct_set._covers_exact
        # Later merges stay unbounded until a rebuild.
        later = {200 + i: graph for i, graph in enumerate(DELTA.values())}
        expected = reference_add(fct_set, later, miner=CappedMiner)
        filtered.clear()
        fct_set.add_graphs(later)
        assert filtered == [False]
        assert pool_state(fct_set._pool) == pool_state(expected)

    def test_budget_expiring_mid_delta_mine_falls_back(
        self, graphs, fct_set, monkeypatch
    ):
        budget = Budget()
        can_survive = maintenance.HistoricBound.can_survive

        def expire_after_first_level(self, tree):
            budget.exhaust("test")
            return can_survive(self, tree)

        monkeypatch.setattr(
            maintenance.HistoricBound, "can_survive", expire_after_first_level
        )
        batch = {
            100 + i: make_graph("COSN", [(0, 1), (0, 2), (2, 3)])
            for i in range(5)
        }
        degradations = get_registry().counter("resilience.degradations")
        before = degradations.value
        with use_budget(budget):
            fct_set.add_graphs(batch)
        assert degradations.value == before + 1
        merged = dict(graphs)
        merged.update(batch)
        for tree in fct_set.pool():
            assert tree.cover == {
                graph_id
                for graph_id, graph in merged.items()
                if contains(graph, tree.tree)
            }


# ----------------------------------------------------------------------
# TreeMiner growth by embedding extension
# ----------------------------------------------------------------------
def recorded_embeddings(miner: TreeMiner, **mine_args) -> tuple[dict, dict]:
    """Mine, recording what growth found per (tree, host): the list of
    embeddings, or their count at the ``max_edges`` frontier."""
    found_per_host = {}
    settle = miner._settle

    def record(graph_id, found, keep):
        for node, got in found.items():
            found_per_host[node.mined.key, graph_id] = (node, got)
        settle(graph_id, found, keep)

    with mock.patch.object(miner, "_settle", record):
        mined = miner.mine(**mine_args)
    for node, _ in found_per_host.values():
        node.materialize()  # trees that did not survive their level
    return mined, {
        cell: (node.mined.tree, got)
        for cell, (node, got) in found_per_host.items()
    }


class TestExtensionGrowth:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.2, 0.4]),
        st.sampled_from([2, 3, 4]),
    )
    @settings(max_examples=30, deadline=None)
    def test_embeddings_equal_vf2(self, seed, min_support, max_edges):
        rng = random.Random(seed)
        graphs = random_batch(rng, 0, rng.randint(2, 8))
        miner = TreeMiner(graphs, min_support, max_edges=max_edges)
        mined, found = recorded_embeddings(miner, pooled=())
        assert not miner.cap_hit
        for (key, graph_id), (tree, got) in found.items():
            assert tree_certificate(tree) == key
            reference = {
                tuple(embedding[v] for v in range(tree.num_vertices))
                for embedding in find_embeddings(graphs[graph_id], tree)
            }
            if isinstance(got, int):
                assert got == len(reference)
            else:
                assert len(got) == len(set(got))
                assert set(got) == reference
        for key, tree in mined.items():
            assert tree.cover == {
                graph_id
                for graph_id, graph in graphs.items()
                if contains(graph, tree.tree)
            }
            for graph_id in tree.cover:
                assert miner.embedding_counts[graph_id][key] == len(
                    find_embeddings(graphs[graph_id], tree.tree)
                )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_closed_flags_agree_with_treenat(self, seed):
        rng = random.Random(seed)
        graphs = random_batch(rng, 0, rng.randint(3, 8))
        levelwise = {
            (repr(t.key), t.support_count)
            for t in TreeMiner(graphs, 0.3, max_edges=3).mine_closed()
        }
        recursive = {
            (repr(t.key), t.support_count)
            for t in TreeNatMiner(graphs, 0.3, max_edges=3).mine_closed()
        }
        wrapper = {
            (repr(t.key), t.support_count)
            for t in mine_closed_trees(graphs, 0.3, max_edges=3)
        }
        assert levelwise == recursive == wrapper

    def test_isomorphic_trees_share_one_representative(self):
        graphs = {
            0: make_graph("CON", [(0, 1), (0, 2)]),
            1: make_graph("NCO", [(1, 0), (1, 2)]),
        }
        mined = TreeMiner(graphs, 1.0, max_edges=2).mine()
        memo = {}
        again = TreeMiner(dict(reversed(graphs.items())), 1.0, 2).mine(memo=memo)
        for key, tree in mined.items():
            assert sorted(tree.tree.labels().items()) == sorted(
                again[key].tree.labels().items()
            )
            assert sorted(tree.tree.edges()) == sorted(again[key].tree.edges())
        assert set(memo) == {
            key for key, tree in again.items() if tree.num_edges == 1
        }

    def test_growth_memo_is_trimmed_with_the_pool(self, graphs, fct_set):
        assert fct_set._memo
        assert set(fct_set._memo) <= set(fct_set._pool)
        fct_set.remove_graphs(list(graphs)[:4])
        assert set(fct_set._memo) <= set(fct_set._pool)
        state = pickle.loads(pickle.dumps(fct_set))
        assert state._memo == {} and state._mined_counts == {}
        assert pool_state(state._pool) == pool_state(fct_set._pool)


class TestDeltaCounts:
    def test_counts_cover_every_pooled_tree_in_new_graphs(self, fct_set):
        fct_set.add_graphs(DELTA)
        for graph_id, graph in DELTA.items():
            counts = fct_set.mined_counts(graph_id, graph)
            assert counts is not None
            for tree in fct_set.pool():
                if graph_id in tree.cover:
                    assert counts[tree.key] == len(
                        find_embeddings(graph, tree.tree)
                    )
        assert fct_set.mined_counts(100, DELTA[101]) is None
        fct_set.remove_graphs([100])
        assert fct_set.mined_counts(101, DELTA[101]) is None

    def test_no_counts_without_exact_covers(self, fct_set):
        fct_set._covers_exact = False
        fct_set.add_graphs(DELTA)
        assert fct_set.mined_counts(100, DELTA[100]) is None


class TestRebuildCounts:
    def test_rebuild_counts_every_pooled_tree(self, graphs, fct_set):
        for graph_id, graph in graphs.items():
            counts = fct_set.mined_counts(graph_id, graph)
            assert counts is not None
            for tree in fct_set.pool():
                if graph_id in tree.cover:
                    assert counts[tree.key] == len(
                        find_embeddings(graph, tree.tree)
                    )
        assert fct_set.mined_counts(0, graphs[1]) is None

    def test_capped_rebuild_keeps_no_counts(self, graphs, monkeypatch):
        monkeypatch.setattr(
            maintenance,
            "TreeMiner",
            functools.partial(TreeMiner, embedding_cap=1),
        )
        stars = dict(graphs)
        stars[100] = make_graph("COOOO", [(0, 1), (0, 2), (0, 3), (0, 4)])
        fct_set = FCTSet(stars, sup_min=3 / 10, max_edges=3)
        assert not fct_set._covers_exact
        assert fct_set.mined_counts(100, stars[100]) is None
