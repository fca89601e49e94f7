"""Unit tests for the FCT-Index, IFE-Index and their joint maintenance."""

import pytest

from repro.graph.canonical import canonical_certificate
from repro.index import FCTIndex, IFEIndex, IndexPair, fct_index as fct_module
from repro.index.fct_index import EMBEDDING_COUNT_CAP
from repro.isomorphism import contains, count_embeddings, covered_graphs
from repro.trees import FCTSet

from .conftest import make_graph


@pytest.fixture
def setting(paper_db):
    graphs = dict(paper_db.items())
    fct_set = FCTSet(graphs, sup_min=3 / 9, max_edges=3)
    return graphs, fct_set


@pytest.fixture
def fct_index(setting):
    graphs, fct_set = setting
    features = fct_set.fcts() + [
        e for e in fct_set.frequent_edges() if not e.closed
    ]
    return FCTIndex.build(features, graphs)


class TestFCTIndex:
    def test_contains_all_features(self, setting, fct_index):
        _, fct_set = setting
        keys = {f.key for f in fct_set.fcts() + fct_set.frequent_edges()}
        assert fct_index.feature_keys() == keys
        assert all(key in fct_index for key in keys)

    def test_tg_counts_match_vf2(self, setting, fct_index):
        graphs, _ = setting
        for feature in fct_index.features():
            row = fct_index.tg.row(feature.key)
            for graph_id, count in row.items():
                assert count == count_embeddings(
                    graphs[graph_id], feature.tree, limit=64
                )

    def test_graphs_with_feature_matches_cover(self, setting, fct_index):
        _, fct_set = setting
        for feature in fct_index.features():
            assert fct_index.graphs_with_feature(feature.key) == feature.cover

    def test_pattern_columns(self, fct_index):
        pattern = make_graph("COS", [(0, 1), (0, 2)])
        key = canonical_certificate(pattern)
        fct_index.sync_patterns([pattern])
        column = fct_index.tp.column(key)
        assert column  # the S-C-O star embeds several features
        assert column == {
            feature.key: count_embeddings(pattern, feature.tree, limit=64)
            for feature in fct_index.features()
            if contains(pattern, feature.tree)
        }
        fct_index.sync_patterns([])
        assert fct_index.tp.column(key) == {}

    def test_remove_feature(self, fct_index):
        fct_index.sync_patterns([make_graph("COS", [(0, 1), (0, 2)])])
        feature = next(
            f for f in fct_index.features() if fct_index.tp.row(f.key)
        )
        fct_index.remove_feature(feature.key)
        assert feature.key not in fct_index
        assert fct_index.tg.row(feature.key) == {}
        assert fct_index.tp.row(feature.key) == {}

    def test_add_graph_column(self, setting, fct_index):
        """A new graph's TG column covers exactly the features whose
        (maintained) cover holds it; mined counts are not recounted."""
        graphs, fct_set = setting
        new_graph = make_graph("COS", [(0, 1), (0, 2)])
        fct_set.apply(added={500: new_graph})
        fct_index.add_graph(500, new_graph)
        expected = {
            feature.key: count_embeddings(new_graph, feature.tree, limit=64)
            for feature in fct_index.features()
            if 500 in feature.cover
        }
        assert expected
        assert fct_index.tg.column(500) == expected
        fct_index.remove_graph(500)
        mined = dict.fromkeys(expected, 1)
        fct_index.add_graph(500, new_graph, lambda graph_id, graph: mined)
        assert fct_index.tg.column(500) == mined
        fct_index.remove_graph(500)
        assert fct_index.tg.column(500) == {}

    def test_candidate_prefilter_sound(self, setting, fct_index, paper_db):
        """The prefilter must never discard a true container (no false
        negatives); VF2 confirms the remaining candidates."""
        graphs, _ = setting
        for pattern in (
            make_graph("CO", [(0, 1)]),
            make_graph("COS", [(0, 1), (0, 2)]),
            make_graph("COO", [(0, 1), (0, 2)]),
            make_graph("CN", [(0, 1)]),
        ):
            truth = covered_graphs(paper_db, pattern)
            candidates = fct_index.candidate_graphs(pattern, graphs)
            assert truth <= candidates

    def test_memory_positive(self, fct_index):
        assert fct_index.memory_bytes() > 0


class TestIFEIndex:
    def test_build_counts(self, setting):
        graphs, fct_set = setting
        index = IFEIndex.build(fct_set.infrequent_edge_labels(), graphs)
        assert index.is_indexed(("C", "N"))
        assert index.graphs_with_edge(("C", "N")) == {1, 4}

    def test_frequent_labels_not_indexed(self, setting):
        graphs, fct_set = setting
        index = IFEIndex.build(fct_set.infrequent_edge_labels(), graphs)
        assert not index.is_indexed(("C", "O"))

    def test_pattern_columns(self, setting):
        """The IFE pattern side is the pattern's own edge-label multiset,
        not a stored column: a displayed pattern with two C-N edges keeps
        only graphs with at least two."""
        graphs, fct_set = setting
        pair = IndexPair.build(fct_set, graphs)
        pattern = make_graph("NCN", [(0, 1), (1, 2)])
        pair.sync_patterns([pattern])
        once = pair.candidate_graphs(make_graph("CN", [(0, 1)]), graphs)
        assert once == pair.ife.graphs_with_edge(("C", "N")) == {1, 4}
        twice = {
            graph_id
            for graph_id, count in pair.ife.eg.row(("C", "N")).items()
            if count >= 2
        }
        assert pair.candidate_graphs(pattern, graphs) <= twice

    def test_set_edge_labels_reconciles(self, setting):
        graphs, fct_set = setting
        index = IFEIndex.build(fct_set.infrequent_edge_labels(), graphs)
        index.set_edge_labels({("C", "O")}, graphs)
        assert index.is_indexed(("C", "O"))
        assert not index.is_indexed(("C", "N"))
        assert len(index.graphs_with_edge(("C", "O"))) == 8


class TestIndexPair:
    def test_build(self, setting):
        graphs, fct_set = setting
        pair = IndexPair.build(fct_set, graphs)
        assert pair.memory_bytes() > 0

    def test_build_reads_bootstrap_counts(self, setting, monkeypatch):
        """An exact bootstrap mine supplies every TG cell: no data graph
        is counted with VF2, and the cells equal the capped VF2 counts."""
        graphs, fct_set = setting
        recount = fct_module.count_embeddings

        def refuse_data_graphs(host, tree, limit=EMBEDDING_COUNT_CAP):
            assert all(host is not graph for graph in graphs.values())
            return recount(host, tree, limit)

        monkeypatch.setattr(fct_module, "count_embeddings", refuse_data_graphs)
        pair = IndexPair.build(fct_set, graphs)
        cells = 0
        for feature in pair.fct.features():
            row = pair.fct.tg.row(feature.key)
            for graph_id, graph in graphs.items():
                expected = min(
                    count_embeddings(graph, feature.tree), EMBEDDING_COUNT_CAP
                )
                assert row.get(graph_id, 0) == expected
                cells += expected > 0
        assert cells

    def test_edge_cover_dispatch(self, setting, paper_db):
        graphs, fct_set = setting
        pair = IndexPair.build(fct_set, graphs)
        # Frequent edge -> FCT index.
        co_cover = pair.graphs_covering_edge(("C", "O"))
        assert co_cover == covered_graphs(paper_db, make_graph("CO", [(0, 1)]))
        # Infrequent edge -> IFE index.
        cn_cover = pair.graphs_covering_edge(("C", "N"))
        assert cn_cover == {1, 4}
        # Unknown edge -> None (fall back to scanning).
        assert pair.graphs_covering_edge(("X", "Y")) is None

    def test_candidate_graphs_sound(self, setting, paper_db):
        graphs, fct_set = setting
        pair = IndexPair.build(fct_set, graphs)
        pattern = make_graph("CON", [(0, 1), (0, 2)])
        truth = covered_graphs(paper_db, pattern)
        assert truth <= pair.candidate_graphs(pattern, graphs)

    def test_apply_update_consistency(self, setting, paper_db):
        """After a batch, index answers must match a fresh rebuild."""
        graphs, fct_set = setting
        pair = IndexPair.build(fct_set, graphs)
        additions = {
            100: make_graph("COS", [(0, 1), (1, 2)]),
            101: make_graph("CO", [(0, 1)]),
        }
        removed = [4]
        fct_set.apply(added=additions, removed=removed)
        new_graphs = {g: v for g, v in graphs.items() if g != 4}
        new_graphs.update(additions)
        pair.apply_update(
            fct_set, new_graphs, added_ids=additions, removed_ids=removed
        )
        fresh = IndexPair.build(fct_set, new_graphs)
        for feature in fct_set.fcts():
            assert pair.fct.graphs_with_feature(feature.key) == (
                fresh.fct.graphs_with_feature(feature.key)
            )
        assert pair.ife.edge_labels() == fresh.ife.edge_labels()

    def test_apply_update_deletion_heavy(self, setting):
        """A batch deleting most of the database must leave both indices
        structurally equal to a from-scratch rebuild — deletions drive
        feature churn (support drops below sup_min) as well as column
        removal, which is the hard half of the maintenance path."""
        graphs, fct_set = setting
        pair = IndexPair.build(fct_set, graphs)
        removed = sorted(graphs)[: len(graphs) - 3]
        fct_set.apply(added={}, removed=removed)
        new_graphs = {
            g: v for g, v in graphs.items() if g not in set(removed)
        }
        pair.apply_update(
            fct_set, new_graphs, added_ids=[], removed_ids=removed
        )
        fresh = IndexPair.build(fct_set, new_graphs)
        assert pair.fct.feature_keys() == fresh.fct.feature_keys()
        for key in fresh.fct.feature_keys():
            assert pair.fct.tg.row(key) == fresh.fct.tg.row(key)
        assert pair.ife.edge_labels() == fresh.ife.edge_labels()
        for label in fresh.ife.edge_labels():
            assert pair.ife.graphs_with_edge(label) == (
                fresh.ife.graphs_with_edge(label)
            )

    def test_apply_update_mixed_batch(self, setting):
        """Simultaneous deletions and insertions in one batch: the
        reconciled indices must equal a rebuild and the containment
        prefilter must stay sound over the post-batch database."""
        graphs, fct_set = setting
        pair = IndexPair.build(fct_set, graphs)
        removed = sorted(graphs)[:3]
        additions = {
            200: make_graph("COSN", [(0, 1), (1, 2), (0, 3)]),
            201: make_graph("COO", [(0, 1), (0, 2)]),
            202: make_graph("CN", [(0, 1)]),
        }
        fct_set.apply(added=additions, removed=removed)
        new_graphs = {
            g: v for g, v in graphs.items() if g not in set(removed)
        }
        new_graphs.update(additions)
        pair.apply_update(
            fct_set,
            new_graphs,
            added_ids=additions,
            removed_ids=removed,
        )
        fresh = IndexPair.build(fct_set, new_graphs)
        assert pair.fct.feature_keys() == fresh.fct.feature_keys()
        for key in fresh.fct.feature_keys():
            assert pair.fct.tg.row(key) == fresh.fct.tg.row(key)
        for label in fresh.ife.edge_labels():
            assert pair.ife.graphs_with_edge(label) == (
                fresh.ife.graphs_with_edge(label)
            )
        for pattern in (
            make_graph("CO", [(0, 1)]),
            make_graph("CON", [(0, 1), (0, 2)]),
            make_graph("COS", [(0, 1), (1, 2)]),
        ):
            truth = {
                gid
                for gid, graph in new_graphs.items()
                if contains(graph, pattern)
            }
            assert truth <= pair.candidate_graphs(pattern, new_graphs)

    def test_apply_update_feature_remined_in_one_batch(self, setting):
        """A batch that deletes every host of a feature and inserts
        copies of them drops the feature's tree from the pool and mines
        it afresh as a new tree under the same key; the new hosts'
        TG cells must come from the new tree's cover."""
        graphs, fct_set = setting
        pair = IndexPair.build(fct_set, graphs)
        feature = max(pair.fct.features(), key=lambda f: f.num_edges)
        removed = sorted(feature.cover)
        additions = {600 + gid: graphs[gid].copy() for gid in removed}
        fct_set.apply(added=additions, removed=removed)
        new_graphs = {
            g: v for g, v in graphs.items() if g not in set(removed)
        }
        new_graphs.update(additions)
        pair.apply_update(
            fct_set, new_graphs, added_ids=additions, removed_ids=removed
        )
        remined = next(f for f in fct_set.fcts() if f.key == feature.key)
        assert remined is not feature
        fresh = IndexPair.build(fct_set, new_graphs)
        assert pair.fct.feature_keys() == fresh.fct.feature_keys()
        for key in fresh.fct.feature_keys():
            assert pair.fct.tg.row(key) == fresh.fct.tg.row(key)

    def test_inserted_columns_equal_vf2_counts(self, setting, monkeypatch):
        """TG cells of inserted graphs come from the FCT mine of Δ⁺ and
        equal the (capped) VF2 counts."""
        graphs, fct_set = setting
        pair = IndexPair.build(fct_set, graphs)
        star = "C" + "O" * 7
        additions = {
            300 + i: make_graph(star, [(0, j) for j in range(1, 8)])
            for i in range(6)
        }
        additions[306] = make_graph("COSN", [(0, 1), (1, 2), (0, 3)])
        fct_set.apply(added=additions, removed=[])
        new_graphs = dict(graphs)
        new_graphs.update(additions)
        recount = fct_module.count_embeddings

        def count_old_graphs_only(host, tree, limit=EMBEDDING_COUNT_CAP):
            assert all(host is not graph for graph in additions.values())
            return recount(host, tree, limit)

        monkeypatch.setattr(
            fct_module, "count_embeddings", count_old_graphs_only
        )
        pair.apply_update(
            fct_set, new_graphs, added_ids=additions, removed_ids=[]
        )
        cells = 0
        for feature in pair.fct.features():
            row = pair.fct.tg.row(feature.key)
            for graph_id, graph in additions.items():
                assert fct_set.mined_counts(graph_id, graph) is not None
                expected = min(
                    count_embeddings(graph, feature.tree),
                    EMBEDDING_COUNT_CAP,
                )
                assert row.get(graph_id, 0) == expected
                cells += expected > 0
        assert cells
        assert any(
            row.get(300) == EMBEDDING_COUNT_CAP
            for row in map(pair.fct.tg.row, pair.fct.feature_keys())
        )

    def test_sync_patterns(self, setting):
        """TP columns are keyed by certificate: an isomorphic copy of a
        displayed pattern reads the same column."""
        graphs, fct_set = setting
        pair = IndexPair.build(fct_set, graphs)
        pattern = make_graph("COS", [(0, 1), (0, 2)])
        copy = make_graph("SOC", [(2, 1), (2, 0)])
        key = canonical_certificate(pattern)
        assert canonical_certificate(copy) == key
        pair.sync_patterns([pattern])
        assert pair.fct.tp.column(key)
        assert pair.fct.tp.column_keys() == [key]
        assert pair.candidate_graphs(copy, graphs) == (
            pair.candidate_graphs(pattern, graphs)
        )
        pair.sync_patterns([])
        assert pair.fct.tp.column(key) == {}

    def test_prefilter_reads_tp_after_a_feature_is_added(
        self, setting, monkeypatch
    ):
        """A feature added by a batch gets its TP cells at once, so the
        prefilter for a displayed pattern counts nothing, and its TP
        columns equal a from-scratch build's."""
        graphs, fct_set = setting
        pair = IndexPair.build(fct_set, graphs)
        patterns = [
            make_graph("COS", [(0, 1), (0, 2)]),
            make_graph("CON", [(0, 1), (0, 2)]),
        ]
        pair.sync_patterns(patterns)
        before = pair.fct.feature_keys()
        additions = {
            400 + i: make_graph("COSN", [(0, 1), (1, 2), (0, 3)])
            for i in range(4)
        }
        fct_set.apply(added=additions, removed=[])
        new_graphs = dict(graphs)
        new_graphs.update(additions)
        pair.apply_update(
            fct_set, new_graphs, added_ids=additions, removed_ids=[]
        )
        assert pair.fct.feature_keys() - before
        fresh = IndexPair.build(fct_set, new_graphs)
        fresh.sync_patterns(patterns)
        for key in map(canonical_certificate, patterns):
            assert pair.fct.tp.column(key) == fresh.fct.tp.column(key)

        def refuse(*args, **kwargs):
            raise AssertionError("counted a displayed pattern")

        monkeypatch.setattr(fct_module, "count_embeddings", refuse)
        for pattern in patterns:
            truth = {
                gid
                for gid, graph in new_graphs.items()
                if contains(graph, pattern)
            }
            assert truth <= pair.candidate_graphs(pattern, new_graphs)
