"""Unit tests for fine splitting and cluster maintenance."""

import pytest

from repro.clustering import ClusterSet, fine_split
from repro.trees import FCTSet, FeatureSpace

from .conftest import insert_and_assign, make_graph


@pytest.fixture
def fct_set(paper_db):
    return FCTSet(dict(paper_db.items()), sup_min=3 / 9, max_edges=3)


@pytest.fixture
def setup(paper_db, fct_set):
    graphs = dict(paper_db.items())
    space = FeatureSpace(fct_set.fcts())
    clusters = ClusterSet.build(
        graphs, space, num_clusters=3, seed=0, max_cluster_size=5
    )
    return graphs, space, clusters


class TestFineSplit:
    def test_within_bound_unchanged(self, paper_db):
        graphs = dict(paper_db.items())
        parts = fine_split([0, 1, 2], graphs, max_cluster_size=5)
        assert parts == [{0, 1, 2}]

    def test_splits_to_bound(self, paper_db):
        graphs = dict(paper_db.items())
        parts = fine_split(list(graphs), graphs, max_cluster_size=4)
        assert all(len(p) <= 4 for p in parts)
        assert set().union(*parts) == set(graphs)
        assert sum(len(p) for p in parts) == len(graphs)

    def test_invalid_bound(self, paper_db):
        with pytest.raises(ValueError):
            fine_split([0], dict(paper_db.items()), 0)

    def test_similar_graphs_grouped(self, paper_db):
        graphs = dict(paper_db.items())
        # G0 and G3 are identical S-C-O stars; they should co-locate.
        parts = fine_split([0, 3, 4], graphs, max_cluster_size=2)
        together = [p for p in parts if 0 in p]
        assert 3 in together[0]


class TestClusterBuild:
    def test_partition(self, setup, paper_db):
        _, _, clusters = setup
        all_members = set()
        for cid in clusters.cluster_ids():
            members = clusters.members(cid)
            assert not (members & all_members)
            all_members |= members
        assert all_members == set(paper_db.ids())

    def test_max_size_respected(self, setup):
        _, _, clusters = setup
        for cid in clusters.cluster_ids():
            assert len(clusters.members(cid)) <= 5

    def test_cluster_weights_sum_to_one(self, setup):
        _, _, clusters = setup
        assert sum(clusters.cluster_weights().values()) == pytest.approx(1.0)

    def test_membership_lookup(self, setup):
        _, _, clusters = setup
        for cid in clusters.cluster_ids():
            for gid in clusters.members(cid):
                assert clusters.cluster_of(gid) == cid

    def test_empty_build(self, setup):
        _, space, _ = setup
        clusters = ClusterSet.build({}, space, 3)
        assert len(clusters) == 0


class TestClusterMaintenance:
    def test_assign_new_graph(self, setup, fct_set):
        graphs, _, clusters = setup
        new_graph = make_graph("COO", [(0, 1), (0, 2)])
        cid = insert_and_assign(clusters, fct_set, graphs, 100, new_graph)
        assert clusters.cluster_of(100) == cid
        assert 100 in clusters.members(cid)
        assert cid in clusters.touched_added

    def test_assign_duplicate_rejected(self, setup):
        graphs, _, clusters = setup
        with pytest.raises(ValueError):
            clusters.assign(0, graphs)

    def test_assign_goes_to_similar_cluster(self, setup, fct_set):
        graphs, _, clusters = setup
        # A clone of G7 (O-C-O) should join G7's cluster.
        clone = make_graph("COO", [(0, 1), (0, 2)])
        cid = insert_and_assign(clusters, fct_set, graphs, 101, clone)
        assert clusters.cluster_of(7) == cid

    def test_remove_graph(self, setup):
        _, _, clusters = setup
        cid = clusters.cluster_of(0)
        clusters.remove(0)
        assert 0 not in clusters.members(cid) if cid in clusters.cluster_ids() else True
        assert cid in clusters.touched_removed
        with pytest.raises(ValueError):
            clusters.remove(0)

    def test_remove_last_member_deletes_cluster(self, setup):
        _, _, clusters = setup
        cid = clusters.cluster_of(0)
        for gid in list(clusters.members(cid)):
            clusters.remove(gid)
        assert cid not in clusters.cluster_ids()

    def test_overflow_triggers_split(self, setup, fct_set):
        graphs, _, clusters = setup
        for i in range(10):
            g = make_graph("COO", [(0, 1), (0, 2)])
            insert_and_assign(clusters, fct_set, graphs, 200 + i, g)
        for cid in clusters.cluster_ids():
            assert len(clusters.members(cid)) <= 5

    def test_centroid_is_mean(self, setup):
        import numpy as np

        graphs, space, clusters = setup
        for cid in clusters.cluster_ids():
            members = sorted(clusters.members(cid))
            expected = np.mean(
                [space.vector_for_known(g) for g in members], axis=0
            )
            assert np.allclose(clusters.centroid(cid), expected)

    def test_refresh_feature_space(self, setup, paper_db):
        graphs, _, clusters = setup
        new_fct = FCTSet(dict(paper_db.items()), sup_min=2 / 9, max_edges=3)
        new_space = FeatureSpace(new_fct.fcts())
        memberships = {
            gid: clusters.cluster_of(gid) for gid in paper_db.ids()
        }
        clusters.refresh_feature_space(new_space)
        assert clusters.feature_space is new_space
        for gid, cid in memberships.items():
            assert clusters.cluster_of(gid) == cid

    def test_reset_touched(self, setup):
        graphs, _, clusters = setup
        clusters.remove(0)
        clusters.reset_touched()
        assert clusters.touched_added == set()
        assert clusters.touched_removed == set()
