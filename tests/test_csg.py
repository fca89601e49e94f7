"""Unit tests for repro.csg (summary graphs and their maintenance)."""

import pytest

from repro.clustering import ClusterSet
from repro.csg import CSGSet, SummaryGraph, build_csg
from repro.isomorphism import contains
from repro.trees import FCTSet, FeatureSpace

from .conftest import insert_and_assign, make_graph


class TestSummaryGraph:
    def test_single_graph_integration(self):
        summary = SummaryGraph(0)
        g = make_graph("COS", [(0, 1), (0, 2)])
        summary.add_graph(7, g)
        assert summary.num_vertices == 3
        assert summary.num_edges == 2
        assert summary.member_ids == {7}
        for u, v in summary.edges():
            assert summary.edge_graph_ids(u, v) == {7}

    def test_identical_graphs_overlap_fully(self):
        summary = SummaryGraph(0)
        g = make_graph("COS", [(0, 1), (0, 2)])
        summary.add_graph(1, g)
        summary.add_graph(2, g.copy())
        assert summary.num_vertices == 3
        assert summary.num_edges == 2
        for u, v in summary.edges():
            assert summary.edge_graph_ids(u, v) == {1, 2}

    def test_disjoint_labels_do_not_collapse(self):
        summary = SummaryGraph(0)
        summary.add_graph(1, make_graph("CO", [(0, 1)]))
        summary.add_graph(2, make_graph("NS", [(0, 1)]))
        assert summary.num_vertices == 4
        assert summary.num_edges == 2

    def test_duplicate_member_rejected(self):
        summary = SummaryGraph(0)
        summary.add_graph(1, make_graph("CO", [(0, 1)]))
        with pytest.raises(ValueError):
            summary.add_graph(1, make_graph("CO", [(0, 1)]))

    def test_partial_overlap(self):
        summary = SummaryGraph(0)
        summary.add_graph(1, make_graph("COS", [(0, 1), (0, 2)]))
        summary.add_graph(2, make_graph("CON", [(0, 1), (0, 2)]))
        # C and O align; S and N are separate leaves.
        assert summary.num_vertices == 4
        assert summary.num_edges == 3

    def test_remove_graph_reverts(self):
        summary = SummaryGraph(0)
        g1 = make_graph("COS", [(0, 1), (0, 2)])
        g2 = make_graph("CON", [(0, 1), (0, 2)])
        summary.add_graph(1, g1)
        summary.add_graph(2, g2)
        summary.remove_graph(2)
        assert summary.member_ids == {1}
        assert summary.num_vertices == 3
        assert summary.num_edges == 2

    def test_remove_unknown_member_rejected(self):
        summary = SummaryGraph(0)
        with pytest.raises(ValueError):
            summary.remove_graph(5)

    def test_edge_support_counts_members(self):
        summary = SummaryGraph(0)
        summary.add_graph(1, make_graph("CO", [(0, 1)]))
        summary.add_graph(2, make_graph("CO", [(0, 1)]))
        summary.add_graph(3, make_graph("CN", [(0, 1)]))
        co_edges = [
            e for e in summary.edges() if summary.edge_label(*e) == ("C", "O")
        ]
        assert sum(summary.edge_support(*e) for e in co_edges) == 2

    def test_as_labeled_graph_contains_members(self, paper_db):
        graphs = dict(paper_db.items())
        summary = build_csg(0, [0, 1, 3], graphs)
        host = summary.as_labeled_graph()
        for gid in (0, 1, 3):
            assert contains(host, graphs[gid])

    def test_build_csg_members(self, paper_db):
        graphs = dict(paper_db.items())
        summary = build_csg(9, [2, 6], graphs)
        assert summary.cluster_id == 9
        assert summary.member_ids == {2, 6}
        # Two identical C-O graphs integrate into a single edge.
        assert summary.num_edges == 1


@pytest.fixture
def fct_set(paper_db):
    return FCTSet(dict(paper_db.items()), sup_min=3 / 9, max_edges=3)


@pytest.fixture
def cluster_setup(paper_db, fct_set):
    graphs = dict(paper_db.items())
    space = FeatureSpace(fct_set.fcts())
    clusters = ClusterSet.build(graphs, space, 3, seed=0, max_cluster_size=5)
    csgs = CSGSet.build(clusters, graphs)
    return graphs, clusters, csgs


class TestCSGSet:
    def test_build_covers_all_clusters(self, cluster_setup):
        _, clusters, csgs = cluster_setup
        assert set(csgs.summaries()) == set(clusters.cluster_ids())

    def test_members_match_clusters(self, cluster_setup):
        _, clusters, csgs = cluster_setup
        for cid in clusters.cluster_ids():
            assert csgs.summary(cid).member_ids == clusters.members(cid)

    def test_integrate_marks_touched(self, cluster_setup):
        graphs, clusters, csgs = cluster_setup
        cid = clusters.cluster_ids()[0]
        g = make_graph("CO", [(0, 1)])
        csgs.integrate(cid, 500, g)
        assert cid in csgs.touched
        assert 500 in csgs.summary(cid).member_ids

    def test_detach_removes_and_marks(self, cluster_setup):
        _, clusters, csgs = cluster_setup
        cid = clusters.cluster_ids()[0]
        member = next(iter(clusters.members(cid)))
        csgs.detach(cid, member)
        assert cid in csgs.touched

    def test_detach_last_member_drops_summary(self, cluster_setup):
        _, clusters, csgs = cluster_setup
        cid = clusters.cluster_ids()[0]
        for member in list(clusters.members(cid)):
            csgs.detach(cid, member)
        assert cid not in csgs

    def test_sync_rebuilds_mismatches(self, cluster_setup, fct_set):
        graphs, clusters, csgs = cluster_setup
        new_graph = make_graph("COO", [(0, 1), (0, 2)])
        cid = insert_and_assign(clusters, fct_set, graphs, 300, new_graph)
        csgs.sync_with_clusters(clusters, graphs)
        assert csgs.summary(cid).member_ids == clusters.members(cid)

    def test_sync_drops_stale_clusters(self, cluster_setup):
        graphs, clusters, csgs = cluster_setup
        cid = clusters.cluster_ids()[0]
        for member in list(clusters.members(cid)):
            clusters.remove(member)
        csgs.sync_with_clusters(clusters, graphs)
        assert cid not in csgs

    def test_sync_leaves_matching_untouched(self, cluster_setup):
        graphs, clusters, csgs = cluster_setup
        before = {cid: csgs.summary(cid) for cid in clusters.cluster_ids()}
        csgs.reset_touched()
        csgs.sync_with_clusters(clusters, graphs)
        assert csgs.touched == set()
        for cid, summary in before.items():
            assert csgs.summary(cid) is summary
