"""Integration-level tests for the MIDAS maintainer (Algorithm 1)."""

import pytest

from repro.datasets import (
    aids_like,
    family_injection,
    random_deletions,
    random_insertions,
)
from repro.graph import BatchUpdate
from repro.isomorphism import contains
from repro.midas import Midas, MidasConfig
from repro.patterns import PatternBudget, PatternSet, pattern_set_quality


@pytest.fixture(scope="module")
def config():
    return MidasConfig(
        budget=PatternBudget(3, 7, 8),
        sup_min=0.5,
        num_clusters=4,
        sample_cap=80,
        seed=3,
        epsilon=0.002,
    )


@pytest.fixture(scope="module")
def base_db():
    return aids_like(80, seed=9)


@pytest.fixture
def midas(base_db, config):
    return Midas.bootstrap(base_db, config)


class TestBootstrap:
    def test_initial_state(self, midas, base_db, config):
        assert 0 < len(midas.patterns) <= config.budget.gamma
        assert len(midas.database) == len(base_db)
        assert midas.index_pair is not None
        assert len(midas.clusters) > 0
        assert len(midas.csgs) == len(midas.clusters)

    def test_bootstrap_does_not_mutate_input(self, base_db, config):
        before = len(base_db)
        Midas.bootstrap(base_db, config)
        assert len(base_db) == before


class TestMinorModification:
    def test_small_batch_is_minor(self, midas):
        update = random_insertions(midas.database, 3, seed=1)
        report = midas.apply_update(update)
        assert not report.is_major
        assert report.swap_outcome is None
        assert report.num_swaps == 0

    def test_minor_still_maintains_structures(self, midas):
        patterns_before = [p.pattern_id for p in midas.patterns]
        update = random_insertions(midas.database, 3, seed=2)
        report = midas.apply_update(update)
        # Patterns untouched...
        assert [p.pattern_id for p in midas.patterns] == patterns_before
        # ...but clusters / database / FCT advanced.
        assert len(midas.database) == 80 + report.inserted_ids.__len__()
        for gid in report.inserted_ids:
            assert midas.clusters.cluster_of(gid) >= 0
        assert midas.fct_set.db_size == len(midas.database)

    def test_assignment_reads_feature_covers(self, midas, monkeypatch):
        """Inserted graphs are placed by the feature covers FCT
        maintenance has just extended, with no containment test of
        their own, and those vectors equal literal VF2 vectors."""

        def refuse(*args, **kwargs):
            raise AssertionError("cluster assignment ran VF2")

        monkeypatch.setattr(
            "repro.trees.features.contains", refuse, raising=False
        )
        update = random_insertions(midas.database, 3, seed=2)
        report = midas.apply_update(update)
        space = midas.clusters.feature_space
        for gid in report.inserted_ids:
            assert midas.clusters.cluster_of(gid) >= 0
            graph = midas.database[gid]
            literal = [
                1.0 if contains(graph, feature.tree) else 0.0
                for feature in space.features
            ]
            assert list(space.vector_for_known(gid)) == literal

    def test_deleted_graphs_leave_oracle_covers(self, midas):
        """Each round rebuilds the coverage oracle over the new sample:
        a deleted graph leaves the view and every cover set."""
        pattern = midas.pattern_graphs()[0]
        covered = midas.oracle.cover(pattern)
        assert covered
        victims = sorted(covered)[:2]
        midas.apply_update(BatchUpdate.of(deletions=victims))
        assert not set(victims) & midas.oracle.graph_ids()
        assert not set(victims) & midas.oracle.cover(pattern)
        assert not set(victims) & midas.oracle.label_cover(pattern)


class TestMajorModification:
    def test_family_injection_is_major(self, midas):
        report = midas.apply_update(family_injection(30, seed=4))
        assert report.is_major
        assert report.candidates_generated >= 0
        assert report.swap_outcome is not None

    def test_progressive_gain(self, midas):
        stale = [p.graph for p in midas.patterns]
        midas.apply_update(family_injection(30, seed=4))
        stale_set = PatternSet()
        for graph in stale:
            stale_set.add(graph, "stale")
        q_stale = pattern_set_quality(stale_set, midas.oracle)
        q_new = pattern_set_quality(midas.patterns, midas.oracle)
        assert q_new["scov"] >= q_stale["scov"] - 1e-12
        assert q_new["div"] >= q_stale["div"] - 1e-12
        assert q_new["cog"] <= q_stale["cog"] + 1e-12
        assert q_new["lcov"] >= q_stale["lcov"] - 1e-12

    def test_gamma_preserved_across_updates(self, midas, config):
        gamma = len(midas.patterns)
        midas.apply_update(family_injection(30, seed=4))
        assert len(midas.patterns) == gamma

    def test_pattern_sizes_stay_in_budget(self, midas, config):
        midas.apply_update(family_injection(30, seed=4))
        for pattern in midas.patterns:
            assert config.budget.admits_size(pattern.num_edges)


class TestStructuralConsistency:
    def test_clusters_partition_database(self, midas):
        midas.apply_update(family_injection(25, seed=5))
        clustered = set()
        for cid in midas.clusters.cluster_ids():
            members = midas.clusters.members(cid)
            assert not (members & clustered)
            clustered |= members
        assert clustered == set(midas.database.ids())

    def test_csgs_match_clusters(self, midas):
        midas.apply_update(family_injection(25, seed=5))
        for cid in midas.clusters.cluster_ids():
            assert midas.csgs.summary(cid).member_ids == (
                midas.clusters.members(cid)
            )

    def test_deletion_batch(self, midas):
        update = random_deletions(midas.database, 15, seed=6)
        report = midas.apply_update(update)
        assert len(midas.database) == 80 - len(report.deleted_ids)
        for gid in report.deleted_ids:
            assert gid not in midas.database

    def test_mixed_batch(self, midas):
        from repro.datasets import mixed_update

        update = mixed_update(midas.database, 10, 10, seed=7)
        report = midas.apply_update(update)
        assert report.inserted_ids and report.deleted_ids
        # FCT pool still mirrors the database.
        assert midas.fct_set.db_size == len(midas.database)

    def test_sequential_updates(self, midas):
        for seed in range(3):
            update = random_insertions(midas.database, 8, seed=seed)
            midas.apply_update(update)
        assert midas.fct_set.db_size == len(midas.database)
        clustered = set()
        for cid in midas.clusters.cluster_ids():
            clustered |= midas.clusters.members(cid)
        assert clustered == set(midas.database.ids())

    def test_empty_update_rejected(self, midas):
        # Empty batches are rejected at the boundary (a no-op round
        # would silently skip index/sample maintenance callers expect).
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="empty batch"):
            midas.apply_update(BatchUpdate())

    def test_report_timings_populated(self, midas):
        report = midas.apply_update(family_injection(20, seed=8))
        assert report.pattern_maintenance_seconds > 0
        assert report.cluster_maintenance_seconds >= 0
        if report.is_major:
            assert report.pattern_generation_seconds >= 0


class TestSmallPatternTray:
    def test_tray_disabled_by_default(self, midas):
        assert midas.small_tray is None

    def test_tray_maintained_alongside(self, base_db, config):
        from dataclasses import replace

        tray_config = replace(config, tray_edges=3, tray_paths=2)
        midas = Midas.bootstrap(base_db, tray_config)
        assert midas.small_tray is not None
        assert midas.small_tray.db_size == len(base_db)
        midas.apply_update(family_injection(25, seed=10))
        assert midas.small_tray.db_size == len(midas.database)
        tray = midas.small_tray.refresh()
        assert len(tray) == 5
        # The tray matches rebuilding counters from scratch.
        from repro.midas import SmallPatternTray

        scratch = SmallPatternTray(
            dict(midas.database.items()), num_edges=3, num_paths=2
        )
        assert midas.small_tray.top_edges() == scratch.top_edges()
        assert midas.small_tray.top_paths() == scratch.top_paths()
