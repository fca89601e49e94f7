"""Unit tests for repro.midas.baselines."""

import pytest

from repro.datasets import aids_like, family_injection
from repro.midas import (
    Midas,
    MidasConfig,
    NoMaintainBaseline,
    RandomSwapMaintainer,
    from_scratch,
    maintenance_report_summary,
)
from repro.patterns import PatternBudget


@pytest.fixture(scope="module")
def config():
    return MidasConfig(
        budget=PatternBudget(3, 6, 6),
        sup_min=0.5,
        num_clusters=3,
        sample_cap=60,
        seed=5,
        epsilon=0.002,
    )


@pytest.fixture(scope="module")
def base_db():
    return aids_like(60, seed=4)


class TestNoMaintain:
    def test_patterns_never_change(self, base_db, config):
        baseline = NoMaintainBaseline.bootstrap(base_db, config)
        before = [p.pattern_id for p in baseline.patterns]
        baseline.apply_update(family_injection(30, seed=1))
        assert [p.pattern_id for p in baseline.patterns] == before

    def test_database_advances(self, base_db, config):
        baseline = NoMaintainBaseline.bootstrap(base_db, config)
        baseline.apply_update(family_injection(10, seed=1))
        assert len(baseline.database) == len(base_db) + 10

    def test_pattern_graphs_accessor(self, base_db, config):
        baseline = NoMaintainBaseline.bootstrap(base_db, config)
        assert len(baseline.pattern_graphs()) == len(baseline.patterns)


class TestRandomSwap:
    def test_random_swaps_execute_on_major(self, base_db, config):
        maintainer = RandomSwapMaintainer(
            config, base_db.copy(), _state(base_db, config)
        )
        report = maintainer.apply_update(family_injection(30, seed=2))
        if report.is_major and report.candidates_promising:
            assert report.num_swaps >= 1

    def test_gamma_preserved(self, base_db, config):
        maintainer = RandomSwapMaintainer(
            config, base_db.copy(), _state(base_db, config)
        )
        gamma = len(maintainer.patterns)
        maintainer.apply_update(family_injection(30, seed=2))
        assert len(maintainer.patterns) == gamma


def _state(base_db, config):
    from repro.catapult import CatapultPlusPlus

    return CatapultPlusPlus(config).run(base_db.copy())


class TestFromScratch:
    def test_returns_fresh_patterns(self, base_db, config):
        update = family_injection(10, seed=3)
        patterns, phases, updated = from_scratch(base_db, update, config)
        assert len(patterns) > 0
        assert sum(phases.values()) > 0
        assert len(updated) == len(base_db) + 10
        assert len(base_db) == 60  # input untouched

    def test_plus_plus_variant(self, base_db, config):
        update = family_injection(10, seed=3)
        patterns, phases, _ = from_scratch(
            base_db, update, config, plus_plus=True
        )
        assert len(patterns) > 0
        assert phases["indexing"] >= 0


class TestReportSummary:
    def test_keys(self, base_db, config):
        midas = Midas.bootstrap(base_db, config)
        report = midas.apply_update(family_injection(20, seed=6))
        summary = maintenance_report_summary(report)
        assert set(summary) == {
            "pmt_seconds",
            "pgt_seconds",
            "cluster_seconds",
            "distance",
            "major",
            "swaps",
            "candidates",
            "promising",
        }
        assert summary["pmt_seconds"] > 0
