"""Additional coverage for pipeline composition details."""

import pytest

from repro.catapult import Catapult, CatapultConfig, CatapultPlusPlus
from repro.catapult.pipeline import CatapultResult
from repro.patterns import PatternBudget


@pytest.fixture(scope="module")
def config():
    return CatapultConfig(
        budget=PatternBudget(3, 5, 4),
        sup_min=0.5,
        num_clusters=3,
        sample_cap=30,
        seed=9,
    )


class TestPipelineComposition:
    def test_result_fields_populated(self, molecule_db, config):
        result = Catapult(config).run(molecule_db)
        assert isinstance(result, CatapultResult)
        assert result.clusters.total_graphs() == len(molecule_db)
        assert len(result.csgs) == len(result.clusters)
        assert result.sampler.universe_size == len(molecule_db)
        assert result.oracle.universe_size <= config.sample_cap
        assert result.feature_space.features

    def test_catapult_uses_frequent_features(self, molecule_db, config):
        result = Catapult(config).run(molecule_db)
        # CATAPULT clusters on frequent (not only closed) subtrees.
        frequent_keys = {
            repr(t.key) for t in result.fct_set.frequent()
        }
        for feature in result.feature_space.features:
            assert repr(feature.key) in frequent_keys

    def test_catapult_pp_uses_closed_features(self, molecule_db, config):
        result = CatapultPlusPlus(config).run(molecule_db)
        closed_keys = {repr(t.key) for t in result.fct_set.fcts()}
        for feature in result.feature_space.features:
            assert repr(feature.key) in closed_keys

    def test_csg_members_partition_database(self, molecule_db, config):
        result = Catapult(config).run(molecule_db)
        seen: set[int] = set()
        for cluster_id, summary in result.csgs.summaries().items():
            assert summary.member_ids == result.clusters.members(cluster_id)
            assert not (summary.member_ids & seen)
            seen |= summary.member_ids
        assert seen == set(molecule_db.ids())

    def test_timings_cover_all_phases(self, molecule_db, config):
        result = CatapultPlusPlus(config).run(molecule_db)
        phases = result.phases
        for phase in ("mining", "clustering", "csg", "indexing", "selection"):
            assert phase in phases, f"missing phase {phase}"
        assert result.selection_seconds == phases["selection"]

    def test_sample_is_subset_of_database(self, molecule_db, config):
        result = Catapult(config).run(molecule_db)
        assert result.sampler.sample_ids <= set(molecule_db.ids())

    def test_pattern_provenance(self, molecule_db, config):
        result = Catapult(config).run(molecule_db)
        for pattern in result.patterns:
            assert pattern.provenance == "catapult"
