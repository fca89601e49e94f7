"""Unit tests for repro.patterns (pattern set, budget, metrics)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.datasets import aids_like, family_injection
from repro.exceptions import RolledBack
from repro.graph.database import BatchUpdate
from repro.index.maintenance import IndexPair
from repro.midas.config import MidasConfig
from repro.patterns import (
    CannedPattern,
    CoverageOracle,
    PatternBudget,
    PatternSet,
    cognitive_load,
    diversity,
    label_coverage,
    midas_pattern_score,
    pattern_set_quality,
)
from repro.resilience.faults import Fault, inject_faults
from repro.trees.maintenance import FCTSet
from repro.utils.sampling import LazySampler

from .conftest import make_graph


class TestCannedPattern:
    def test_connected_required(self):
        disconnected = make_graph("CCOO", [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            CannedPattern(0, disconnected)

    def test_key_assigned(self):
        pattern = CannedPattern(0, make_graph("CO", [(0, 1)]))
        assert pattern.key is not None


class TestPatternSet:
    def test_add_and_iterate(self):
        ps = PatternSet()
        first = ps.add(make_graph("CO", [(0, 1)]), "a")
        second = ps.add(make_graph("CN", [(0, 1)]), "b")
        assert len(ps) == 2
        assert [p.pattern_id for p in ps] == [first.pattern_id, second.pattern_id]

    def test_isomorphic_duplicate_rejected(self):
        ps = PatternSet()
        ps.add(make_graph("CO", [(0, 1)]))
        with pytest.raises(ValueError):
            ps.add(make_graph("OC", [(0, 1)]))

    def test_has_isomorphic(self):
        ps = PatternSet()
        ps.add(make_graph("COS", [(0, 1), (0, 2)]))
        assert ps.has_isomorphic(make_graph("SOC", [(2, 1), (2, 0)]))
        assert not ps.has_isomorphic(make_graph("CON", [(0, 1), (0, 2)]))

    def test_remove(self):
        ps = PatternSet()
        pattern = ps.add(make_graph("CO", [(0, 1)]))
        ps.remove(pattern.pattern_id)
        assert len(ps) == 0
        with pytest.raises(KeyError):
            ps.remove(pattern.pattern_id)

    def test_swap_replaces(self):
        ps = PatternSet()
        old = ps.add(make_graph("CO", [(0, 1)]))
        new = ps.swap(old.pattern_id, make_graph("CN", [(0, 1)]), "swapped")
        assert len(ps) == 1
        assert old.pattern_id not in ps
        assert new.pattern_id in ps
        assert ps.get(new.pattern_id).provenance == "swapped"

    def test_swap_rejects_duplicate_of_other(self):
        ps = PatternSet()
        a = ps.add(make_graph("CO", [(0, 1)]))
        ps.add(make_graph("CN", [(0, 1)]))
        with pytest.raises(ValueError):
            ps.swap(a.pattern_id, make_graph("NC", [(0, 1)]))

    def test_swap_missing_raises(self):
        ps = PatternSet()
        with pytest.raises(KeyError):
            ps.swap(0, make_graph("CO", [(0, 1)]))

    def test_copy_independent(self):
        ps = PatternSet()
        ps.add(make_graph("CO", [(0, 1)]))
        clone = ps.copy()
        clone.add(make_graph("CN", [(0, 1)]))
        assert len(ps) == 1
        assert len(clone) == 2

    def test_size_distribution(self):
        ps = PatternSet()
        ps.add(make_graph("COS", [(0, 1), (0, 2)]))
        ps.add(make_graph("CN", [(0, 1)]))
        assert ps.size_distribution() == [1, 2]


class TestBudget:
    def test_defaults_match_paper(self):
        budget = PatternBudget()
        assert (budget.eta_min, budget.eta_max, budget.gamma) == (3, 12, 30)

    def test_eta_min_must_exceed_two(self):
        with pytest.raises(ValueError):
            PatternBudget(eta_min=2)

    def test_eta_order(self):
        with pytest.raises(ValueError):
            PatternBudget(eta_min=5, eta_max=4)

    def test_per_size_cap(self):
        budget = PatternBudget(3, 12, 30)
        assert budget.per_size_cap == 3  # ceil(30 / 10)

    def test_size_quota_sums_to_gamma(self):
        budget = PatternBudget(3, 6, 10)
        quota = budget.size_quota()
        assert sum(quota.values()) == 10
        assert all(v <= budget.per_size_cap for v in quota.values())

    def test_admits_size(self):
        budget = PatternBudget(3, 5, 6)
        assert budget.admits_size(3)
        assert budget.admits_size(5)
        assert not budget.admits_size(6)


class TestMetrics:
    def test_cognitive_load_formula(self, triangle):
        # cog = |E| * density = 3 * 1.0
        assert cognitive_load(triangle) == pytest.approx(3.0)

    def test_cognitive_load_sparse_lower(self, triangle, path3):
        assert cognitive_load(path3) < cognitive_load(triangle)

    def test_diversity_min_distance(self):
        p = make_graph("CO", [(0, 1)])
        near = make_graph("CN", [(0, 1)])
        far = make_graph("SSSS", [(0, 1), (1, 2), (2, 3)])
        assert diversity(p, [near, far]) == diversity(p, [near])

    def test_diversity_no_others_infinite(self, triangle):
        assert diversity(triangle, []) == float("inf")

    def test_label_coverage(self, paper_db):
        graphs = dict(paper_db.items())
        assert label_coverage(make_graph("CO", [(0, 1)]), graphs) == (
            pytest.approx(8 / 9)
        )


class TestCoverageOracle:
    @pytest.fixture
    def oracle(self, paper_db):
        return CoverageOracle(dict(paper_db.items()))

    def test_cover_and_scov(self, oracle):
        p = make_graph("CO", [(0, 1)])
        assert oracle.cover(p) == frozenset({0, 1, 2, 3, 5, 6, 7, 8})
        assert oracle.scov(p) == pytest.approx(8 / 9)

    def test_cover_cached(self, oracle):
        p = make_graph("CO", [(0, 1)])
        oracle.cover(p)
        tests_after_first = oracle.isomorphism_tests
        oracle.cover(p)
        assert oracle.isomorphism_tests == tests_after_first

    def test_union_and_unique_cover(self, oracle):
        co = make_graph("CO", [(0, 1)])
        cn = make_graph("CN", [(0, 1)])
        union = oracle.union_cover([co, cn])
        assert union == oracle.cover(co) | oracle.cover(cn)
        unique_cn = oracle.unique_cover(cn, [co])
        assert unique_cn == oracle.cover(cn) - oracle.cover(co)

    def test_loss_and_benefit(self, oracle):
        co = make_graph("CO", [(0, 1)])
        cn = make_graph("CN", [(0, 1)])
        loss = oracle.loss_score(cn, [co])
        benefit = oracle.benefit_score(cn, [co])
        # With P = {co}: adding cn gains exactly its unique cover.
        assert loss == pytest.approx(benefit)

    def test_set_scov_monotone(self, oracle):
        co = make_graph("CO", [(0, 1)])
        cn = make_graph("CN", [(0, 1)])
        assert oracle.set_scov([co, cn]) >= oracle.set_scov([co])

    def test_permuted_isomorphic_pattern_same_cover(self):
        """Isomorphic patterns share the canonical key but may assign
        labels to vertex IDs differently; each must get the full cover
        (regression: a seeded delta path once missed a host for the
        permuted twin)."""
        pattern_a = make_graph("CO", [(0, 1)])  # vertex 0 is C
        pattern_b = make_graph("OC", [(0, 1)])  # vertex 0 is O
        graphs = {
            0: make_graph("COS", [(0, 1), (1, 2)]),
            1: make_graph("NCO", [(0, 1), (1, 2)]),
        }
        oracle = CoverageOracle(graphs)
        assert oracle.cover(pattern_a) == {0, 1}
        assert oracle.cover(pattern_b) == {0, 1}
        assert CoverageOracle(graphs).cover(pattern_b) == {0, 1}

    def test_graphs_with_edge_label(self, oracle):
        assert oracle.graphs_with_edge_label(("C", "N")) == {1, 4}

    def test_score_zero_for_uncovered(self, oracle):
        alien = make_graph("XYZ", [(0, 1), (1, 2)])
        assert midas_pattern_score(alien, [], oracle) == 0.0

    def test_pattern_set_quality_keys(self, oracle):
        ps = PatternSet()
        ps.add(make_graph("COS", [(0, 1), (0, 2)]))
        ps.add(make_graph("CON", [(0, 1), (0, 2)]))
        quality = pattern_set_quality(ps, oracle)
        assert set(quality) == {"scov", "lcov", "div", "cog", "score"}
        assert 0 <= quality["scov"] <= 1
        assert quality["cog"] > 0

    def test_quality_empty_set(self, oracle):
        assert pattern_set_quality(PatternSet(), oracle)["score"] == 0.0


#: Patterns over the aids-like alphabet, from single edges to branches.
CHAIN_PATTERNS = (
    make_graph("CC", [(0, 1)]),
    make_graph("CO", [(0, 1)]),
    make_graph("CN", [(0, 1)]),
    make_graph("CS", [(0, 1)]),
    make_graph("CCO", [(0, 1), (1, 2)]),
    make_graph("CCN", [(0, 1), (1, 2)]),
    make_graph("NCO", [(0, 1), (1, 2)]),
    make_graph("CCCC", [(0, 1), (1, 2), (1, 3)]),
)


class TestCarriedCovers:
    """Covers carried along ``CoverageOracle.successor`` equal a fresh
    oracle's over the same view."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), indexed=st.booleans())
    def test_successor_chain_equals_fresh(self, data, indexed):
        pool = list(aids_like(24, seed=3).graphs())
        database = {gid: pool[gid] for gid in range(8)}
        next_id = len(database)
        # A sample below the universe, so reservoir eviction happens.
        sampler = LazySampler(database, max_size=5, seed=data.draw(st.integers(0, 9)))
        fct_set = pair = None
        if indexed:
            fct_set = FCTSet(database, sup_min=0.4)
            pair = IndexPair.build(fct_set, database)

        def view():
            return {gid: database[gid] for gid in sampler.sample_ids}

        oracle = CoverageOracle(view(), index_pair=pair)
        for _ in range(data.draw(st.integers(1, 5))):
            # Patterns are requested at random rounds, so some carried
            # covers skip rounds before they are asked for again.
            requested = data.draw(
                st.sets(st.sampled_from(range(len(CHAIN_PATTERNS))))
            )
            fresh = CoverageOracle(view())
            for index in sorted(requested):
                pattern = CHAIN_PATTERNS[index]
                assert oracle.cover(pattern) == fresh.cover(pattern)
            removed = data.draw(
                st.lists(
                    st.sampled_from(sorted(database)),
                    unique=True,
                    max_size=len(database) // 2,
                )
            )
            inserted = data.draw(
                st.lists(st.sampled_from(range(len(pool))), max_size=3)
            )
            for gid in removed:
                del database[gid]
            added = {}
            for index in inserted:
                added[next_id] = database[next_id] = pool[index]
                next_id += 1
            if indexed:
                fct_set.apply(added=added, removed=set(removed))
                pair.apply_update(fct_set, database, list(added), removed)
            sampler.remove_ids(removed)
            sampler.add_ids(list(added))
            oracle = oracle.successor(view())
        fresh = CoverageOracle(view())
        for pattern in CHAIN_PATTERNS:
            assert oracle.cover(pattern) == fresh.cover(pattern)

    @settings(max_examples=4, deadline=None)
    @given(seeds=st.lists(st.integers(0, 50), min_size=3, max_size=3))
    def test_rolled_back_round_leaves_fresh_equal_covers(self, seeds):
        config = MidasConfig(
            budget=PatternBudget(3, 5, 5),
            num_clusters=3,
            sample_cap=14,
            seed=5,
            epsilon=0.0,
        )
        midas = api.bootstrap(aids_like(20, seed=11), config=config)

        def family(seed):
            batch = family_injection(3, seed=seed)
            gone = sorted(midas.database.ids())[seed % 7 :: 9][:2]
            return BatchUpdate(insertions=batch.insertions, deletions=gone)

        def assert_fresh():
            sample = {
                gid: midas.database[gid] for gid in midas.sampler.sample_ids
            }
            fresh = CoverageOracle(sample)
            for graph in [*midas.pattern_graphs(), *CHAIN_PATTERNS]:
                assert midas.oracle.cover(graph) == fresh.cover(graph)

        api.maintain(midas, family(seeds[0]))
        assert_fresh()
        with inject_faults({"midas.swap": Fault()}):
            with pytest.raises(RolledBack):
                midas.apply_update(family(seeds[1]))
        assert_fresh()
        api.maintain(midas, family(seeds[2]))
        assert_fresh()

