"""Unit tests for repro.midas.pruning (Equation 2 and Definition 5.5)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.stores import CacheManager, set_caches, use_caching
from repro.check.fuzz import random_workload
from repro.check.oracles import _literal_promising
from repro.covindex.engine import CoverageEngine
from repro.midas import PruningContext
from repro.obs import get_registry
from repro.patterns import CoverageOracle

from .conftest import make_graph


@pytest.fixture
def oracle(paper_db):
    return CoverageOracle(dict(paper_db.items()))


class TestPruningContext:
    def test_invalid_kappa(self, oracle):
        with pytest.raises(ValueError):
            PruningContext(oracle, [], kappa=2.0)

    def test_threshold_floor(self, oracle):
        # No patterns -> min unique cover 0 -> floored threshold of 1.
        context = PruningContext(oracle, [], kappa=0.1)
        assert context.threshold == 1.0

    def test_threshold_scales_with_unique_cover(self, oracle):
        co = make_graph("CO", [(0, 1)])
        cn = make_graph("CN", [(0, 1)])
        context = PruningContext(oracle, [co, cn], kappa=0.5)
        # unique(co) = 6 (graphs with C-O but no C-N), unique(cn) = 1 (G4).
        assert context.threshold == pytest.approx(1.5)

    def test_edge_cover_from_scan(self, oracle):
        context = PruningContext(oracle, [], kappa=0.1)
        assert context.edge_cover(("C", "N")) == frozenset({1, 4})
        assert context.edge_cover(("X", "Y")) == frozenset()

    def test_edge_cover_cached(self, oracle):
        context = PruningContext(oracle, [], kappa=0.1)
        first = context.edge_cover(("C", "O"))
        assert context.edge_cover(("C", "O")) is first

    def test_edge_gate_semantics(self, oracle):
        # P covers everything except G4 (C-N); the weakest pattern has a
        # small unique cover, so the threshold is low.  Edges only found
        # in covered graphs fail the gate; C-N reaches uncovered G4.
        co = make_graph("CO", [(0, 1)])
        coo = make_graph("COO", [(0, 1), (0, 2)])
        context = PruningContext(oracle, [co, coo], kappa=0.0)
        assert context.threshold == 1.0  # min unique cover is 0, floored
        assert not context.edge_gate(("C", "O"))
        assert context.edge_gate(("C", "N"))

    def test_is_promising(self, oracle):
        co = make_graph("CO", [(0, 1)])
        coo = make_graph("COO", [(0, 1), (0, 2)])
        context = PruningContext(oracle, [co, coo], kappa=0.0)
        cn = make_graph("CN", [(0, 1)])
        redundant = make_graph("COS", [(0, 1), (0, 2)])
        assert context.is_promising(cn)             # covers uncovered G4
        assert not context.is_promising(redundant)  # subset of C-O cover

    def test_edge_priority_specificity(self, oracle):
        co = make_graph("CO", [(0, 1)])
        coo = make_graph("COO", [(0, 1), (0, 2)])
        context = PruningContext(oracle, [co, coo], kappa=0.0)
        # Only G4 (C-N) is uncovered: C-N is maximally specific to it.
        assert context.edge_priority(("C", "N")) == pytest.approx(0.5)
        # C-O only appears in covered graphs.
        assert context.edge_priority(("C", "O")) == 0.0
        # Unknown labels have empty cover.
        assert context.edge_priority(("X", "Y")) == 0.0

    def test_priority_in_unit_interval(self, oracle):
        context = PruningContext(oracle, [], kappa=0.1)
        for label in (("C", "O"), ("C", "N"), ("C", "S")):
            assert 0.0 <= context.edge_priority(label) <= 1.0

    def test_single_pattern_threshold_is_its_cover(self, oracle):
        """Definition 5.5 with |P| = 1: the pattern's unique cover is its
        whole cover, so only candidates with larger marginal coverage
        are promising."""
        co = make_graph("CO", [(0, 1)])
        context = PruningContext(oracle, [co], kappa=0.0)
        assert context.threshold == pytest.approx(8.0)
        assert not context.is_promising(make_graph("CN", [(0, 1)]))

    def test_gate_with_index(self, paper_db):
        from repro.index import IndexPair
        from repro.trees import FCTSet

        graphs = dict(paper_db.items())
        fct_set = FCTSet(graphs, sup_min=3 / 9, max_edges=3)
        pair = IndexPair.build(fct_set, graphs)
        oracle = CoverageOracle(graphs, index_pair=pair)
        context = PruningContext(oracle, [], kappa=0.1, index_pair=pair)
        # Index-backed edge covers must agree with the direct scan.
        direct = PruningContext(oracle, [], kappa=0.1)
        for label in (("C", "O"), ("C", "N"), ("C", "S")):
            assert context.edge_cover(label) == direct.edge_cover(label)


class TestMemoisedGateAndPriority:
    """The per-label memo answers exactly what an uncached computation
    from the oracle's own covers would, on first and repeated calls."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.5]))
    def test_equals_uncached_computation(self, seed, kappa):
        graphs, displayed, _ = fuzz_case(seed)
        fresh = CoverageOracle(graphs)
        union = frozenset().union(*(fresh.cover(p) for p in displayed))
        context = PruningContext(CoverageOracle(graphs), displayed, kappa)
        labels = {
            label for g in graphs.values() for label in g.edge_label_set()
        } | {("X", "Y")}
        for label in sorted(labels) * 2:
            cover = fresh.graphs_with_edge_label(label)
            marginal = len(cover - union)
            assert context.edge_gate(label) == (marginal >= context.threshold)
            assert context.edge_priority(label) == (
                marginal / len(cover) if cover else 0.0
            )


# ----------------------------------------------------------------------
# the marginal-only promising test
# ----------------------------------------------------------------------
def literal_promising(graphs, displayed, candidate, kappa):
    """Definition 5.5 transcribed: a full cover on a fresh oracle."""
    return _literal_promising(
        CoverageOracle(graphs), displayed, [candidate], kappa
    )[0]


def fuzz_case(seed):
    workload = random_workload(
        random.Random(seed),
        num_graphs=10,
        num_patterns=6,
        num_batches=0,
    )
    patterns = list(workload.patterns)
    return dict(workload.graphs), patterns[: len(patterns) // 2], patterns


def vf2_cover_calls():
    return get_registry().counter("vf2.cover_calls").value


class TestMarginalPromising:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.1, 0.5]))
    def test_matches_literal_definition(self, seed, kappa):
        graphs, displayed, candidates = fuzz_case(seed)
        context = PruningContext(CoverageOracle(graphs), displayed, kappa)
        for candidate in candidates:
            assert context.is_promising(candidate) == literal_promising(
                graphs, displayed, candidate, kappa
            )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_reaches_equals_full_cover_for_any_exclusion(self, seed):
        graphs, _, candidates = fuzz_case(seed)
        rng = random.Random(seed)
        ids = sorted(graphs)
        fresh = CoverageOracle(graphs)
        for candidate in candidates:
            excluded = frozenset(i for i in ids if rng.random() < 0.5)
            for threshold in range(len(ids) + 2):
                oracle = CoverageOracle(graphs)
                want = len(fresh.cover(candidate) - excluded) >= threshold
                got = oracle.marginal_reaches(candidate, excluded, threshold)
                assert got == want

    def test_stops_once_the_threshold_is_reached(self, paper_db):
        oracle = CoverageOracle(dict(paper_db.items()))
        co = make_graph("CO", [(0, 1)])  # covers every graph but G4
        assert oracle.marginal_reaches(co, frozenset(), 2)
        assert oracle.isomorphism_tests == 2  # G0 and G1, then stop

    def test_stops_once_the_threshold_is_out_of_reach(self, paper_db):
        oracle = CoverageOracle(dict(paper_db.items()))
        cn = make_graph("CN", [(0, 1)])  # covers G1 and G4
        # G0 misses; the 8 graphs left cannot make 9 hits.
        assert not oracle.marginal_reaches(cn, frozenset(), 9)
        assert oracle.isomorphism_tests == 1
        # More than the residual hosts: decided without a single test.
        assert not oracle.marginal_reaches(cn, frozenset({0, 1, 2}), 7)
        assert oracle.isomorphism_tests == 1

    def test_no_partial_cover_is_memoised(self, paper_db):
        oracle = CoverageOracle(dict(paper_db.items()))
        co = make_graph("CO", [(0, 1)])
        assert oracle.marginal_reaches(co, frozenset({0, 1, 2}), 1)
        assert oracle._cover_cache == {}
        assert oracle.cover(co) == frozenset({0, 1, 2, 3, 5, 6, 7, 8})

    def test_counts_exactly_the_residual_tests(self, paper_db):
        oracle = CoverageOracle(dict(paper_db.items()))
        co = make_graph("CO", [(0, 1)])
        calls = vf2_cover_calls()
        # Residual hosts 4 (miss) and 8 (hit): both are needed for 1 hit.
        excluded = frozenset({0, 1, 2, 3, 5, 6, 7})
        assert oracle.marginal_reaches(co, excluded, 1)
        assert oracle.isomorphism_tests == 2
        assert vf2_cover_calls() == calls + 2

    def test_cached_cover_answers_without_vf2(self, paper_db):
        oracle = CoverageOracle(dict(paper_db.items()))
        co = make_graph("CO", [(0, 1)])
        oracle.cover(co)
        tests = oracle.isomorphism_tests
        assert oracle.marginal_reaches(co, frozenset({4, 5}), 7)
        assert not oracle.marginal_reaches(co, frozenset({4, 5}), 8)
        assert oracle.isomorphism_tests == tests

    def test_engine_verifies_only_residual_hosts(self, paper_db):
        graphs = dict(paper_db.items())
        oracle = CoverageOracle(graphs, engine=CoverageEngine(graphs))
        co = make_graph("CO", [(0, 1)])
        excluded = frozenset({0, 1, 2, 3, 5, 6, 7})
        assert oracle.marginal_reaches(co, excluded, 1)
        # The filter drops G4 (no C-O edge); only G8 is left to verify.
        assert oracle.isomorphism_tests == 1
        assert oracle._cover_cache == {}
        assert oracle.cover(co) == frozenset({0, 1, 2, 3, 5, 6, 7, 8})

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_engine_and_embedding_cache_agree(self, seed):
        graphs, displayed, candidates = fuzz_case(seed)
        plain = PruningContext(CoverageOracle(graphs), displayed, 0.1)
        want = [plain.is_promising(c) for c in candidates]
        engine_oracle = CoverageOracle(graphs, engine=CoverageEngine(graphs))
        engine = PruningContext(engine_oracle, displayed, 0.1)
        assert [engine.is_promising(c) for c in candidates] == want
        previous = set_caches(CacheManager())
        try:
            with use_caching(True):
                cold = PruningContext(CoverageOracle(graphs), displayed, 0.1)
                assert [cold.is_promising(c) for c in candidates] == want
                warm_oracle = CoverageOracle(graphs)
                warm = PruningContext(warm_oracle, displayed, 0.1)
                tests = warm_oracle.isomorphism_tests
                assert [warm.is_promising(c) for c in candidates] == want
                # Every residual verdict was cached by the cold pass.
                assert warm_oracle.isomorphism_tests == tests
        finally:
            set_caches(previous)

    def test_index_pair_does_not_change_decisions(self, paper_db):
        from repro.index import IndexPair
        from repro.trees import FCTSet

        graphs = dict(paper_db.items())
        pair = IndexPair.build(FCTSet(graphs, sup_min=3 / 9), graphs)
        displayed = [make_graph("CO", [(0, 1)]), make_graph("COO", [(0, 1), (0, 2)])]
        indexed = PruningContext(
            CoverageOracle(graphs, index_pair=pair),
            displayed,
            0.0,
            index_pair=pair,
        )
        for candidate in (
            make_graph("CN", [(0, 1)]),
            make_graph("COS", [(0, 1), (0, 2)]),
            make_graph("CS", [(0, 1)]),
        ):
            assert indexed.is_promising(candidate) == literal_promising(
                graphs, displayed, candidate, 0.0
            )
