"""Unit tests for repro.catapult (walks, candidates, selection, pipeline)."""

import random

import pytest

from repro.catapult import (
    CandidateGenerator,
    Catapult,
    CatapultConfig,
    CatapultPlusPlus,
    RandomWalker,
    cluster_coverage,
    csg_edge_weights,
    decay_weights,
    edge_label_document_frequency,
    grow_candidate,
)
from repro.check.oracles import (
    _candidate_trace,
    _literal_generate,
    _literal_grow,
    _literal_traversal_counts,
)
from repro.csg import SummaryGraph, build_csg
from repro.graph import edge_key
from repro.patterns import PatternBudget

from .conftest import make_graph


@pytest.fixture
def summary(paper_db):
    graphs = dict(paper_db.items())
    return build_csg(0, list(graphs), graphs), graphs


class TestWeights:
    def test_document_frequency(self, paper_db):
        frequency = edge_label_document_frequency(dict(paper_db.items()))
        assert frequency[("C", "O")] == 8

    def test_weights_in_unit_interval(self, summary):
        csg, graphs = summary
        frequency = edge_label_document_frequency(graphs)
        weights = csg_edge_weights(csg, frequency, len(graphs))
        assert set(weights) == {edge_key(*e) for e in csg.edges()}
        assert all(0.0 <= w <= 1.0 for w in weights.values())

    def test_common_label_weighs_more(self, summary):
        csg, graphs = summary
        frequency = edge_label_document_frequency(graphs)
        weights = csg_edge_weights(csg, frequency, len(graphs))
        by_label: dict[tuple, float] = {}
        for (u, v), w in weights.items():
            by_label.setdefault(csg.edge_label(u, v), w)
        assert by_label[("C", "O")] > by_label[("C", "N")]

    def test_decay(self):
        weights = {(0, 1): 1.0, (1, 2): 1.0}
        decay_weights(weights, {(0, 1)}, decay=0.5)
        assert weights[(0, 1)] == pytest.approx(0.5)
        assert weights[(1, 2)] == 1.0

    def test_decay_invalid(self):
        with pytest.raises(ValueError):
            decay_weights({}, set(), decay=0.0)


class TestRandomWalker:
    def test_counts_cover_edges(self, summary):
        csg, graphs = summary
        frequency = edge_label_document_frequency(graphs)
        weights = csg_edge_weights(csg, frequency, len(graphs))
        walker = RandomWalker(csg, weights, random.Random(0))
        counts = walker.traversal_counts(num_walks=50, walk_length=8)
        assert set(counts) == {edge_key(*e) for e in csg.edges()}
        assert sum(counts.values()) > 0

    def test_empty_summary(self):
        walker = RandomWalker(SummaryGraph(0), {}, random.Random(0))
        assert walker.traversal_counts() == {}

    def test_deterministic_for_seed(self, summary):
        csg, graphs = summary
        frequency = edge_label_document_frequency(graphs)
        weights = csg_edge_weights(csg, frequency, len(graphs))
        c1 = RandomWalker(csg, weights, random.Random(7)).traversal_counts(30, 6)
        c2 = RandomWalker(csg, weights, random.Random(7)).traversal_counts(30, 6)
        assert c1 == c2


@pytest.fixture
def walk_csg():
    """A CSG with a ring, a pendant chain and an isolated vertex."""
    csg = SummaryGraph(0)
    csg.add_graph(
        1,
        make_graph(
            "CCCCONS",
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6)],
        ),
    )
    csg.add_graph(2, make_graph("P", []))
    return csg


def _walk_both(csg, weights, seed, num_walks, walk_length):
    """(table walk counts, RNG state) and the literal loop's."""
    rng = random.Random(seed)
    got = RandomWalker(csg, weights, rng).traversal_counts(
        num_walks, walk_length
    )
    reference = random.Random(seed)
    want = _literal_traversal_counts(
        csg, weights, reference, num_walks, walk_length
    )
    return (got, rng.getstate()), (want, reference.getstate())


class TestWalkTables:
    def test_csg_weights(self, summary):
        csg, graphs = summary
        weights = csg_edge_weights(
            csg, edge_label_document_frequency(graphs), len(graphs)
        )
        for seed in range(5):
            got, want = _walk_both(csg, weights, seed, 50, 8)
            assert got == want

    def test_all_zero_weights_and_isolated_vertex(self, walk_csg):
        # Every draw falls back to uniform, so walks also enter the
        # isolated vertex and stop there at once.
        weights = dict.fromkeys(walk_csg.edges(), 0.0)
        got, want = _walk_both(walk_csg, weights, 3, 200, 6)
        assert got == want

    def test_vertex_with_all_zero_incident_weights(self, walk_csg):
        weights = {edge: 1.0 + i for i, edge in enumerate(walk_csg.edges())}
        for edge in weights:
            if 6 in edge:  # the chain's tail vertex
                weights[edge] = 0.0
        got, want = _walk_both(walk_csg, weights, 5, 200, 10)
        assert got == want

    def test_equal_weights(self, walk_csg):
        weights = dict.fromkeys(walk_csg.edges(), 0.25)
        got, want = _walk_both(walk_csg, weights, 11, 100, 12)
        assert got == want

    def test_long_walk(self, walk_csg):
        weights = {
            edge: 0.1 * (i % 3 + 1) for i, edge in enumerate(walk_csg.edges())
        }
        got, want = _walk_both(walk_csg, weights, 2, 20, 500)
        assert got == want
        assert sum(got[0].values()) > 0

    def test_rng_state_carries_over(self, summary):
        """Consecutive walkers share one RNG, as summaries do in
        generation: each must leave the state the literal loop would."""
        csg, graphs = summary
        weights = csg_edge_weights(
            csg, edge_label_document_frequency(graphs), len(graphs)
        )
        rng, reference = random.Random(9), random.Random(9)
        for _ in range(3):
            got = RandomWalker(csg, weights, rng).traversal_counts(30, 6)
            want = _literal_traversal_counts(csg, weights, reference, 30, 6)
            assert got == want
            assert rng.getstate() == reference.getstate()


class TestPrefixGrowth:
    """One growth per seed, read at every size, equals regrowing from
    scratch per size (the literal sort-per-step frontier)."""

    @staticmethod
    def _compare(csg, counts, edge_gate=None, edge_priority=None):
        reached = set()
        for seed_edge in csg.edges():
            for size in range(1, csg.num_edges + 2):
                got = grow_candidate(
                    csg, counts, seed_edge, size, edge_gate, edge_priority
                )
                want = _literal_grow(
                    csg, counts, seed_edge, size, edge_gate, edge_priority
                )
                assert got == want, (seed_edge, size)
                if got is not None:
                    reached.add((seed_edge, size))
        return reached

    def test_tied_scores(self, summary):
        csg, _ = summary
        self._compare(csg, dict.fromkeys(csg.edges(), 1))

    def test_distinct_scores_and_priority(self, summary):
        csg, _ = summary
        counts = {edge: (i * 7) % 5 for i, edge in enumerate(csg.edges())}
        self._compare(csg, counts)
        self._compare(
            csg,
            counts,
            edge_priority=lambda label: 1.0 if "O" in label else 0.0,
        )

    def test_gate_vetoes_at_first_and_middle_steps(self, walk_csg):
        counts = {edge: 10 - i for i, edge in enumerate(walk_csg.edges())}
        sizes_reached = set()
        for label in {walk_csg.edge_label(*e) for e in walk_csg.edges()}:
            reached = self._compare(
                walk_csg, counts, edge_gate=lambda lab, veto=label: lab != veto
            )
            best: dict = {}
            for seed_edge, size in reached:
                best[seed_edge] = max(best.get(seed_edge, 0), size)
            sizes_reached.update(best.values())
        # Some seed stops after one edge, another part-way.
        assert 1 in sizes_reached
        assert any(1 < size < walk_csg.num_edges for size in sizes_reached)

    def test_stuck_frontier(self, walk_csg):
        # The ring-and-chain component has 7 edges; larger sizes starve.
        counts = dict.fromkeys(walk_csg.edges(), 2)
        reached = self._compare(walk_csg, counts)
        assert max(size for _, size in reached) == walk_csg.num_edges

    def test_generator_equals_per_size_generation(self, summary):
        csg, graphs = summary
        budget = PatternBudget(3, 5, 9)
        for gate in (None, lambda label: label != ("C", "S")):
            generator = CandidateGenerator(graphs, budget, seed=4)
            reference = random.Random(4)
            got = generator.generate({0: csg}, edge_gate=gate)
            want = _literal_generate(
                generator, reference, {0: csg}, None, gate, None
            )
            assert got
            assert _candidate_trace(got) == _candidate_trace(want)
            assert generator._rng.getstate() == reference.getstate()


class TestGrowCandidate:
    def test_grows_to_target(self, summary):
        csg, _ = summary
        counts = {edge_key(*e): 1 for e in csg.edges()}
        seed = csg.edges()[0]
        grown = grow_candidate(csg, counts, seed, target_size=2)
        assert grown is not None
        edges, score = grown
        assert len(edges) == 2
        assert score >= 0

    def test_gate_vetoes_seed(self, summary):
        csg, _ = summary
        counts = {edge_key(*e): 1 for e in csg.edges()}
        seed = csg.edges()[0]
        assert grow_candidate(
            csg, counts, seed, 2, edge_gate=lambda label: False
        ) is None

    def test_stuck_growth_returns_none(self):
        csg = SummaryGraph(0)
        csg.add_graph(1, make_graph("CO", [(0, 1)]))
        counts = {edge_key(*e): 1 for e in csg.edges()}
        seed = csg.edges()[0]
        assert grow_candidate(csg, counts, seed, 5) is None


class TestCandidateGenerator:
    def test_candidates_per_size(self, summary):
        csg, graphs = summary
        budget = PatternBudget(3, 5, 9)
        generator = CandidateGenerator(graphs, budget, seed=0)
        candidates = generator.generate({0: csg})
        assert candidates
        sizes = {c.num_edges for c in candidates}
        assert sizes <= set(budget.sizes())
        for candidate in candidates:
            assert candidate.graph.is_connected()
            assert candidate.cluster_id == 0

    def test_gate_reduces_candidates(self, summary):
        csg, graphs = summary
        budget = PatternBudget(3, 5, 9)
        generator = CandidateGenerator(graphs, budget, seed=0)
        everything = generator.generate({0: csg})
        nothing = generator.generate({0: csg}, edge_gate=lambda label: False)
        assert len(nothing) == 0
        assert len(everything) > 0

    def test_priority_steers_generation(self, summary):
        """With a priority spike on a rare label, candidates containing
        that label appear; without it they do not."""
        csg, graphs = summary
        budget = PatternBudget(3, 4, 6)
        generator = CandidateGenerator(graphs, budget, seed=0)

        def favour_nitrogen(label):
            return 1.0 if "N" in label else 0.0

        unbiased = generator.generate({0: csg})
        biased = generator.generate({0: csg}, edge_priority=favour_nitrogen)
        biased_has_n = any(
            "N" in c.graph.vertex_label_set() for c in biased
        )
        assert biased_has_n
        # Unbiased generation on this CSG sticks to the dominant labels.
        assert sum(
            "N" in c.graph.vertex_label_set() for c in biased
        ) >= sum("N" in c.graph.vertex_label_set() for c in unbiased)

    def test_fcps_per_size_cap(self, summary):
        csg, graphs = summary
        budget = PatternBudget(3, 5, 9)
        generator = CandidateGenerator(
            graphs, budget, seed=0, fcps_per_size=1
        )
        candidates = generator.generate({0: csg})
        sizes = [c.num_edges for c in candidates]
        for size in set(sizes):
            assert sizes.count(size) <= 1


class TestClusterCoverage:
    def test_weighting(self, paper_db):
        graphs = dict(paper_db.items())
        csg_a = build_csg(0, [0, 3], graphs)   # S-C-O stars
        csg_b = build_csg(1, [4], graphs)      # C-N
        weights = {0: 0.7, 1: 0.3}
        pattern = make_graph("COS", [(0, 1), (0, 2)])
        assert cluster_coverage(pattern, {0: csg_a, 1: csg_b}, weights) == (
            pytest.approx(0.7)
        )


class TestPipelines:
    @pytest.fixture(scope="class")
    def config(self):
        return CatapultConfig(
            budget=PatternBudget(3, 6, 6),
            sup_min=0.5,
            num_clusters=3,
            sample_cap=40,
            seed=1,
        )

    def test_catapult_selects_patterns(self, molecule_db, config):
        result = Catapult(config).run(molecule_db)
        assert 0 < len(result.patterns) <= 6
        for pattern in result.patterns:
            assert 3 <= pattern.num_edges <= 6
            assert pattern.graph.is_connected()
        assert result.index_pair is None
        assert result.total_seconds > 0

    def test_catapult_plusplus_builds_indices(self, molecule_db, config):
        result = CatapultPlusPlus(config).run(molecule_db)
        assert result.index_pair is not None
        assert len(result.patterns) > 0
        # TP columns synced with the selected patterns.
        for pattern_id in result.patterns.ids():
            assert pattern_id in result.patterns

    def test_per_size_cap_respected(self, molecule_db, config):
        result = Catapult(config).run(molecule_db)
        sizes = [p.num_edges for p in result.patterns]
        cap = config.budget.per_size_cap
        for size in set(sizes):
            assert sizes.count(size) <= cap

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CatapultConfig(sup_min=0.0)
        with pytest.raises(ValueError):
            CatapultConfig(num_clusters=0)
        with pytest.raises(ValueError):
            CatapultConfig(sample_cap=0)
