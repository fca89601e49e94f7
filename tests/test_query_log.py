"""Unit tests for repro.midas.query_log (Section 3.5 extension)."""

import pytest

from repro.midas import LogWeightedSwapper, MultiScanSwapper, QueryLog
from repro.patterns import CoverageOracle, PatternSet

from .conftest import make_graph


class TestQueryLog:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            QueryLog(capacity=0)

    def test_fifo_bounded(self):
        log = QueryLog(capacity=3)
        for i in range(5):
            query = make_graph("CC", [(0, 1)])
            query.name = f"Q{i}"
            log.record(query)
        assert len(log) == 3
        assert [q.name for q in log.queries()] == ["Q2", "Q3", "Q4"]

    def test_usage_fraction(self):
        log = QueryLog()
        log.record(make_graph("CCO", [(0, 1), (1, 2)]))
        log.record(make_graph("CNN", [(0, 1), (1, 2)]))
        cc = make_graph("CC", [(0, 1)])
        assert log.usage_fraction(cc) == pytest.approx(0.5)
        assert log.usage_fraction(make_graph("SS", [(0, 1)])) == 0.0

    def test_empty_log_fraction_zero(self):
        assert QueryLog().usage_fraction(make_graph("CC", [(0, 1)])) == 0.0

    def test_pattern_weight_smoothing(self):
        log = QueryLog()
        log.record(make_graph("CCO", [(0, 1), (1, 2)]))
        cc = make_graph("CC", [(0, 1)])
        assert log.pattern_weight(cc) == pytest.approx(2.0)  # 1 + 1.0
        with pytest.raises(ValueError):
            log.pattern_weight(cc, smoothing=-1)


class TestLogWeightedSwapper:
    def test_logged_pattern_protected(self, paper_db):
        """A displayed pattern heavily used in the log is shielded from
        being swapped out even when a slightly better-scoring candidate
        arrives."""
        oracle = CoverageOracle(dict(paper_db.items()))
        protected = make_graph("CON", [(0, 1), (0, 2)])
        filler = make_graph("CSS", [(0, 1), (0, 2)])
        pattern_set = PatternSet()
        pattern_set.add(protected, "p")
        pattern_set.add(filler, "p")
        candidate = make_graph("COO", [(0, 1), (0, 2)])

        log = QueryLog()
        for _ in range(10):
            log.record(make_graph("CONC", [(0, 1), (0, 2), (1, 3)]))

        swapper = LogWeightedSwapper(
            oracle, log, kappa=0.0, lambda_=0.0
        )
        outcome = swapper.run(pattern_set, [candidate])
        # The filler (unlogged, zero coverage) is the victim, never the
        # heavily used N-C-O pattern.
        assert pattern_set.has_isomorphic(protected)
        if outcome.num_swaps:
            assert not pattern_set.has_isomorphic(filler)

    def test_weights_scale_every_score_the_swap_reads(self, paper_db):
        """With no smoothing and a log only the candidate serves, both
        displayed patterns weigh 0: the victim order falls back to
        pattern ID, so the first check is against pattern 0, which
        plain MIDAS ranks after pattern 1."""
        oracle = CoverageOracle(dict(paper_db.items()))
        candidate = make_graph("CN", [(0, 1)])
        log = QueryLog()
        log.record_many([make_graph("CN", [(0, 1)])] * 5)
        first_victims = []
        for swapper in (
            MultiScanSwapper(oracle, kappa=0.0, lambda_=0.0),
            LogWeightedSwapper(
                oracle, log, smoothing=0.0, kappa=0.0, lambda_=0.0
            ),
        ):
            pattern_set = PatternSet()
            pattern_set.add(make_graph("COS", [(0, 1), (0, 2)]), "p")
            pattern_set.add(make_graph("CON", [(0, 1), (0, 2)]), "p")
            outcome = swapper.run(pattern_set, [candidate])
            first_victims.append(outcome.decisions[0][2])
        assert first_victims == [1, 0]

    def test_weight_cached(self, paper_db):
        oracle = CoverageOracle(dict(paper_db.items()))
        log = QueryLog()
        log.record(make_graph("CCO", [(0, 1), (1, 2)]))
        swapper = LogWeightedSwapper(oracle, log)
        pattern = make_graph("CC", [(0, 1)])
        first = swapper._weight(pattern)
        log.record(make_graph("SSS", [(0, 1), (1, 2)]))  # would change it
        assert swapper._weight(pattern) == first  # cached


class TestSerialization:
    def test_pattern_set_round_trip(self, tmp_path):
        from repro.patterns import read_pattern_set, write_pattern_set

        patterns = PatternSet()
        patterns.add(make_graph("COS", [(0, 1), (0, 2)]), "catapult")
        patterns.add(make_graph("CN", [(0, 1)]), "midas")
        patterns.remove(patterns.ids()[0])  # create an ID gap
        patterns.add(make_graph("CCC", [(0, 1), (1, 2)]), "midas")
        path = tmp_path / "panel.json"
        write_pattern_set(path, patterns)
        restored = read_pattern_set(path)
        assert restored.ids() == patterns.ids()
        for pattern_id in patterns.ids():
            assert restored.get(pattern_id).provenance == (
                patterns.get(pattern_id).provenance
            )
            assert restored.get(pattern_id).key == (
                patterns.get(pattern_id).key
            )

    def test_bad_format_rejected(self):
        from repro.graph.io import FormatError
        from repro.patterns import loads_pattern_set

        with pytest.raises(FormatError):
            loads_pattern_set('{"format": "other", "patterns": []}')
