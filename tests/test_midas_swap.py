"""Unit tests for repro.midas.swap (multi-scan swap, sw1-sw5, Lemma 6.3)."""

import pytest

from repro.midas import MultiScanSwapper, kappa_schedule
from repro.patterns import CoverageOracle, PatternSet, pattern_set_quality

from .conftest import make_graph


class TestKappaSchedule:
    def test_lemma_formula(self):
        kappa, sigma = kappa_schedule(0.25)
        assert kappa == pytest.approx(0.5)          # 1 - 2*0.25
        assert sigma == pytest.approx(1 / 3)        # 0.25 / 0.75

    def test_fixed_point(self):
        kappa, sigma = kappa_schedule(0.5)
        assert kappa == 0.0
        assert sigma == 0.5

    def test_sigma_converges_to_half(self):
        # Convergence is harmonic (σ_t ≈ 0.5 − c/t), so allow many steps.
        sigma = 0.25
        for _ in range(500):
            _, sigma = kappa_schedule(sigma)
        assert sigma == pytest.approx(0.5, abs=5e-3)

    def test_sigma_monotone(self):
        sigma = 0.25
        previous = sigma
        for _ in range(10):
            _, sigma = kappa_schedule(sigma)
            assert sigma >= previous
            previous = sigma


@pytest.fixture
def oracle(paper_db):
    return CoverageOracle(dict(paper_db.items()))


def build_set(*graphs):
    pattern_set = PatternSet()
    for graph in graphs:
        pattern_set.add(graph, "initial")
    return pattern_set


class TestMultiScanSwapper:
    def test_empty_candidates_no_swaps(self, oracle):
        swapper = MultiScanSwapper(oracle)
        pattern_set = build_set(make_graph("CO", [(0, 1)]))
        outcome = swapper.run(pattern_set, [])
        assert outcome.num_swaps == 0
        assert outcome.scans == 0

    def test_empty_pattern_set_no_swaps(self, oracle):
        swapper = MultiScanSwapper(oracle)
        outcome = swapper.run(PatternSet(), [make_graph("CO", [(0, 1)])])
        assert outcome.num_swaps == 0

    def test_isomorphic_candidates_skipped(self, oracle):
        swapper = MultiScanSwapper(oracle)
        pattern_set = build_set(make_graph("CO", [(0, 1)]))
        outcome = swapper.run(pattern_set, [make_graph("OC", [(0, 1)])])
        assert outcome.num_swaps == 0

    def test_beneficial_swap_executes(self, oracle):
        # P = {S-C-S (covers nothing), S-C-O}; candidate O-C-O covers
        # G5/G7/G8, two of which P misses, and swapping it for the dead
        # S-C-S pattern preserves diversity, load and label coverage.
        weak = make_graph("CSS", [(0, 1), (0, 2)])    # covers nothing
        keeper = make_graph("COS", [(0, 1), (0, 2)])  # covers G0, G3, G5
        strong = make_graph("COO", [(0, 1), (0, 2)])  # covers G5, G7, G8
        pattern_set = build_set(weak, keeper)
        swapper = MultiScanSwapper(oracle, kappa=0.0, lambda_=0.0)
        outcome = swapper.run(pattern_set, [strong])
        assert outcome.num_swaps == 1
        assert pattern_set.has_isomorphic(strong)
        assert not pattern_set.has_isomorphic(weak)

    def test_progressive_gain_invariant(self, oracle):
        """After any swap run: scov never lower, div/lcov never lower,
        cog never higher (sw1/sw3/sw4/sw5)."""
        initial = build_set(
            make_graph("CSS", [(0, 1), (0, 2)]),
            make_graph("CON", [(0, 1), (0, 2)]),
            make_graph("COS", [(0, 1), (1, 2)]),
        )
        candidates = [
            make_graph("COO", [(0, 1), (0, 2)]),
            make_graph("COS", [(0, 1), (0, 2)]),
            make_graph("CN", [(0, 1)]),
        ]
        before = pattern_set_quality(initial.copy(), oracle)
        swapper = MultiScanSwapper(oracle, kappa=0.1, lambda_=0.1)
        outcome = swapper.run(initial, candidates)
        after = pattern_set_quality(initial, oracle)
        assert after["scov"] >= before["scov"] - 1e-12
        if outcome.num_swaps:
            assert after["div"] >= before["div"] - 1e-12
            assert after["cog"] <= before["cog"] + 1e-12
            assert after["lcov"] >= before["lcov"] - 1e-12

    def test_gamma_preserved(self, oracle):
        pattern_set = build_set(
            make_graph("CSS", [(0, 1), (0, 2)]),
            make_graph("CON", [(0, 1), (0, 2)]),
        )
        swapper = MultiScanSwapper(oracle, kappa=0.0, lambda_=0.0)
        swapper.run(pattern_set, [make_graph("COO", [(0, 1), (0, 2)])])
        assert len(pattern_set) == 2

    def test_adaptive_kappa_runs(self, oracle):
        pattern_set = build_set(
            make_graph("CSS", [(0, 1), (0, 2)]),
            make_graph("CON", [(0, 1), (0, 2)]),
        )
        swapper = MultiScanSwapper(
            oracle, adaptive_kappa=True, sigma_initial=0.25, max_scans=3
        )
        outcome = swapper.run(
            pattern_set, [make_graph("COO", [(0, 1), (0, 2)])]
        )
        assert outcome.scans >= 1

    def test_provenance_recorded(self, oracle):
        pattern_set = build_set(
            make_graph("CSS", [(0, 1), (0, 2)]),
            make_graph("CON", [(0, 1), (0, 2)]),
        )
        swapper = MultiScanSwapper(oracle, kappa=0.0, lambda_=0.0)
        outcome = swapper.run(
            pattern_set,
            [make_graph("COO", [(0, 1), (0, 2)])],
            provenance="test-run",
        )
        if outcome.num_swaps:
            swapped_ids = {record.added_id for record in outcome.swaps}
            for pattern in pattern_set:
                if pattern.pattern_id in swapped_ids:
                    assert pattern.provenance == "test-run"

    def test_degraded_distances_are_never_memoised(self, oracle):
        """A run whose every distance comes back degraded decides as a
        full-fidelity run with the same values, but asks for a distance
        again on every read instead of memoising it or a value computed
        from it."""
        from repro.ged import ged

        class Counting(MultiScanSwapper):
            degrade = False
            calls = 0

            def _distance(self, first, second):
                self.calls += 1
                if self.degrade:
                    self._degraded_distances += 1
                    return float(ged(first, second, method=self.ged_method))
                return super()._distance(first, second)

        class Degraded(Counting):
            degrade = True

        panel = [
            make_graph("CSS", [(0, 1), (0, 2)]),
            make_graph("CON", [(0, 1), (0, 2)]),
            make_graph("COS", [(0, 1), (1, 2)]),
        ]
        candidates = [
            make_graph("COO", [(0, 1), (0, 2)]),
            make_graph("COS", [(0, 1), (0, 2)]),
            make_graph("CN", [(0, 1)]),
        ]
        runs = []
        for kind in (Counting, Degraded):
            swapper = kind(oracle, kappa=0.0, lambda_=0.0)
            pattern_set = build_set(*panel)
            outcome = swapper.run(pattern_set, candidates)
            runs.append((swapper, outcome, _ids(pattern_set)))
        (full, full_outcome, full_panel), (
            degraded,
            degraded_outcome,
            degraded_panel,
        ) = runs
        assert full_outcome.decisions, "the run must check some pairs"
        assert degraded_outcome.decisions == full_outcome.decisions
        assert degraded_panel == full_panel
        assert degraded_outcome.degraded_distances == degraded.calls
        assert degraded.calls > full.calls


def _ids(pattern_set):
    return [(p.pattern_id, p.key) for p in pattern_set]
