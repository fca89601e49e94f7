"""Unit tests for repro.midas.history."""

import pytest

from repro.midas import MaintenanceHistory
from repro.midas.detector import Classification, ModificationType
from repro.midas.maintainer import MaintenanceReport
from repro.midas.swap import SwapOutcome, SwapRecord

from .conftest import make_graph


def fake_report(major: bool, swaps: int = 0, pmt: float = 1.0) -> MaintenanceReport:
    outcome = None
    if major:
        outcome = SwapOutcome()
        graph = make_graph("CO", [(0, 1)])
        for i in range(swaps):
            outcome.swaps.append(
                SwapRecord(
                    removed_id=i,
                    removed_graph=graph,
                    added_id=100 + i,
                    added_graph=graph,
                    scan=1,
                )
            )
    return MaintenanceReport(
        classification=Classification(
            ModificationType.MAJOR if major else ModificationType.MINOR,
            distance=0.01 if major else 0.0001,
            epsilon=0.002,
        ),
        swap_outcome=outcome,
        phases={"total": pmt},
    )


class TestHistory:
    def test_empty(self):
        history = MaintenanceHistory()
        assert len(history) == 0
        assert history.major_fraction == 0.0
        assert history.summary()["rounds"] == 0.0

    def test_record_and_counters(self):
        history = MaintenanceHistory()
        history.record(fake_report(True, swaps=2), "family")
        history.record(fake_report(False), "trickle")
        history.record(fake_report(True, swaps=1), "growth")
        assert len(history) == 3
        assert history.major_fraction == pytest.approx(2 / 3)
        assert history.total_swaps == 3
        assert len(history.major_rounds()) == 2

    def test_labels_autonumbered(self):
        history = MaintenanceHistory()
        entry = history.record(fake_report(False))
        assert entry.label == "round 0"
        named = history.record(fake_report(False), "named")
        assert named.label == "named"

    def test_timing_aggregates(self):
        history = MaintenanceHistory()
        history.record(fake_report(False, pmt=1.0))
        history.record(fake_report(False, pmt=3.0))
        assert history.total_maintenance_seconds == pytest.approx(4.0)
        assert history.average_pmt() == pytest.approx(2.0)

    def test_quality_series_and_trend(self):
        history = MaintenanceHistory()
        history.record(fake_report(False), quality={"scov": 0.5})
        history.record(fake_report(False), quality={"scov": 0.7})
        history.record(fake_report(False), quality={})
        assert history.quality_series("scov") == [0.5, 0.7]
        assert history.quality_trend("scov") == pytest.approx(0.2)
        assert history.quality_trend("div") == 0.0

    def test_summary_keys(self):
        history = MaintenanceHistory()
        history.record(fake_report(True, swaps=1))
        summary = history.summary()
        assert set(summary) == {
            "rounds",
            "major_fraction",
            "total_swaps",
            "avg_pmt_seconds",
            "total_pmt_seconds",
        }
