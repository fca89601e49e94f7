"""Unit tests for repro.midas.detector and repro.midas.config."""

import pytest

from repro.midas import MidasConfig, ModificationDetector, ModificationType
from repro.patterns import PatternBudget

from .conftest import make_graph


class TestConfig:
    def test_defaults(self):
        config = MidasConfig()
        assert config.kappa == config.lambda_ == 0.1
        assert config.ged_method == "tight_lower"

    def test_validation(self):
        with pytest.raises(ValueError):
            MidasConfig(epsilon=-0.1)
        with pytest.raises(ValueError):
            MidasConfig(kappa=1.5)
        with pytest.raises(ValueError):
            MidasConfig(lambda_=-0.2)
        with pytest.raises(ValueError):
            MidasConfig(max_scans=0)

    def test_inherits_catapult_validation(self):
        with pytest.raises(ValueError):
            MidasConfig(sup_min=2.0)

    def test_budget_override(self):
        config = MidasConfig(budget=PatternBudget(3, 5, 8))
        assert config.budget.gamma == 8


class TestDetector:
    @pytest.fixture
    def detector(self, paper_db):
        return ModificationDetector(
            dict(paper_db.items()), epsilon=0.01
        )

    def test_empty_batch_is_minor(self, detector):
        result = detector.classify({}, set())
        assert result.kind is ModificationType.MINOR
        assert result.distance == pytest.approx(0.0)
        assert not result.is_major

    def test_epsilon_validation(self, paper_db):
        with pytest.raises(ValueError):
            ModificationDetector(dict(paper_db.items()), epsilon=-1)

    def test_structural_shift_detected(self, detector):
        # Flood the database with triangles: the GFD shifts sharply.
        added = {
            100 + i: make_graph("CCC", [(0, 1), (1, 2), (0, 2)])
            for i in range(20)
        }
        result = detector.classify(added, set(), commit=False)
        assert result.is_major
        assert result.distance >= 0.01

    def test_commit_advances_state(self, detector):
        added = {
            100 + i: make_graph("CCC", [(0, 1), (1, 2), (0, 2)])
            for i in range(20)
        }
        detector.classify(added, set(), commit=True)
        # Re-classifying the same content as removed reverses the shift.
        result = detector.classify({}, set(added), commit=False)
        assert result.distance > 0

    def test_dry_run_does_not_advance(self, detector):
        added = {200: make_graph("CCC", [(0, 1), (1, 2), (0, 2)])}
        before = detector.distribution.frequencies().copy()
        detector.classify(added, set(), commit=False)
        assert (detector.distribution.frequencies() == before).all()

    def test_deletion_shift(self, paper_db):
        detector = ModificationDetector(
            dict(paper_db.items()), epsilon=0.05
        )
        # Deleting all the star graphs shifts the path/star balance.
        result = detector.classify({}, {0, 1, 3, 5, 7, 8}, commit=False)
        assert result.distance > 0

    def test_alternative_measure(self, paper_db):
        detector = ModificationDetector(
            dict(paper_db.items()), epsilon=0.01, measure="manhattan"
        )
        added = {300: make_graph("CCC", [(0, 1), (1, 2), (0, 2)])}
        assert detector.classify(added, set()).distance >= 0
