"""The ``repro.api`` facade and the keyword-only config redesign."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import api
from repro.catapult import CatapultConfig
from repro.catapult.pipeline import CatapultResult
from repro.datasets import aids_like, family_injection
from repro.execution import ExecutionConfig
from repro.midas import Midas, MidasConfig
from repro.midas.maintainer import MaintenanceReport
from repro.patterns import PatternBudget


@pytest.fixture(scope="module")
def small_db():
    return aids_like(30, seed=11)


@pytest.fixture
def small_config():
    return MidasConfig(
        budget=PatternBudget(3, 6, 8), num_clusters=3, sample_cap=50, seed=5
    )


class TestSelect:
    def test_returns_catapult_result(self, small_db):
        result = api.select(
            small_db, PatternBudget(3, 6, 8), config=CatapultConfig(
                num_clusters=3, sample_cap=50
            )
        )
        assert isinstance(result, CatapultResult)
        assert 0 < len(result.patterns) <= 8
        assert result.index_pair is not None  # plus_plus by default

    def test_plain_catapult_has_no_indices(self, small_db):
        result = api.select(
            small_db,
            PatternBudget(3, 6, 6),
            config=CatapultConfig(num_clusters=3, sample_cap=50),
            plus_plus=False,
        )
        assert result.index_pair is None

    def test_budget_overrides_config(self, small_db):
        config = CatapultConfig(
            budget=PatternBudget(3, 5, 2), num_clusters=3, sample_cap=50
        )
        result = api.select(small_db, PatternBudget(3, 5, 4), config=config)
        assert len(result.patterns) <= 4
        # the caller's config object is not mutated
        assert config.budget.gamma == 2

    def test_execution_override(self, small_db):
        result = api.select(
            small_db,
            PatternBudget(3, 6, 6),
            config=CatapultConfig(num_clusters=3, sample_cap=50),
            execution=ExecutionConfig(check=True),
        )
        assert isinstance(result, CatapultResult)


class TestBootstrapAndMaintain:
    def test_lifecycle(self, small_db, small_config):
        midas = api.bootstrap(small_db, config=small_config)
        assert isinstance(midas, Midas)
        report = api.maintain(midas, family_injection(10, seed=3))
        assert isinstance(report, MaintenanceReport)
        assert report.inserted_ids

    def test_maintain_execution_override_sticks(self, small_db, small_config):
        midas = api.bootstrap(small_db, config=small_config)
        api.maintain(
            midas,
            family_injection(8, seed=4),
            execution=ExecutionConfig(check=True),
        )
        assert midas.config.execution.check is True

    def test_maintain_config_replaces(self, small_db, small_config):
        midas = api.bootstrap(small_db, config=small_config)
        new_config = MidasConfig(
            budget=PatternBudget(3, 6, 8),
            num_clusters=3,
            sample_cap=50,
            seed=5,
            epsilon=0.5,
        )
        api.maintain(midas, family_injection(8, seed=4), config=new_config)
        assert midas.config.epsilon == 0.5

    def test_facade_exported_from_package_root(self):
        assert repro.api is api
        assert "api" in repro.__all__
        assert "ExecutionConfig" in repro.__all__


class TestKeywordOnlyConfigs:
    def test_positional_construction_is_rejected(self):
        with pytest.raises(TypeError):
            CatapultConfig(PatternBudget(3, 6, 8))  # noqa: positional
        with pytest.raises(TypeError):
            MidasConfig(PatternBudget(3, 6, 8))

    def test_execution_field_defaults(self):
        config = CatapultConfig()
        assert config.execution == ExecutionConfig()
        assert config.execution.check is False
        assert config.execution.deadline_ms is None


class TestExecutionConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ExecutionConfig(deadline_ms=0)
        with pytest.raises(TypeError):
            ExecutionConfig(workers=2)

    def test_apply_is_additive(self):
        from repro.check import check_enabled
        from repro.resilience import current_budget

        with ExecutionConfig().apply():
            # defaults install nothing: no budget, no checks
            assert current_budget() is None
            assert not check_enabled()
        with ExecutionConfig(deadline_ms=60_000, check=True).apply():
            assert current_budget() is not None
            assert check_enabled()
        assert current_budget() is None
        assert not check_enabled()


IMPORT_CLOSURE_SCRIPT = """
import sys

for name in ("scipy", "asyncio", "ssl"):
    sys.modules[name] = None  # any import of these now raises ImportError

import repro
from repro import api
from repro.datasets import family_injection, pubchem_like
from repro.ged import ged
from repro.midas import MidasConfig
from repro.serve.snapshot import build_snapshot

midas = api.bootstrap(pubchem_like(30, seed=1))
report = api.maintain(
    midas, family_injection(5, seed=2), config=MidasConfig(epsilon=0.0)
)
assert report.is_major, report
snapshot = build_snapshot(
    1,
    ((p.pattern_id, p.graph, p.provenance) for p in midas.patterns),
    midas.oracle,
    database_size=len(midas.database),
)
assert snapshot.patterns
for name in ("repro.parallel", "concurrent.futures.process"):
    assert name not in sys.modules, name
first, second = (p.graph for p in list(midas.patterns)[:2])
try:
    ged(first, second, method="bipartite")
except ImportError:
    pass
else:
    raise AssertionError("the bipartite rung ran without SciPy")
"""


def test_import_closure_of_a_maintenance_run():
    """Bootstrap, a major maintenance round and a snapshot load neither
    SciPy nor asyncio/ssl: only the bipartite GED rung imports SciPy,
    on first use, and only the HTTP front-end and the service import
    asyncio.  No process pool is loaded either: every kernel runs
    serially."""
    source = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source, env.get("PYTHONPATH")])
    )
    subprocess.run(
        [sys.executable, "-c", IMPORT_CLOSURE_SCRIPT], check=True, env=env
    )
