"""The supported entry points: open_store, select, bootstrap, maintain.

This facade is the single documented way to drive the reproduction —
everything else (pipeline classes, the maintainer, the kernels) is
implementation surface that may move between releases.  The calls
mirror the lifecycle of a visual graph query interface's canned pattern
set (paper, Sections 2–3):

>>> import repro
>>> store = repro.api.open_store("sqlite:catalog.db")
>>> result = repro.api.select(store, repro.PatternBudget(3, 5, 8))
>>> midas = repro.api.bootstrap(store)
>>> report = repro.api.maintain(midas, repro.BatchUpdate.of(insertions=[g]))

``select`` and ``bootstrap`` accept any
:class:`~repro.store.base.GraphStore` — the in-memory
:class:`~repro.graph.database.GraphDatabase` or the out-of-core SQLite
backend — or a store spec string/path resolved through
:func:`open_store` (docs/STORAGE.md).  Every call accepts an optional
:class:`~repro.execution.ExecutionConfig` — the shared *how* knob
bundle (check, store, deadline_ms, degrade) that replaced the
per-call resilience kwargs.  Results are the existing
dataclasses (:class:`~repro.catapult.pipeline.CatapultResult`,
:class:`~repro.midas.maintainer.MaintenanceReport`), so downstream code
keeps working unchanged.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .catapult.pipeline import Catapult, CatapultConfig, CatapultPlusPlus, CatapultResult
from .execution import ExecutionConfig
from .graph.database import BatchUpdate
from .midas.config import MidasConfig
from .midas.maintainer import MaintenanceReport, Midas
from .patterns.budget import PatternBudget
from .store.base import GraphStore
from .store.base import open_store as open_store


def _with_execution(config, execution: ExecutionConfig | None):
    return config if execution is None else replace(config, execution=execution)


def _resolve_store(store, caller: str) -> GraphStore:
    """Resolve the *store* argument: a GraphStore, or a spec for
    :func:`open_store`."""
    if isinstance(store, GraphStore):
        return store
    if isinstance(store, (str, Path)):
        return open_store(store)
    raise TypeError(
        f"{caller}() expected a GraphStore or store spec, "
        f"got {type(store).__name__}"
    )


def select(
    store: GraphStore | str | Path,
    budget: PatternBudget | None = None,
    *,
    config: CatapultConfig | None = None,
    execution: ExecutionConfig | None = None,
    plus_plus: bool = True,
) -> CatapultResult:
    """Select a canned pattern set for the graphs in *store* from scratch.

    Parameters
    ----------
    store:
        The graph store to select patterns for: any
        :class:`~repro.store.base.GraphStore`, or a spec string/path
        resolved through :func:`open_store` (``"memory"``,
        ``"sqlite:PATH"``, a ``.json`` dataset, a ``.db`` file...).
    budget:
        Pattern budget (η_min, η_max, γ); overrides ``config.budget``
        when both are given.
    config:
        Full pipeline configuration; defaults to ``CatapultConfig()``.
    execution:
        Execution policy override (check, store, deadline, degrade);
        replaces ``config.execution`` when given.
    plus_plus:
        Run CATAPULT++ (closed features + FCT/IFE indices, the variant
        MIDAS builds on) rather than baseline CATAPULT.
    """
    resolved = _resolve_store(store, "select")
    config = config or CatapultConfig()
    if budget is not None:
        config = replace(config, budget=budget)
    config = _with_execution(config, execution)
    pipeline = CatapultPlusPlus(config) if plus_plus else Catapult(config)
    return pipeline.run(resolved)


def bootstrap(
    store: GraphStore | str | Path,
    *,
    config: MidasConfig | None = None,
    execution: ExecutionConfig | None = None,
) -> Midas:
    """Build a maintainer over *store* with one CATAPULT++ run.

    *store* is any :class:`~repro.store.base.GraphStore` or a spec for
    :func:`open_store`.
    """
    resolved = _resolve_store(store, "bootstrap")
    config = _with_execution(config or MidasConfig(), execution)
    return Midas.bootstrap(resolved, config)


def maintain(
    midas: Midas,
    batch: BatchUpdate,
    *,
    config: MidasConfig | None = None,
    execution: ExecutionConfig | None = None,
) -> MaintenanceReport:
    """Apply one batch update through the maintainer.

    *config* replaces the maintainer's configuration for this and all
    subsequent rounds; *execution* overrides just the execution policy
    the same way.  Both default to whatever the maintainer already has.
    """
    if config is not None:
        midas.config = config
    if execution is not None:
        midas.config = _with_execution(midas.config, execution)
    return midas.apply_update(batch)


__all__ = ["bootstrap", "maintain", "open_store", "select"]
