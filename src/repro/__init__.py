"""repro — a full reproduction of MIDAS (SIGMOD 2021).

MIDAS maintains the *canned patterns* of a visual graph query interface
as the underlying graph database evolves, so that the displayed patterns
keep high subgraph/label coverage and diversity at low cognitive load —
without re-running the full CATAPULT selection from scratch.

Quickstart
----------
The supported entry points live in :mod:`repro.api`:

>>> import repro
>>> from repro.datasets import pubchem_like, family_injection
>>> db = pubchem_like(150, seed=1)
>>> midas = repro.api.bootstrap(db)                  # doctest: +SKIP
>>> report = repro.api.maintain(midas, family_injection(50, seed=2))  # doctest: +SKIP
>>> report.is_major                                  # doctest: +SKIP
True

Pass an :class:`~repro.execution.ExecutionConfig` to control *how* the
kernels run — invariant checks, deadlines, degradation, the graph store:

>>> bounded = repro.ExecutionConfig(deadline_ms=5000)  # doctest: +SKIP
>>> result = repro.api.select(db, execution=bounded)  # doctest: +SKIP

Package map
-----------
* :mod:`repro.api` — the supported facade: open_store / select /
  bootstrap / maintain;
* :mod:`repro.execution` — the shared execution policy (check,
  deadline_ms, degrade, store);
* :mod:`repro.graph` — labelled graphs, canonical forms, databases, IO;
* :mod:`repro.store` — the pluggable graph-store backends: the
  :class:`GraphStore` API, :func:`open_store`, and the out-of-core
  SQLite backend (docs/STORAGE.md);
* :mod:`repro.datasets` — synthetic molecule datasets + evolution batches;
* :mod:`repro.isomorphism` — VF2 subgraph isomorphism;
* :mod:`repro.ged` — graph edit distance bounds and exact A*;
* :mod:`repro.trees` — canonical trees, (closed) subtree mining, FCT
  maintenance;
* :mod:`repro.clustering` — k-means++, MCCS, cluster maintenance;
* :mod:`repro.csg` — cluster summary graphs;
* :mod:`repro.graphlets` — graphlet counting and distributions;
* :mod:`repro.index` — FCT-Index and IFE-Index;
* :mod:`repro.patterns` — canned patterns, budgets and quality metrics;
* :mod:`repro.catapult` — the CATAPULT / CATAPULT++ selectors;
* :mod:`repro.midas` — the MIDAS maintainer and baselines;
* :mod:`repro.check` — differential oracles, fuzzer, invariant guards;
* :mod:`repro.serve` — the snapshot-isolated pattern-serving service
  (``python -m repro serve``);
* :mod:`repro.workload` — query workloads and the simulated user study;
* :mod:`repro.bench` — the experiment drivers behind ``benchmarks/``.
"""

from .catapult import Catapult, CatapultConfig, CatapultPlusPlus
from .execution import ExecutionConfig
from .graph import BatchUpdate, GraphDatabase, LabeledGraph
from .midas import (
    Midas,
    MidasConfig,
    NoMaintainBaseline,
    RandomSwapMaintainer,
)
from .patterns import PatternBudget, PatternSet
from .store import GraphStore, open_store
from . import api

__version__ = "1.0.0"

__all__ = [
    "BatchUpdate",
    "Catapult",
    "CatapultConfig",
    "CatapultPlusPlus",
    "ExecutionConfig",
    "GraphDatabase",
    "GraphStore",
    "LabeledGraph",
    "Midas",
    "MidasConfig",
    "NoMaintainBaseline",
    "PatternBudget",
    "PatternSet",
    "RandomSwapMaintainer",
    "api",
    "open_store",
    "__version__",
]
