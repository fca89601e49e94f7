"""The pattern-serving service (see ``docs/SERVING.md``).

A visual query interface at scale is a *service*: many users fetching
the current canned-pattern set and issuing coverage queries while MIDAS
maintains the panel in the background.  This package provides that
serving path, stdlib-only:

* :mod:`repro.serve.snapshot` — immutable, versioned pattern-set
  snapshots published copy-on-write at each committed maintenance
  round; readers pin a version for the duration of a request;
* :mod:`repro.serve.service` — :class:`PatternService`, the single
  writer: a background maintenance loop draining submitted
  :class:`~repro.graph.database.BatchUpdate`\\ s through
  ``Midas.apply_update`` in a worker thread;
* :mod:`repro.serve.http` — the asyncio HTTP/JSON front-end
  (``python -m repro serve``);
* :mod:`repro.serve.bench` — the smoke gate and the ``serve-bench``
  load generator (``BENCH_serve.json``);
* :mod:`repro.serve.crashtest` — the crash-injection harness
  (``python -m repro crashtest``) that kills a live journaled serve
  process at every :data:`~repro.resilience.faults.SERVE_SITES` crash
  point and asserts oracle-clean recovery (``BENCH_recovery.json``).

Durability (write-ahead journaling, checkpoints, recovery) lives in
:mod:`repro.journal`; :class:`PatternService` wires it in when built
with ``journal_dir=``.

The package re-exports only the snapshot names, so a process that just
publishes snapshots (a maintainer beside a graph engine) loads no
asyncio or sockets.  Import the front-end from its modules::

    from repro.serve.http import PatternServer, ROUTES, endpoints
    from repro.serve.service import PatternService
"""

from .snapshot import (
    PatternSnapshot,
    SnapshotLease,
    SnapshotPattern,
    SnapshotStore,
    build_snapshot,
)

__all__ = [
    "PatternSnapshot",
    "SnapshotLease",
    "SnapshotPattern",
    "SnapshotStore",
    "build_snapshot",
]
