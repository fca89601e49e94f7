"""Pluggable graph-store backends (see docs/STORAGE.md).

The storage layer's public surface:

* :mod:`repro.store.base` — the :class:`GraphStore` contract (container
  protocol, ``apply_batch``, id allocation, statistics, lifecycle/round
  hooks), the ``open_store`` factory and the ambient default-backend
  spec that ``ExecutionConfig(store=...)`` installs;
* :mod:`repro.store.sqlite` — :class:`SQLiteStore`, the out-of-core
  backend: lazy graph hydration behind a bounded hot-graph cache,
  SQL-aggregate statistics, and batch journaling through :mod:`repro.journal`'s framing/torn-tail/replay
  machinery;
* the in-memory reference implementation is
  :class:`~repro.graph.database.GraphDatabase` (re-exported here as
  ``InMemoryStore``), which every other subsystem predates and the
  conformance suite (``tests/test_store.py``) measures SQLite against.

``SQLiteStore`` and ``InMemoryStore`` resolve lazily so that
``repro.graph.database`` can import :mod:`repro.store.base` without a
cycle (the SQLite backend imports the graph layer).
"""

from .base import (
    STORE_SCHEMES,
    GraphStore,
    default_store_spec,
    open_store,
    set_default_store,
    use_default_store,
)

#: Lazily resolved exports: attribute name -> (module, attribute).
_LAZY = {
    "InMemoryStore": ("..graph.database", "GraphDatabase"),
    "SQLiteStore": (".sqlite", "SQLiteStore"),
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module_name, attribute = target
    value = getattr(import_module(module_name, __name__), attribute)
    globals()[name] = value
    return value


__all__ = [
    "GraphStore",
    "InMemoryStore",
    "SQLiteStore",
    "STORE_SCHEMES",
    "default_store_spec",
    "open_store",
    "set_default_store",
    "use_default_store",
]
