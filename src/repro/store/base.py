"""The :class:`GraphStore` contract and the ``open_store`` factory.

Every place the reproduction holds "the database" — the maintainer,
the serving service, the CLI — talks to a :class:`GraphStore`, not to
a concrete container.  The contract is the behaviour
:class:`~repro.graph.database.GraphDatabase` always had:

* **container protocol** — ``len(store)``, ``id in store``,
  ``store[id]`` (:class:`~repro.graph.database.DatabaseError` on a
  missing id), iteration over ids in insertion order;
* **mutation** — ``add`` / ``remove`` / ``apply`` (alias
  :meth:`GraphStore.apply_batch`), with ids assigned monotonically and
  never reused, deletions validated before anything mutates;
* **id allocation** — :meth:`GraphStore.reserve_through` /
  :meth:`GraphStore.next_graph_id`, the public surface that replaced
  the historical ``db._next_id`` pokes;
* **statistics** — vertex/edge totals, label alphabets and the
  ``summary()`` dict experiment headers print;
* **lifecycle** — :meth:`GraphStore.flush` / :meth:`GraphStore.close`
  and the round hooks :meth:`GraphStore.begin_round` /
  :meth:`GraphStore.commit_round` / :meth:`GraphStore.rollback_round`
  that a transactional MIDAS round brackets every batch with.

Two implementations ship: the in-memory
:class:`~repro.graph.database.GraphDatabase` (the default, and the
reference for the conformance suite) and the out-of-core
:class:`~repro.store.sqlite.SQLiteStore`.  ``open_store`` maps a spec
string onto one of them; the ambient default spec
(:func:`use_default_store` / :func:`default_store_spec`) is how
``ExecutionConfig(store=...)`` travels without threading a parameter
through every call.

See docs/STORAGE.md for the backend matrix and durability semantics.
"""

from __future__ import annotations

import abc
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.database import AppliedUpdate, BatchUpdate
    from ..graph.labeled_graph import LabeledGraph


class GraphStore(abc.ABC):
    """Abstract graph-store backend: container + batches + lifecycle."""

    # ------------------------------------------------------------------
    # container protocol (abstract)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of graphs currently stored."""

    @abc.abstractmethod
    def __contains__(self, graph_id: int) -> bool:
        """Whether *graph_id* names a stored graph."""

    @abc.abstractmethod
    def __getitem__(self, graph_id: int) -> "LabeledGraph":
        """The graph stored under *graph_id*.

        Raises :class:`~repro.graph.database.DatabaseError` when absent.
        """

    @abc.abstractmethod
    def __iter__(self) -> Iterator[int]:
        """Iterate graph ids in insertion order (ascending: ids are
        assigned monotonically and never reused)."""

    # ------------------------------------------------------------------
    # mutation (abstract)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def add(self, graph: "LabeledGraph") -> int:
        """Insert *graph* and return its assigned id.

        Unnamed graphs are renamed ``G{id}`` so serialisation stays
        deterministic across backends.
        """

    @abc.abstractmethod
    def remove(self, graph_id: int) -> "LabeledGraph":
        """Delete and return the graph with *graph_id*
        (:class:`~repro.graph.database.DatabaseError` when absent)."""

    @abc.abstractmethod
    def apply(self, update: "BatchUpdate") -> "AppliedUpdate":
        """Apply ΔD in place (``D ← D ⊕ ΔD``) and return the record.

        Deletions are validated before anything mutates, then processed
        before insertions — identical across every backend, which the
        conformance suite (``tests/test_store.py``) enforces.
        """

    @abc.abstractmethod
    def copy(self) -> "GraphStore":
        """An independent same-backend copy (graph ids preserved)."""

    # ------------------------------------------------------------------
    # id allocation (abstract)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def next_graph_id(self) -> int:
        """The id the next :meth:`add` will assign."""

    @abc.abstractmethod
    def reserve_through(self, graph_id: int) -> None:
        """Advance the allocator so the next assigned id is at least
        *graph_id* (never moves it backwards).  Used by deserialisers to
        re-create explicit id spaces faithfully."""

    # ------------------------------------------------------------------
    # derived container views (concrete)
    # ------------------------------------------------------------------
    def ids(self) -> list[int]:
        """All graph ids in ascending order."""
        return sorted(self)

    def graphs(self) -> Iterator["LabeledGraph"]:
        for graph_id in self.ids():
            yield self[graph_id]

    def items(self) -> Iterator[tuple[int, "LabeledGraph"]]:
        for graph_id in self.ids():
            yield graph_id, self[graph_id]

    def apply_batch(self, update: "BatchUpdate") -> "AppliedUpdate":
        """Alias of :meth:`apply` — the spelling the store API documents."""
        return self.apply(update)

    def updated(self, update: "BatchUpdate") -> "GraphStore":
        """A new store equal to ``D ⊕ ΔD`` without mutating ``D``."""
        clone = self.copy()
        clone.apply(update)
        return clone

    def ingest(self, items: Mapping[int, "LabeledGraph"] | "GraphStore") -> None:
        """Bulk-load ``(id, graph)`` pairs, preserving the given ids.

        Accepts another store or any mapping; ids must arrive in
        ascending order (both sources guarantee it).
        """
        for graph_id, graph in items.items():
            self.reserve_through(graph_id)
            assigned = self.add(graph)
            if assigned != graph_id:
                from ..graph.database import DatabaseError

                raise DatabaseError(
                    f"cannot ingest graph id {graph_id}: allocator "
                    f"assigned {assigned} (non-monotonic source ids?)"
                )

    # ------------------------------------------------------------------
    # statistics (concrete; backends may override with faster queries)
    # ------------------------------------------------------------------
    def total_vertices(self) -> int:
        return sum(g.num_vertices for g in self.graphs())

    def total_edges(self) -> int:
        return sum(g.num_edges for g in self.graphs())

    def vertex_label_alphabet(self) -> set[str]:
        alphabet: set[str] = set()
        for graph in self.graphs():
            alphabet |= graph.vertex_label_set()
        return alphabet

    def edge_label_document_frequency(self) -> dict[tuple[str, str], int]:
        """For each edge label, the number of graphs containing it."""
        frequency: dict[tuple[str, str], int] = {}
        for graph in self.graphs():
            for edge_label in graph.edge_label_set():
                frequency[edge_label] = frequency.get(edge_label, 0) + 1
        return frequency

    def summary(self) -> dict[str, float]:
        """Aggregate statistics used in logs and experiment headers."""
        count = len(self)
        if count == 0:
            return {
                "graphs": 0,
                "avg_vertices": 0.0,
                "avg_edges": 0.0,
                "labels": 0,
            }
        return {
            "graphs": count,
            "avg_vertices": self.total_vertices() / count,
            "avg_edges": self.total_edges() / count,
            "labels": len(self.vertex_label_alphabet()),
        }

    # ------------------------------------------------------------------
    # lifecycle hooks (concrete no-ops; out-of-core backends override)
    # ------------------------------------------------------------------
    def begin_round(self) -> None:
        """Bracket the start of a transactional maintenance round."""

    def commit_round(self) -> None:
        """Durably commit everything applied since :meth:`begin_round`."""

    def rollback_round(self) -> None:
        """Undo everything applied since :meth:`begin_round`."""

    def flush(self) -> None:
        """Push buffered state to durable storage (no-op in memory)."""

    def close(self) -> None:
        """Release backend resources; the store is unusable afterwards."""

    def __enter__(self) -> "GraphStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# the factory
# ----------------------------------------------------------------------
#: Spec prefixes ``open_store`` understands.
STORE_SCHEMES = ("memory", "sqlite")


def open_store(
    spec: "GraphStore | str | Path | None" = None,
    **options,
) -> GraphStore:
    """Open a graph store from a spec string, path or existing store.

    ================================  ====================================
    ``spec``                          resolves to
    ================================  ====================================
    ``None`` / ``"memory"``           a fresh in-memory ``GraphDatabase``
    ``"sqlite:PATH"``                 ``SQLiteStore(PATH)`` (``:memory:``
                                      allowed; a file is created/reopened)
    ``path/to/db.sqlite`` / ``*.db``  ``SQLiteStore(path)``
    ``path/to/dataset.json``          the file read into an in-memory
                                      store via ``repro.graph.io``
    an existing ``GraphStore``        returned unchanged
    ================================  ====================================

    Keyword *options* are forwarded to the backend constructor (for
    SQLite: ``journal_dir``, ``cache_size``, ``fsync``).
    """
    if isinstance(spec, GraphStore):
        return spec
    if spec is None or spec == "memory":
        from ..graph.database import GraphDatabase

        return GraphDatabase()
    text = str(spec)
    if text.startswith("sqlite:"):
        from .sqlite import SQLiteStore

        return SQLiteStore(text.split(":", 1)[1], **options)
    if text.endswith((".db", ".sqlite", ".sqlite3")):
        from .sqlite import SQLiteStore

        return SQLiteStore(text, **options)
    if text.endswith(".json"):
        from ..graph.io import read_database

        return read_database(text)
    raise ValueError(
        f"unrecognised store spec {text!r}: expected 'memory', "
        f"'sqlite:PATH', a *.db/*.sqlite path or a *.json dataset file"
    )


# ----------------------------------------------------------------------
# ambient default backend (ExecutionConfig.store installs this)
# ----------------------------------------------------------------------
_DEFAULT_STORE_SPEC: str | None = None


def default_store_spec() -> str | None:
    """The ambient backend spec, or ``None`` (= in-memory)."""
    return _DEFAULT_STORE_SPEC


def set_default_store(spec: str | None) -> None:
    global _DEFAULT_STORE_SPEC
    _DEFAULT_STORE_SPEC = spec


@contextmanager
def use_default_store(spec: str | None):
    """Scoped ambient default backend, mirroring ``use_check`` et al."""
    previous = default_store_spec()
    set_default_store(spec)
    try:
        yield
    finally:
        set_default_store(previous)


__all__ = [
    "GraphStore",
    "STORE_SCHEMES",
    "default_store_spec",
    "open_store",
    "set_default_store",
    "use_default_store",
]
