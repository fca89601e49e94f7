"""The out-of-core SQLite graph store.

:class:`SQLiteStore` implements the :class:`~repro.store.base.GraphStore`
contract over a single SQLite file so a database far larger than RAM can
back the maintenance/serving machinery:

* **lazy hydration** — graphs are stored as the canonical JSON payloads
  of :func:`repro.graph.io.graph_to_dict` (vertex ids normalised to
  ``0..n-1``, exactly like the dataset file format) and hydrated on
  access through a bounded LRU hot-graph cache;
* **per-shard persisted covindex state** — each graph hashes to a shard
  (``id % num_shards``); the invariant posting lists of
  :mod:`repro.covindex.index` and the engine's verdict bitsets are
  maintained as per-shard bitset rows, so :meth:`coverage_index`
  rebuilds a :class:`~repro.covindex.index.CoverageIndex` from disk
  without re-deriving a single invariant, and a verified pattern's
  verdicts survive a restart (:meth:`save_verdicts` /
  :meth:`load_verdicts`);
* **shard-parallel maintenance** — a large batch fans its per-shard
  posting deltas through the ambient
  :class:`~repro.parallel.pool.KernelPool`
  (:func:`~repro.parallel.kernels.shard_postings_kernel`) with ordered
  reduction, so results are byte-identical at any worker count;
* **batch journaling** — every ``apply`` is framed through
  :class:`repro.journal.segments.Journal` (same CRC framing, torn-tail
  truncation and fsync policies as the serving WAL): a ``submitted``
  record lands *before* the SQL transaction, the matching outcome
  record after it, and opening the store replays any unresolved batch
  so a crash between acknowledgement and commit loses nothing.

Round lifecycle: a transactional MIDAS round brackets its batch with
:meth:`begin_round` / :meth:`commit_round` / :meth:`rollback_round`;
inside a round the SQL transaction (and the journal outcome) is
deferred to the round verdict, so a rolled-back round leaves the file —
and the journal — exactly as before.  The maintainer's pickled rollback
snapshot therefore leaves the store out and holds it by reference
(pickling mid-round raises, and would otherwise duplicate an on-disk
database per round); the round hooks carry the rollback instead.
``copy.deepcopy`` of a ``SQLiteStore`` returns the store itself for the
same reason.

See docs/STORAGE.md for the backend matrix and durability semantics.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
from collections import OrderedDict
from collections.abc import Iterator
from pathlib import Path

from ..covindex.bitset import bits_of
from ..covindex.index import CoverageIndex, graph_posting_keys
from ..graph.database import AppliedUpdate, BatchUpdate, DatabaseError
from ..graph.io import graph_from_dict, graph_to_dict
from ..graph.labeled_graph import LabeledGraph
from ..obs import get_registry
from ..parallel.pool import current_pool
from .base import GraphStore

FORMAT_TAG = "repro-store-v1"

#: Default bound on the hot-graph hydration cache (graphs, not bytes).
DEFAULT_CACHE_SIZE = 512

#: Default shard count for persisted postings / verdicts.
DEFAULT_NUM_SHARDS = 8

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS graphs (
    id INTEGER PRIMARY KEY,
    shard INTEGER NOT NULL,
    name TEXT NOT NULL,
    payload TEXT NOT NULL,
    num_vertices INTEGER NOT NULL,
    num_edges INTEGER NOT NULL,
    vlabels TEXT NOT NULL,
    elabels TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS graphs_shard ON graphs (shard);
CREATE TABLE IF NOT EXISTS graph_keys (
    id INTEGER PRIMARY KEY,
    keys TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS postings (
    shard INTEGER NOT NULL,
    key TEXT NOT NULL,
    bits BLOB NOT NULL,
    PRIMARY KEY (shard, key)
);
CREATE TABLE IF NOT EXISTS verdicts (
    shard INTEGER NOT NULL,
    pattern TEXT NOT NULL,
    match_bits BLOB NOT NULL,
    seen_bits BLOB NOT NULL,
    PRIMARY KEY (shard, pattern)
);
"""


def _tuplify(value):
    """Recursively turn JSON arrays back into the tuples keys are made
    of (edge-label keys nest pairs: ``("el", ("C", "O"), 1)``)."""
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    return value


def _key_to_text(key: tuple) -> str:
    return json.dumps(key, separators=(",", ":"))


def _key_from_text(text: str) -> tuple:
    return _tuplify(json.loads(text))


def _bits_to_blob(bits: int) -> bytes:
    return bits.to_bytes((bits.bit_length() + 7) // 8 or 1, "little")


def _blob_to_bits(blob: bytes) -> int:
    return int.from_bytes(blob, "little")


class SQLiteStore(GraphStore):
    """A :class:`GraphStore` backed by one SQLite file (or ``:memory:``)."""

    def __init__(
        self,
        path: str | Path = ":memory:",
        *,
        journal_dir: str | Path | None = None,
        journaled: bool = True,
        cache_size: int = DEFAULT_CACHE_SIZE,
        num_shards: int = DEFAULT_NUM_SHARDS,
        fsync: str = "always",
    ) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._ephemeral = False
        self._in_round = False
        self._round_pending: list[int] = []
        self._cache: OrderedDict[int, LabeledGraph] = OrderedDict()
        self._cache_size = cache_size
        self._shard_masks: dict[int, int] = {}
        self._connection = sqlite3.connect(
            self.path, isolation_level=None, check_same_thread=False
        )
        self._connection.execute("PRAGMA journal_mode=TRUNCATE")
        self._connection.executescript(_SCHEMA)
        stored = self._meta("format")
        if stored is None:
            self._set_meta("format", FORMAT_TAG)
            self._set_meta("next_id", "0")
            self._set_meta("last_applied_update", "-1")
            self._set_meta("num_shards", str(num_shards))
        elif stored != FORMAT_TAG:
            raise DatabaseError(
                f"{self.path}: unsupported store format {stored!r}"
            )
        self.num_shards = int(self._meta("num_shards"))
        self._next_id = int(self._meta("next_id"))
        self._update_seq = int(self._meta("last_applied_update"))
        self._journal = None
        if journaled and self.path != ":memory:":
            from ..journal.segments import Journal

            directory = Path(journal_dir) if journal_dir else Path(
                f"{self.path}.wal"
            )
            self._journal = Journal(directory, fsync=fsync)
            self._replay_unresolved()

    # ------------------------------------------------------------------
    # meta helpers
    # ------------------------------------------------------------------
    def _meta(self, key: str) -> str | None:
        row = self._connection.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row[0]

    def _set_meta(self, key: str, value: str) -> None:
        self._connection.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, value),
        )

    def _shard_of(self, graph_id: int) -> int:
        return graph_id % self.num_shards

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._connection.execute(
            "SELECT COUNT(*) FROM graphs"
        ).fetchone()[0]

    def __contains__(self, graph_id: int) -> bool:
        if not isinstance(graph_id, int):
            return False
        return (
            self._connection.execute(
                "SELECT 1 FROM graphs WHERE id = ?", (graph_id,)
            ).fetchone()
            is not None
        )

    def __getitem__(self, graph_id: int) -> LabeledGraph:
        registry = get_registry()
        cached = self._cache.get(graph_id)
        if cached is not None:
            self._cache.move_to_end(graph_id)
            registry.counter("store.cache_hits").add(1)
            return cached
        row = self._connection.execute(
            "SELECT payload FROM graphs WHERE id = ?", (graph_id,)
        ).fetchone()
        if row is None:
            raise DatabaseError(f"no graph with id {graph_id}")
        registry.counter("store.cache_misses").add(1)
        graph = graph_from_dict(json.loads(row[0]))
        self._cache[graph_id] = graph
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return graph

    def __iter__(self) -> Iterator[int]:
        rows = self._connection.execute(
            "SELECT id FROM graphs ORDER BY id"
        ).fetchall()
        return iter([row[0] for row in rows])

    # ------------------------------------------------------------------
    # id allocation
    # ------------------------------------------------------------------
    def next_graph_id(self) -> int:
        return self._next_id

    def reserve_through(self, graph_id: int) -> None:
        if graph_id <= self._next_id:
            return
        self._next_id = graph_id
        self._set_meta("next_id", str(self._next_id))

    # ------------------------------------------------------------------
    # mutation primitives
    # ------------------------------------------------------------------
    def _insert_rows(
        self,
        graphs: list[tuple[int, LabeledGraph]],
        payloads: list[dict] | None = None,
    ) -> None:
        """Insert graph rows and maintain the per-shard posting lists.

        *payloads*, when given, are the graphs' :func:`graph_to_dict`
        forms up to ``name``, which each row takes from its graph.

        Large batches fan their per-shard posting deltas through the
        ambient kernel pool with ordered reduction; the serial loop is
        the reference the kernel must match bit for bit.
        """
        registry = get_registry()
        if payloads is None:
            payloads = [graph_to_dict(graph) for _, graph in graphs]
        rows = []
        for (graph_id, graph), payload in zip(graphs, payloads):
            payload = dict(payload, name=graph.name)
            rows.append(
                (
                    graph_id,
                    self._shard_of(graph_id),
                    graph.name or "",
                    json.dumps(payload, separators=(",", ":")),
                    graph.num_vertices,
                    graph.num_edges,
                    json.dumps(sorted(graph.vertex_label_set())),
                    json.dumps(sorted(graph.edge_label_set())),
                )
            )
        self._connection.executemany(
            "INSERT INTO graphs (id, shard, name, payload, num_vertices, "
            "num_edges, vlabels, elabels) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            rows,
        )
        # Per-shard posting deltas, shard-parallel when worthwhile.
        by_shard: dict[int, list[tuple[int, LabeledGraph]]] = {}
        for graph_id, graph in graphs:
            by_shard.setdefault(self._shard_of(graph_id), []).append(
                (graph_id, graph)
            )
        items = [
            (shard, tuple(members))
            for shard, members in sorted(by_shard.items())
        ]
        from ..parallel.kernels import shard_postings_kernel

        pool = current_pool()
        if pool.worth_parallelizing(len(graphs)):
            deltas = pool.map(shard_postings_kernel, items, payload=None)
            registry.counter("store.shard_fanouts").add(1)
        else:
            deltas = shard_postings_kernel(None, items)
        for shard, posting_delta, keys_by_graph in deltas:
            self._connection.executemany(
                "INSERT INTO graph_keys (id, keys) VALUES (?, ?)",
                [
                    (gid, json.dumps([list(k) for k in keys]))
                    for gid, keys in sorted(keys_by_graph.items())
                ],
            )
            for key, bits in sorted(posting_delta.items()):
                text = _key_to_text(key)
                row = self._connection.execute(
                    "SELECT bits FROM postings WHERE shard = ? AND key = ?",
                    (shard, text),
                ).fetchone()
                merged = bits | (_blob_to_bits(row[0]) if row else 0)
                self._connection.execute(
                    "INSERT INTO postings (shard, key, bits) "
                    "VALUES (?, ?, ?) ON CONFLICT(shard, key) "
                    "DO UPDATE SET bits = excluded.bits",
                    (shard, text, _bits_to_blob(merged)),
                )
            self._shard_masks.pop(shard, None)
        registry.counter("store.graphs_inserted").add(len(graphs))

    def _delete_row(self, graph_id: int) -> None:
        shard = self._shard_of(graph_id)
        mask = ~(1 << graph_id)
        row = self._connection.execute(
            "SELECT keys FROM graph_keys WHERE id = ?", (graph_id,)
        ).fetchone()
        if row is not None:
            for key_list in json.loads(row[0]):
                text = _key_to_text(tuple(key_list))
                posting = self._connection.execute(
                    "SELECT bits FROM postings WHERE shard = ? AND key = ?",
                    (shard, text),
                ).fetchone()
                if posting is None:
                    continue
                remaining = _blob_to_bits(posting[0]) & mask
                if remaining:
                    self._connection.execute(
                        "UPDATE postings SET bits = ? "
                        "WHERE shard = ? AND key = ?",
                        (_bits_to_blob(remaining), shard, text),
                    )
                else:
                    self._connection.execute(
                        "DELETE FROM postings WHERE shard = ? AND key = ?",
                        (shard, text),
                    )
        self._connection.execute(
            "DELETE FROM graph_keys WHERE id = ?", (graph_id,)
        )
        self._connection.execute(
            "DELETE FROM graphs WHERE id = ?", (graph_id,)
        )
        for verdict_row in self._connection.execute(
            "SELECT pattern, match_bits, seen_bits FROM verdicts "
            "WHERE shard = ?",
            (shard,),
        ).fetchall():
            self._connection.execute(
                "UPDATE verdicts SET match_bits = ?, seen_bits = ? "
                "WHERE shard = ? AND pattern = ?",
                (
                    _bits_to_blob(_blob_to_bits(verdict_row[1]) & mask),
                    _bits_to_blob(_blob_to_bits(verdict_row[2]) & mask),
                    shard,
                    verdict_row[0],
                ),
            )
        self._cache.pop(graph_id, None)
        self._shard_masks.pop(shard, None)
        get_registry().counter("store.graphs_deleted").add(1)

    # ------------------------------------------------------------------
    # transactions: autocommit vs round-deferred
    # ------------------------------------------------------------------
    def _begin(self) -> None:
        if not self._connection.in_transaction:
            self._connection.execute("BEGIN IMMEDIATE")

    def begin_round(self) -> None:
        if self._in_round:
            raise DatabaseError("a maintenance round is already open")
        self._begin()
        self._in_round = True
        self._round_pending = []

    def commit_round(self) -> None:
        if not self._in_round:
            return
        self._connection.execute("COMMIT")
        self._in_round = False
        for update_id in self._round_pending:
            self._journal_outcome(update_id, "committed")
        self._round_pending = []

    def rollback_round(self) -> None:
        if not self._in_round:
            return
        self._connection.execute("ROLLBACK")
        self._in_round = False
        # Re-read allocator state the rollback reverted and drop every
        # hydrated graph: some cached objects may belong to the undone
        # batch.
        self._next_id = int(self._meta("next_id"))
        self._update_seq = int(self._meta("last_applied_update"))
        self._cache.clear()
        self._shard_masks.clear()
        for update_id in self._round_pending:
            self._journal_outcome(update_id, "rolled_back")
        self._round_pending = []
        get_registry().counter("store.rounds_rolled_back").add(1)

    # ------------------------------------------------------------------
    # journaling
    # ------------------------------------------------------------------
    def _journal_submitted(
        self,
        update: BatchUpdate,
        assigned: list[int],
        update_id: int,
        payloads: list[dict],
    ) -> None:
        if self._journal is None:
            return
        self._journal.append(
            {
                "type": "submitted",
                "update_id": update_id,
                "store_batch": {
                    "insertions": payloads,
                    "deletions": list(update.deletions),
                    "assigned_ids": assigned,
                    "next_id_after": self._next_id + len(update.insertions),
                    "deferred": self._in_round,
                },
            }
        )

    def _journal_outcome(self, update_id: int, outcome: str) -> None:
        if self._journal is None:
            return
        self._journal.append({"type": outcome, "update_id": update_id})

    def _replay_unresolved(self) -> None:
        """Resolve batches journalled before a crash (write-ahead replay).

        A ``submitted`` record with no outcome is either (a) already in
        the file — the crash hit between the SQL commit and the outcome
        append — resolved as committed; (b) an autocommit batch whose
        SQL never committed — re-applied, then committed; or (c) a
        round-deferred batch whose round never committed — resolved as
        aborted, because the SQL rollback already erased it.
        """
        unresolved = self._journal.unresolved_ids()
        if not unresolved:
            return
        registry = get_registry()
        submitted = {
            record.update_id: record.payload
            for record in self._journal.records()
            if record.type == "submitted"
        }
        last_applied = int(self._meta("last_applied_update"))
        for update_id in sorted(unresolved):
            payload = submitted.get(update_id, {}).get("store_batch")
            if payload is None:
                self._journal_outcome(update_id, "failed")
                continue
            if update_id <= last_applied:
                self._journal_outcome(update_id, "committed")
                continue
            if payload["deferred"]:
                self._journal_outcome(update_id, "aborted")
                continue
            update = BatchUpdate.of(
                insertions=[
                    graph_from_dict(entry)
                    for entry in payload["insertions"]
                ],
                deletions=payload["deletions"],
            )
            self._begin()
            for graph_id in update.deletions:
                if graph_id in self:
                    self._delete_row(graph_id)
            self.reserve_through(payload["assigned_ids"][0] if payload[
                "assigned_ids"
            ] else self._next_id)
            named = []
            for graph_id, graph in zip(
                payload["assigned_ids"], update.insertions
            ):
                named.append(
                    (graph_id, graph if graph.name else graph.copy(
                        name=f"G{graph_id}"
                    ))
                )
            if named:
                self._insert_rows(named, payload["insertions"])
            self._next_id = max(self._next_id, payload["next_id_after"])
            self._set_meta("next_id", str(self._next_id))
            self._set_meta("last_applied_update", str(update_id))
            self._update_seq = max(self._update_seq, update_id)
            self._connection.execute("COMMIT")
            self._journal_outcome(update_id, "committed")
            registry.counter("store.replayed_batches").add(1)

    # ------------------------------------------------------------------
    # mutation API
    # ------------------------------------------------------------------
    def add(self, graph: LabeledGraph) -> int:
        graph_id = self._next_id
        named = graph if graph.name else graph.copy(name=f"G{graph_id}")
        self._begin()
        self._insert_rows([(graph_id, named)])
        self._next_id = graph_id + 1
        self._set_meta("next_id", str(self._next_id))
        if not self._in_round:
            self._connection.execute("COMMIT")
        return graph_id

    def remove(self, graph_id: int) -> LabeledGraph:
        graph = self[graph_id]  # raises DatabaseError when absent
        self._begin()
        self._delete_row(graph_id)
        if not self._in_round:
            self._connection.execute("COMMIT")
        return graph

    def apply(self, update: BatchUpdate) -> AppliedUpdate:
        missing = [gid for gid in update.deletions if gid not in self]
        if missing:
            raise DatabaseError(f"cannot delete missing graph ids: {missing}")
        assigned = list(
            range(self._next_id, self._next_id + len(update.insertions))
        )
        self._update_seq += 1
        update_id = self._update_seq
        # Serialized once: the journal frame and the rows share it.
        payloads = [graph_to_dict(graph) for graph in update.insertions]
        self._journal_submitted(update, assigned, update_id, payloads)
        self._begin()
        record = AppliedUpdate()
        for graph_id in update.deletions:
            record.deleted_graphs[graph_id] = self[graph_id]
            self._delete_row(graph_id)
            record.deleted_ids.append(graph_id)
        named = []
        for graph_id, graph in zip(assigned, update.insertions):
            named.append(
                (graph_id, graph if graph.name else graph.copy(
                    name=f"G{graph_id}"
                ))
            )
            record.inserted_ids.append(graph_id)
        if named:
            self._insert_rows(named, payloads)
        self._next_id += len(update.insertions)
        self._set_meta("next_id", str(self._next_id))
        self._set_meta("last_applied_update", str(update_id))
        if self._in_round:
            self._round_pending.append(update_id)
        else:
            self._connection.execute("COMMIT")
            self._journal_outcome(update_id, "committed")
        get_registry().counter("store.batches_applied").add(1)
        return record

    # ------------------------------------------------------------------
    # statistics (SQL aggregates; no hydration)
    # ------------------------------------------------------------------
    def total_vertices(self) -> int:
        return self._connection.execute(
            "SELECT COALESCE(SUM(num_vertices), 0) FROM graphs"
        ).fetchone()[0]

    def total_edges(self) -> int:
        return self._connection.execute(
            "SELECT COALESCE(SUM(num_edges), 0) FROM graphs"
        ).fetchone()[0]

    def vertex_label_alphabet(self) -> set[str]:
        alphabet: set[str] = set()
        for (vlabels,) in self._connection.execute(
            "SELECT vlabels FROM graphs"
        ):
            alphabet.update(json.loads(vlabels))
        return alphabet

    def edge_label_document_frequency(self) -> dict[tuple[str, str], int]:
        frequency: dict[tuple[str, str], int] = {}
        for (elabels,) in self._connection.execute(
            "SELECT elabels FROM graphs"
        ):
            for pair in json.loads(elabels):
                key = tuple(pair)
                frequency[key] = frequency.get(key, 0) + 1
        return frequency

    # ------------------------------------------------------------------
    # persisted covindex state
    # ------------------------------------------------------------------
    def _postings(self) -> dict[tuple, int]:
        """The persisted posting bitsets, OR'd over shards."""
        postings: dict[tuple, int] = {}
        for key_text, blob in self._connection.execute(
            "SELECT key, bits FROM postings"
        ):
            key = _key_from_text(key_text)
            postings[key] = postings.get(key, 0) | _blob_to_bits(blob)
        return postings

    def coverage_index(self) -> CoverageIndex:
        """Rebuild a :class:`CoverageIndex` from the persisted per-shard
        posting lists — no invariant is re-derived from any graph."""
        keys_by_graph = {
            graph_id: {_tuplify(k) for k in json.loads(text)}
            for graph_id, text in self._connection.execute(
                "SELECT id, keys FROM graph_keys"
            )
        }
        return CoverageIndex.from_parts(self._postings(), keys_by_graph)

    def posting_snapshot(self) -> tuple:
        """``coverage_index().snapshot()`` without building the index.

        The universe is read from the ``graph_keys`` ids and no
        per-graph key set is decoded, so the cost is the posting
        bitsets alone; compare it with
        :func:`~repro.covindex.index.posting_snapshot` over
        :meth:`items` to check the persisted postings out of core.
        """
        universe = bits_of(
            graph_id
            for (graph_id,) in self._connection.execute(
                "SELECT id FROM graph_keys"
            )
        )
        postings = sorted(
            (key, bits) for key, bits in self._postings().items() if bits
        )
        return universe, tuple(postings)

    def _shard_mask(self, shard: int) -> int:
        mask = self._shard_masks.get(shard)
        if mask is None:
            mask = 0
            for (graph_id,) in self._connection.execute(
                "SELECT id FROM graphs WHERE shard = ?", (shard,)
            ):
                mask |= 1 << graph_id
            self._shard_masks[shard] = mask
        return mask

    def save_verdicts(
        self, pattern_key: tuple, match_bits: int, seen_bits: int
    ) -> None:
        """Persist one pattern's verdict bitsets, split by shard."""
        text = _key_to_text(pattern_key)
        self._begin()
        for shard in range(self.num_shards):
            mask = self._shard_mask(shard)
            self._connection.execute(
                "INSERT INTO verdicts (shard, pattern, match_bits, "
                "seen_bits) VALUES (?, ?, ?, ?) "
                "ON CONFLICT(shard, pattern) DO UPDATE SET "
                "match_bits = excluded.match_bits, "
                "seen_bits = excluded.seen_bits",
                (
                    shard,
                    text,
                    _bits_to_blob(match_bits & mask),
                    _bits_to_blob(seen_bits & mask),
                ),
            )
        if not self._in_round:
            self._connection.execute("COMMIT")
        get_registry().counter("store.verdicts_saved").add(1)

    def load_verdicts(self, pattern_key: tuple) -> tuple[int, int] | None:
        """The persisted ``(match_bits, seen_bits)`` of *pattern_key*."""
        match_bits = seen_bits = 0
        rows = self._connection.execute(
            "SELECT match_bits, seen_bits FROM verdicts WHERE pattern = ?",
            (_key_to_text(pattern_key),),
        ).fetchall()
        if not rows:
            return None
        for match_blob, seen_blob in rows:
            match_bits |= _blob_to_bits(match_blob)
            seen_bits |= _blob_to_bits(seen_blob)
        return match_bits, seen_bits

    def verdict_keys(self) -> list[tuple]:
        return sorted(
            {
                _key_from_text(text)
                for (text,) in self._connection.execute(
                    "SELECT DISTINCT pattern FROM verdicts"
                )
            }
        )

    # ------------------------------------------------------------------
    # copy / pickling / deepcopy
    # ------------------------------------------------------------------
    def copy(self) -> "SQLiteStore":
        """An independent same-backend copy.

        File-backed stores clone into an ephemeral sibling file (removed
        on :meth:`close`); ``:memory:`` stores clone into a fresh
        ``:memory:`` database.  Copies are never journalled — they are
        derived snapshots, not systems of record.
        """
        if self._in_round:
            raise DatabaseError("cannot copy a store mid-round")
        if self.path == ":memory:":
            clone = SQLiteStore(
                ":memory:",
                cache_size=self._cache_size,
                num_shards=self.num_shards,
            )
        else:
            handle, clone_path = tempfile.mkstemp(
                prefix=f"{Path(self.path).name}.copy-",
                dir=str(Path(self.path).resolve().parent),
            )
            os.close(handle)
            clone = SQLiteStore(
                clone_path,
                journaled=False,
                cache_size=self._cache_size,
                num_shards=self.num_shards,
            )
            clone._ephemeral = True
        self._connection.backup(clone._connection)
        clone.num_shards = int(clone._meta("num_shards"))
        clone._next_id = int(clone._meta("next_id"))
        clone._update_seq = int(clone._meta("last_applied_update"))
        return clone

    def __deepcopy__(self, memo: dict) -> "SQLiteStore":
        # A deep copy must not duplicate an on-disk database; rollback
        # travels through the round hooks instead (see the module
        # docstring).
        memo[id(self)] = self
        return self

    def __getstate__(self) -> dict:
        if self._in_round:
            raise DatabaseError("cannot pickle a store mid-round")
        return {
            "format": FORMAT_TAG,
            "dump": "\n".join(self._connection.iterdump()),
            "cache_size": self._cache_size,
        }

    def __setstate__(self, state: dict) -> None:
        # Checkpoints are self-contained: a pickled store rehydrates
        # into a fresh :memory: database rather than re-opening the
        # original path (which may not exist where the checkpoint is
        # restored).
        self.path = ":memory:"
        self._ephemeral = False
        self._in_round = False
        self._round_pending = []
        self._cache = OrderedDict()
        self._cache_size = state["cache_size"]
        self._shard_masks = {}
        self._journal = None
        self._connection = sqlite3.connect(
            ":memory:", isolation_level=None, check_same_thread=False
        )
        self._connection.executescript(state["dump"])
        self.num_shards = int(self._meta("num_shards"))
        self._next_id = int(self._meta("next_id"))
        self._update_seq = int(self._meta("last_applied_update"))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        if self._journal is not None:
            self._journal.sync()

    def close(self) -> None:
        connection = getattr(self, "_connection", None)
        if connection is None:
            return
        if self._in_round:
            self.rollback_round()
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        connection.close()
        self._connection = None
        if self._ephemeral:
            Path(self.path).unlink(missing_ok=True)

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SQLiteStore path={self.path!r} |D|={len(self)}>"


__all__ = [
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_NUM_SHARDS",
    "SQLiteStore",
]
