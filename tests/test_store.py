"""Backend conformance for the :class:`repro.store.GraphStore` API.

Every test in the parametrized half runs identically against the
in-memory ``GraphDatabase`` (the reference) and the out-of-core
``SQLiteStore`` — the contract is whatever the reference does.  The
cross-backend half drives both through the same trajectory and demands
byte-identical results.  The file also carries the private-access lint:
nothing outside ``repro.graph`` / ``repro.store`` may poke another
object's ``_graphs`` / ``_next_id``.
"""

import ast
import copy
import json
import pickle
import sqlite3
from pathlib import Path

import pytest

from repro.graph import BatchUpdate, DatabaseError, GraphDatabase
from repro.graph.io import graph_to_dict
from repro.store import GraphStore, open_store
from repro.store.base import (
    STORE_SCHEMES,
    default_store_spec,
    use_default_store,
)
from repro.store.sqlite import SQLiteStore

from .conftest import make_graph

BACKENDS = ("memory", "sqlite")


def _make_store(backend: str, tmp_path: Path, name: str = "store.db"):
    if backend == "memory":
        return GraphDatabase()
    return SQLiteStore(tmp_path / name)


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    backend = _make_store(request.param, tmp_path)
    yield backend
    backend.close()


def _seed(store) -> list[int]:
    return [
        store.add(make_graph("CO", [(0, 1)])),
        store.add(make_graph("CN", [(0, 1)])),
        store.add(make_graph("CCO", [(0, 1), (1, 2)])),
    ]


class TestContainerConformance:
    def test_is_graph_store(self, store):
        assert isinstance(store, GraphStore)

    def test_empty(self, store):
        assert len(store) == 0
        assert store.ids() == []
        assert 0 not in store

    def test_add_assigns_sequential_ids(self, store):
        assert _seed(store) == [0, 1, 2]
        assert len(store) == 3
        assert all(gid in store for gid in (0, 1, 2))

    def test_iteration_is_insertion_order(self, store):
        _seed(store)
        store.remove(1)
        store.add(make_graph("CS", [(0, 1)]))
        assert list(store) == [0, 2, 3]
        assert [gid for gid, _ in store.items()] == [0, 2, 3]

    def test_getitem_missing_raises(self, store):
        with pytest.raises(DatabaseError, match="no graph with id 3"):
            store[3]

    def test_graph_names_assigned(self, store):
        store.add(make_graph("CO", [(0, 1)]))
        assert store[0].name == "G0"

    def test_graph_round_trips(self, store):
        graph = make_graph("COS", [(0, 1), (0, 2)])
        expected = graph_to_dict(graph)
        gid = store.add(graph)
        expected["name"] = f"G{gid}"
        assert graph_to_dict(store[gid]) == expected

    def test_batch_graphs_round_trip_named_and_unnamed(self, store):
        named = make_graph("CN", [(0, 1)])
        named.name = "kept"
        graphs = [make_graph("COS", [(0, 1), (0, 2)]), named]
        record = store.apply(BatchUpdate.of(insertions=graphs))
        for gid, graph in zip(record.inserted_ids, graphs):
            expected = graph_to_dict(graph)
            expected["name"] = graph.name or f"G{gid}"
            assert graph_to_dict(store[gid]) == expected
        assert graphs[0].name is None


class TestMutationConformance:
    def test_remove_returns_graph(self, store):
        _seed(store)
        removed = store.remove(1)
        assert removed.vertex_label_set() == {"C", "N"}
        assert 1 not in store
        with pytest.raises(DatabaseError):
            store.remove(1)

    def test_ids_never_reused(self, store):
        _seed(store)
        store.remove(2)
        assert store.add(make_graph("CS", [(0, 1)])) == 3

    def test_apply_batch(self, store):
        _seed(store)
        record = store.apply_batch(
            BatchUpdate.of(
                insertions=[make_graph("CP", [(0, 1)])], deletions=[0]
            )
        )
        assert record.inserted_ids == [3]
        assert record.deleted_ids == [0]
        assert store.ids() == [1, 2, 3]

    def test_apply_missing_deletion_is_atomic(self, store):
        _seed(store)
        update = BatchUpdate.of(
            insertions=[make_graph("CP", [(0, 1)])], deletions=[0, 99]
        )
        with pytest.raises(DatabaseError, match="cannot delete missing"):
            store.apply(update)
        assert store.ids() == [0, 1, 2]
        assert store.next_graph_id() == 3

    def test_updated_does_not_mutate(self, store):
        _seed(store)
        clone = store.updated(BatchUpdate.of(deletions=[0]))
        try:
            assert store.ids() == [0, 1, 2]
            assert clone.ids() == [1, 2]
        finally:
            clone.close()


class TestIdAllocation:
    def test_reserve_through(self, store):
        store.reserve_through(5)
        assert store.next_graph_id() == 5
        store.reserve_through(2)  # never moves backwards
        assert store.next_graph_id() == 5
        assert store.add(make_graph("CO", [(0, 1)])) == 5

    def test_ingest_preserves_ids(self, store):
        source = GraphDatabase()
        source.reserve_through(4)
        source.add(make_graph("CO", [(0, 1)]))
        source.add(make_graph("CN", [(0, 1)]))
        store.ingest(source)
        assert store.ids() == [4, 5]
        assert store.next_graph_id() == 6

    def test_ingest_non_monotonic_raises(self, store):
        store.reserve_through(10)
        with pytest.raises(DatabaseError, match="cannot ingest"):
            store.ingest({4: make_graph("CO", [(0, 1)])})


class TestStatsConformance:
    def test_stats_match_reference(self, store):
        _seed(store)
        reference = GraphDatabase()
        _seed(reference)
        assert store.total_vertices() == reference.total_vertices()
        assert store.total_edges() == reference.total_edges()
        assert (
            store.vertex_label_alphabet()
            == reference.vertex_label_alphabet()
        )
        assert (
            store.edge_label_document_frequency()
            == reference.edge_label_document_frequency()
        )
        assert store.summary() == reference.summary()

    def test_empty_summary(self, store):
        assert store.summary()["graphs"] == 0


class TestCopyAndPickle:
    def test_copy_is_independent(self, store):
        _seed(store)
        clone = store.copy()
        try:
            clone.add(make_graph("CS", [(0, 1)]))
            clone.remove(0)
            assert store.ids() == [0, 1, 2]
            assert clone.ids() == [1, 2, 3]
        finally:
            clone.close()

    def test_pickle_round_trip(self, store):
        _seed(store)
        restored = pickle.loads(pickle.dumps(store))
        try:
            assert restored.ids() == store.ids()
            assert restored.next_graph_id() == store.next_graph_id()
            for gid in store.ids():
                assert graph_to_dict(restored[gid]) == graph_to_dict(
                    store[gid]
                )
        finally:
            restored.close()


class TestRoundHooks:
    def test_commit_round_keeps_state(self, store):
        _seed(store)
        store.begin_round()
        store.apply(BatchUpdate.of(insertions=[make_graph("CS", [(0, 1)])]))
        store.commit_round()
        assert store.ids() == [0, 1, 2, 3]

    def test_hooks_are_reentrant_across_rounds(self, store):
        _seed(store)
        for _ in range(2):
            store.begin_round()
            store.commit_round()
        assert store.ids() == [0, 1, 2]


class TestCrossBackendIdentity:
    def test_identical_trajectories(self, tmp_path):
        stores = [
            _make_store(backend, tmp_path) for backend in BACKENDS
        ]
        try:
            records = []
            for backend in stores:
                _seed(backend)
                first = backend.apply(
                    BatchUpdate.of(
                        insertions=[make_graph("CP", [(0, 1)])],
                        deletions=[1],
                    )
                )
                second = backend.apply(
                    BatchUpdate.of(
                        insertions=[
                            make_graph("OO", [(0, 1)]),
                            make_graph("CCN", [(0, 1), (1, 2)]),
                        ],
                        deletions=[0, 3],
                    )
                )
                records.append(
                    (
                        first.inserted_ids,
                        first.deleted_ids,
                        second.inserted_ids,
                        second.deleted_ids,
                        backend.ids(),
                        backend.next_graph_id(),
                        [graph_to_dict(backend[g]) for g in backend.ids()],
                        backend.summary(),
                    )
                )
            assert records[0] == records[1]
        finally:
            for backend in stores:
                backend.close()

    def test_identical_error_taxonomy(self, tmp_path):
        messages = []
        for backend in BACKENDS:
            with _make_store(backend, tmp_path, f"{backend}.db") as s:
                _seed(s)
                for trigger in (
                    lambda: s[9],
                    lambda: s.remove(9),
                    lambda: s.apply(BatchUpdate.of(deletions=[1, 9])),
                ):
                    with pytest.raises(DatabaseError) as excinfo:
                        trigger()
                    messages.append(str(excinfo.value))
        half = len(messages) // 2
        assert messages[:half] == messages[half:]


#: The schema of files written while the store persisted coverage
#: postings and verdicts per shard.
_LEGACY_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE graphs (
    id INTEGER PRIMARY KEY,
    shard INTEGER NOT NULL,
    name TEXT NOT NULL,
    payload TEXT NOT NULL,
    num_vertices INTEGER NOT NULL,
    num_edges INTEGER NOT NULL,
    vlabels TEXT NOT NULL,
    elabels TEXT NOT NULL
);
CREATE INDEX graphs_shard ON graphs (shard);
CREATE TABLE graph_keys (id INTEGER PRIMARY KEY, keys TEXT NOT NULL);
CREATE TABLE postings (
    shard INTEGER NOT NULL,
    key TEXT NOT NULL,
    bits BLOB NOT NULL,
    PRIMARY KEY (shard, key)
);
CREATE TABLE verdicts (
    shard INTEGER NOT NULL,
    pattern TEXT NOT NULL,
    match_bits BLOB NOT NULL,
    seen_bits BLOB NOT NULL,
    PRIMARY KEY (shard, pattern)
);
"""


def _write_legacy_store(path: Path, graphs: list) -> None:
    """A file in the legacy layout: three shards, populated postings,
    per-graph keys and verdicts."""
    with sqlite3.connect(path) as db:
        db.executescript(_LEGACY_SCHEMA)
        db.executemany(
            "INSERT INTO meta VALUES (?, ?)",
            [
                ("format", "repro-store-v1"),
                ("next_id", str(len(graphs))),
                ("last_applied_update", "-1"),
                ("num_shards", "3"),
            ],
        )
        for graph_id, graph in enumerate(graphs):
            payload = dict(graph_to_dict(graph), name=f"G{graph_id}")
            db.execute(
                "INSERT INTO graphs VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    graph_id,
                    graph_id % 3,
                    f"G{graph_id}",
                    json.dumps(payload, separators=(",", ":")),
                    graph.num_vertices,
                    graph.num_edges,
                    json.dumps(sorted(graph.vertex_label_set())),
                    json.dumps(sorted(graph.edge_label_set())),
                ),
            )
            db.execute(
                "INSERT INTO graph_keys VALUES (?, ?)",
                (graph_id, '[["vl", "C", 1]]'),
            )
            db.execute(
                "INSERT INTO postings VALUES (?, ?, ?)",
                (graph_id % 3, '["vl","C",1]', bytes([1 << graph_id])),
            )
            db.execute(
                "INSERT INTO verdicts VALUES (?, ?, ?, ?)",
                (graph_id % 3, '["p"]', b"\x00", bytes([1 << graph_id])),
            )


class TestSQLiteSpecifics:
    def test_reopen_durability(self, tmp_path):
        path = tmp_path / "store.db"
        with SQLiteStore(path) as s:
            _seed(s)
            s.remove(1)
            expected = [graph_to_dict(s[g]) for g in s.ids()]
        with SQLiteStore(path) as reopened:
            assert reopened.ids() == [0, 2]
            assert reopened.next_graph_id() == 3
            assert [
                graph_to_dict(reopened[g]) for g in reopened.ids()
            ] == expected

    def test_legacy_sharded_file_opens_and_replays(self, tmp_path):
        """A file written with persisted postings, graph keys, verdicts
        and a non-default shard count opens, hydrates, replays a
        pending journal batch and applies new batches."""
        from repro.journal.segments import Journal

        path = tmp_path / "legacy.db"
        seeded = [
            make_graph("CO", [(0, 1)]),
            make_graph("CN", [(0, 1)]),
            make_graph("CCO", [(0, 1), (1, 2)]),
        ]
        _write_legacy_store(path, seeded)
        pending = make_graph("CS", [(0, 1)])
        journal = Journal(Path(f"{path}.wal"))
        journal.append(
            {
                "type": "submitted",
                "update_id": 0,
                "store_batch": {
                    "insertions": [graph_to_dict(pending)],
                    "deletions": [1],
                    "assigned_ids": [3],
                    "next_id_after": 4,
                    "deferred": False,
                },
            }
        )
        journal.close()
        with SQLiteStore(path) as s:
            assert s.ids() == [0, 2, 3]
            assert s.next_graph_id() == 4
            assert graph_to_dict(s[2])["labels"] == ["C", "C", "O"]
            assert graph_to_dict(s[3])["labels"] == ["C", "S"]
            record = s.apply(
                BatchUpdate.of(
                    insertions=[make_graph("NO", [(0, 1)])], deletions=[0]
                )
            )
            assert record.inserted_ids == [4]
            assert s.total_edges() == 4
        with SQLiteStore(path) as reopened:
            assert reopened.ids() == [2, 3, 4]
            assert sorted(reopened.vertex_label_alphabet()) == [
                "C",
                "N",
                "O",
                "S",
            ]

    def test_rollback_round_restores_state(self, tmp_path):
        with SQLiteStore(tmp_path / "store.db") as s:
            _seed(s)
            s.begin_round()
            s.apply(
                BatchUpdate.of(
                    insertions=[make_graph("CS", [(0, 1)])], deletions=[0]
                )
            )
            s.rollback_round()
            assert s.ids() == [0, 1, 2]
            assert s.next_graph_id() == 3
            assert graph_to_dict(s[0])["labels"] == ["C", "O"]

    def test_deepcopy_returns_self(self, tmp_path):
        with SQLiteStore(tmp_path / "store.db") as s:
            assert copy.deepcopy(s) is s

    def test_journal_crash_replay(self, tmp_path):
        path = tmp_path / "store.db"
        store = SQLiteStore(path)
        _seed(store)
        # Simulate a crash after the write-ahead record but before the
        # SQL commit: journal a submitted batch by hand, then drop the
        # connection without resolving it.
        graph = make_graph("CS", [(0, 1)])
        store._journal.append(
            {
                "type": "submitted",
                "update_id": store._update_seq + 1,
                "store_batch": {
                    "insertions": [graph_to_dict(graph)],
                    "deletions": [0],
                    "assigned_ids": [3],
                    "next_id_after": 4,
                    "deferred": False,
                },
            }
        )
        store._journal.sync()
        store._connection.close()
        with SQLiteStore(path) as reopened:
            assert reopened.ids() == [1, 2, 3]
            assert reopened.next_graph_id() == 4
            assert graph_to_dict(reopened[3])["labels"] == ["C", "S"]

    def test_copy_refused_mid_round(self, tmp_path):
        with SQLiteStore(tmp_path / "store.db") as s:
            s.begin_round()
            with pytest.raises(DatabaseError):
                s.copy()
            s.rollback_round()


class TestOpenStore:
    def test_memory_specs(self):
        assert isinstance(open_store(), GraphDatabase)
        assert isinstance(open_store("memory"), GraphDatabase)

    def test_sqlite_specs(self, tmp_path):
        for spec in (
            f"sqlite:{tmp_path / 'a.db'}",
            str(tmp_path / "b.db"),
            str(tmp_path / "c.sqlite"),
        ):
            with open_store(spec) as s:
                assert isinstance(s, SQLiteStore)

    def test_passthrough_and_json(self, tmp_path):
        db = GraphDatabase()
        assert open_store(db) is db
        from repro.graph.io import write_database

        db.add(make_graph("CO", [(0, 1)]))
        dataset = tmp_path / "data.json"
        write_database(dataset, db)
        loaded = open_store(str(dataset))
        assert loaded.ids() == [0]

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError, match="unrecognised store spec"):
            open_store("cassandra:nope")

    def test_schemes_constant(self):
        assert STORE_SCHEMES == ("memory", "sqlite")

    def test_default_store_scope(self):
        assert default_store_spec() is None
        with use_default_store("sqlite::memory:"):
            assert default_store_spec() == "sqlite::memory:"
        assert default_store_spec() is None


# ----------------------------------------------------------------------
# the private-access lint
# ----------------------------------------------------------------------
#: Fields of the in-memory store that used to leak through the codebase.
PRIVATE_FIELDS = {"_graphs", "_next_id"}

#: Modules allowed to touch them: the owning layers, plus PatternSet's
#: own allocator (same-class access on a fresh clone in ``copy``).
ALLOWED = ("repro/graph/", "repro/store/", "repro/patterns/pattern.py")


def test_no_private_store_access_outside_storage_layer():
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    violations = []
    for path in sorted(src.rglob("*.py")):
        relative = path.relative_to(src.parent).as_posix()
        if any(allowed in relative for allowed in ALLOWED):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in PRIVATE_FIELDS
                and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")
                )
            ):
                violations.append(f"{relative}:{node.lineno} .{node.attr}")
    assert not violations, (
        "private store fields accessed outside repro.graph/repro.store "
        f"(use the GraphStore API): {violations}"
    )
