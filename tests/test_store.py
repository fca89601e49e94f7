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
import pickle
import sqlite3
from pathlib import Path

import pytest

from repro.bench.experiments.store import postings_agree
from repro.covindex.index import CoverageIndex
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


def _flip_posting_bit(db: sqlite3.Connection) -> None:
    """Clear the lowest set bit of the first persisted posting row."""
    blob, rowid = db.execute(
        "SELECT bits, rowid FROM postings ORDER BY rowid"
    ).fetchone()
    bits = int.from_bytes(blob, "little")
    bits &= bits - 1
    db.execute(
        "UPDATE postings SET bits = ? WHERE rowid = ?",
        (bits.to_bytes(max(1, (bits.bit_length() + 7) // 8), "little"), rowid),
    )


def _delete_graph_keys_row(db: sqlite3.Connection) -> None:
    db.execute(
        "DELETE FROM graph_keys WHERE id = (SELECT MIN(id) FROM graph_keys)"
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

    def test_coverage_index_matches_rebuild(self, tmp_path):
        with SQLiteStore(tmp_path / "store.db") as s:
            _seed(s)
            s.apply(
                BatchUpdate.of(
                    insertions=[make_graph("CS", [(0, 1)])], deletions=[1]
                )
            )
            assert s.coverage_index() == CoverageIndex.build(
                dict(s.items())
            )

    @pytest.mark.parametrize(
        "tamper",
        [None, _flip_posting_bit, _delete_graph_keys_row],
        ids=["clean", "flipped_posting_bit", "deleted_graph_keys_row"],
    )
    def test_streamed_postings_check(self, tmp_path, tamper):
        """The store figure's out-of-core check agrees with the full
        index comparison: it passes on a clean store and fails on a
        flipped posting bit or a lost ``graph_keys`` row."""
        path = tmp_path / "store.db"
        with SQLiteStore(path) as s:
            _seed(s)
            s.apply(
                BatchUpdate.of(
                    insertions=[make_graph("CS", [(0, 1)])], deletions=[1]
                )
            )
        if tamper is not None:
            with sqlite3.connect(path) as db:
                tamper(db)
        with SQLiteStore(path) as s:
            assert s.posting_snapshot() == s.coverage_index().snapshot()
            full = s.coverage_index() == CoverageIndex.build(dict(s.items()))
            assert full is (tamper is None)
            assert postings_agree(s) is full

    def test_verdict_persistence(self, tmp_path):
        path = tmp_path / "store.db"
        with SQLiteStore(path) as s:
            _seed(s)
            s.save_verdicts("pattern-key", 0b101, 0b111)
        with SQLiteStore(path) as reopened:
            assert reopened.verdict_keys() == ["pattern-key"]
            assert reopened.load_verdicts("pattern-key") == (0b101, 0b111)
            assert reopened.load_verdicts("absent") is None

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
            assert s.coverage_index() == CoverageIndex.build(
                dict(s.items())
            )

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
            assert reopened.coverage_index() == CoverageIndex.build(
                dict(reopened.items())
            )

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
