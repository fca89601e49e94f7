"""The write-ahead journal: framing, rotation, checkpoints, recovery.

The load-bearing claims under test (see docs/ROBUSTNESS.md):

* **framing integrity** — every record is length-prefixed and
  CRC-checksummed; a flipped byte is detected, never silently decoded;
* **torn-tail semantics** — a partial or corrupt frame at the very tail
  of the last segment is a crash artefact and is truncated away on
  open; the same damage anywhere else is fatal corruption;
* **checkpoint atomicity** — a checkpoint is visible only after its
  atomic rename, an invalid one is skipped in favour of an older valid
  one;
* **recovery determinism** (the property test) — truncating the journal
  at *every* record boundary and recovering yields exactly the state of
  the uninterrupted run's corresponding prefix, oracle-verified,
  including mid-frame (torn-tail) truncation points.
"""

from __future__ import annotations

import asyncio
import pickle
import shutil
import sys
import types

import pytest

from repro import api
from repro.datasets import aids_like, family_injection
from repro.exceptions import JournalCorruption, JournalError, RolledBack
from repro.execution import ExecutionConfig
from repro.graph.canonical import canonical_certificate
from repro.graph.database import BatchUpdate
from repro.index import IndexPair, SparseCountMatrix
from repro.journal import (
    Journal,
    iter_frames,
    load_latest_checkpoint,
    recover,
    snapshot_digest,
    submitted_record,
    update_from_record,
    write_checkpoint,
)
from repro.journal.records import TornTail, encode_record
from repro.journal.segments import SEGMENT_PATTERN
from repro.midas import MidasConfig
from repro.patterns import CoverageOracle, PatternBudget
from repro.resilience import Fault, inject_faults
from repro.serve.service import PatternService

from .conftest import make_graph


def make_midas(seed: int = 5, **config):
    """A cheap bootstrapped maintainer (~1s) for journal-level tests."""
    return api.bootstrap(
        aids_like(20, seed=11),
        config=MidasConfig(
            budget=PatternBudget(3, 6, 5),
            num_clusters=3,
            sample_cap=40,
            seed=seed,
            **config,
        ),
    )


def head_signature(snapshot) -> tuple:
    """Everything a reader can observe through a snapshot head."""
    return (
        snapshot.version,
        snapshot.database_size,
        snapshot.sample_size,
        snapshot.set_scov,
        tuple(
            (entry.pattern_id, tuple(sorted(entry.cover)), entry.scov)
            for entry in snapshot.patterns
        ),
    )


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_round_trip(self):
        frames = b"".join(
            encode_record({"type": "rejected", "update_id": i, "detail": ""})
            for i in range(5)
        )
        records = list(iter_frames(frames, segment="wal"))
        assert [r.update_id for r in records] == list(range(5))
        assert all(r.type == "rejected" for r in records)

    def test_flipped_byte_is_detected(self):
        frame = bytearray(
            encode_record({"type": "rejected", "update_id": 1, "detail": ""})
        )
        frame[-1] ^= 0xFF
        with pytest.raises(TornTail):
            list(iter_frames(bytes(frame), segment="wal"))

    def test_partial_frame_is_torn(self):
        frame = encode_record(
            {"type": "rejected", "update_id": 1, "detail": ""}
        )
        good_then_partial = frame + frame[: len(frame) // 2]
        with pytest.raises(TornTail) as excinfo:
            list(iter_frames(good_then_partial, segment="wal"))
        # The tear starts exactly where the good prefix ends.
        assert excinfo.value.offset == len(frame)

    def test_unknown_record_type_is_corruption(self):
        # encode_record validates at write time, so frame the rogue
        # payload by hand: well-formed CRC, unknown vocabulary.
        import json
        import struct
        import zlib

        body = json.dumps({"type": "mystery", "update_id": 1}).encode()
        frame = struct.pack(">II", len(body), zlib.crc32(body)) + body
        with pytest.raises(JournalCorruption):
            list(iter_frames(frame, segment="wal"))
        with pytest.raises(ValueError):
            encode_record({"type": "mystery", "update_id": 1})


# ----------------------------------------------------------------------
# the Journal: append, rotate, reopen, prune
# ----------------------------------------------------------------------
def outcome(update_id: int, state: str = "rejected") -> dict:
    return {"type": state, "update_id": update_id, "detail": ""}


class TestJournal:
    def test_append_reopen_round_trip(self, tmp_path):
        with Journal(tmp_path) as journal:
            for i in range(4):
                journal.append(outcome(i))
        with Journal(tmp_path) as journal:
            assert [r.update_id for r in journal.records()] == [0, 1, 2, 3]

    def test_rotation_and_order(self, tmp_path):
        with Journal(tmp_path, segment_max_bytes=120) as journal:
            for i in range(10):
                journal.append(outcome(i))
            assert journal.segment_count > 1
            assert [r.update_id for r in journal.records()] == list(range(10))
        names = sorted(
            p.name for p in tmp_path.iterdir() if SEGMENT_PATTERN.match(p.name)
        )
        assert len(names) == Journal(tmp_path).segment_count

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        with Journal(tmp_path) as journal:
            for i in range(3):
                journal.append(outcome(i))
            active = journal.active_segment
        clean_size = active.stat().st_size
        with active.open("ab") as handle:
            handle.write(b"\x00\x00\x01\x00torn-by-a-crash")
        with Journal(tmp_path) as journal:
            assert [r.update_id for r in journal.records()] == [0, 1, 2]
        assert active.stat().st_size == clean_size

    def test_mid_segment_corruption_in_active_segment_is_fatal(
        self, tmp_path
    ):
        """A CRC failure with valid frames *after* it is corruption, not
        a torn tail — truncating there would silently drop records that
        were fsync-acknowledged (regression: open used to truncate the
        active segment at any TornTail offset unconditionally)."""
        with Journal(tmp_path) as journal:
            for i in range(4):
                journal.append(outcome(i))
            active = journal.active_segment
        data = bytearray(active.read_bytes())
        records = list(iter_frames(bytes(data), segment=active.name))
        # Flip a byte inside the SECOND record's body: records 2 and 3
        # still parse beyond the damage.
        data[records[1].offset + 8] ^= 0xFF
        active.write_bytes(bytes(data))
        with pytest.raises(JournalCorruption):
            Journal(tmp_path)

    def test_corruption_before_tail_is_fatal(self, tmp_path):
        with Journal(tmp_path, segment_max_bytes=120) as journal:
            for i in range(10):
                journal.append(outcome(i))
            assert journal.segment_count > 1
            first = journal._segments[0].path
        data = bytearray(first.read_bytes())
        data[len(data) // 2] ^= 0xFF
        first.write_bytes(bytes(data))
        with pytest.raises(JournalCorruption):
            Journal(tmp_path)

    def test_unresolved_tracking_and_prune(self, tmp_path):
        update = family_injection(1, seed=1)
        # segment_max_bytes=1 => every record rotates into its own segment.
        with Journal(tmp_path, segment_max_bytes=1) as journal:
            journal.append(submitted_record(1, update))
            journal.append(outcome(1))
            journal.append(submitted_record(2, update))
            assert journal.unresolved_ids() == {2}
            # update 2's submission lives in a non-active segment and is
            # unresolved: its segment must survive pruning.
            removed = journal.prune(last_update_id=2)
            assert removed >= 1
            assert {r.update_id for r in journal.records()} >= {2}
            assert journal.unresolved_ids() == {2}

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(JournalError):
            Journal(tmp_path, fsync="sometimes")


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------
class TestCheckpoint:
    def test_round_trip_and_retention(self, tmp_path):
        midas = make_midas()
        reports = []
        for checkpoint_id in range(4):
            write_checkpoint(
                tmp_path,
                checkpoint_id=checkpoint_id,
                midas=midas,
                version=checkpoint_id + 1,
                last_update_id=checkpoint_id,
                next_update_id=checkpoint_id + 1,
            )
            reports.append(checkpoint_id)
        loaded = load_latest_checkpoint(tmp_path)
        assert loaded.checkpoint_id == 3
        assert loaded.version == 4
        # retention: only the newest few checkpoint files survive
        remaining = sorted(p.name for p in tmp_path.glob("ckpt-*.bin"))
        assert len(remaining) <= 2

    def test_graph_caches_stay_out_of_snapshots_and_checkpoints(
        self, tmp_path
    ):
        midas = make_midas()
        graphs = list(midas.database.graphs()) + midas.pattern_graphs()
        for graph in graphs:
            canonical_certificate(graph)
        held, blob = midas._snapshot_state()
        assert not held  # an in-memory store is pickled with the rest
        restored = pickle.loads(blob)
        assert all(g._views is None for g in restored["database"].graphs())
        assert all(
            p.graph._views is None for p in restored["patterns"]
        )
        write_checkpoint(
            tmp_path,
            checkpoint_id=0,
            midas=midas,
            version=1,
            last_update_id=0,
            next_update_id=1,
        )
        revived = load_latest_checkpoint(tmp_path).midas
        revived_graphs = (
            list(revived.database.graphs()) + revived.pattern_graphs()
        )
        assert all(g._views is None for g in revived_graphs)
        assert [canonical_certificate(g) for g in revived_graphs] == [
            canonical_certificate(g) for g in graphs
        ]

    def test_checkpoint_with_the_retired_transactional_field_loads(
        self, tmp_path
    ):
        """Checkpoints written before ``MidasConfig.transactional`` was
        removed pickle a config whose state still carries the field; such
        a maintainer must load and keep running transactional rounds."""
        midas = make_midas()
        midas.config.transactional = False  # the pickled state of old configs
        write_checkpoint(
            tmp_path,
            checkpoint_id=0,
            midas=midas,
            version=1,
            last_update_id=0,
            next_update_id=1,
        )
        revived = load_latest_checkpoint(tmp_path).midas
        assert revived.config.transactional is False
        size = len(revived.database)
        with inject_faults({"midas.fct": Fault(kind="error")}):
            with pytest.raises(RolledBack):
                revived.apply_update(family_injection(4, seed=2))
        assert len(revived.database) == size
        report = revived.apply_update(family_injection(4, seed=2))
        assert not report.aborted
        assert len(revived.database) == size + 4

    def test_checkpoint_with_the_retired_coverage_engine_loads(
        self, tmp_path, monkeypatch
    ):
        """Checkpoints taken with the coverage engine on pickle it inside
        the oracle, from modules that no longer exist, and a config
        whose ExecutionConfig still carries ``covindex``.  Such a
        maintainer loads, drops the engine, keeps its covers and keeps
        running rounds."""
        engine_module = types.ModuleType("repro.covindex.engine")
        bitset_module = types.ModuleType("repro.covindex.bitset")
        engine_module.CoverageEngine = type(
            "CoverageEngine", (), {"__module__": engine_module.__name__}
        )
        bitset_module.IntOps = type(
            "IntOps", (), {"__module__": bitset_module.__name__}
        )
        engine = engine_module.CoverageEngine()
        engine.ops = bitset_module.IntOps()
        engine.verdicts = {("key",): (0b101, 0b111)}

        midas = make_midas()
        covers = {
            p.pattern_id: midas.oracle.cover(p.graph) for p in midas.patterns
        }
        midas.oracle._engine = engine
        legacy = ExecutionConfig()
        object.__setattr__(legacy, "covindex", True)
        midas.config.execution = legacy
        with monkeypatch.context() as patched:
            patched.setitem(sys.modules, engine_module.__name__, engine_module)
            patched.setitem(sys.modules, bitset_module.__name__, bitset_module)
            write_checkpoint(
                tmp_path,
                checkpoint_id=0,
                midas=midas,
                version=1,
                last_update_id=0,
                next_update_id=1,
            )
        revived = load_latest_checkpoint(tmp_path).midas
        assert not hasattr(revived.oracle, "_engine")
        assert revived.config.execution == ExecutionConfig()
        assert {
            p.pattern_id: revived.oracle.cover(p.graph)
            for p in revived.patterns
        } == covers
        size = len(revived.database)
        report = revived.apply_update(family_injection(4, seed=2))
        assert not report.aborted
        assert len(revived.database) == size + 4

    def test_checkpoint_with_an_oracle_from_before_carried_covers_loads(
        self, tmp_path
    ):
        """Checkpoints written before covers were carried across views
        pickle an oracle without the carried state.  Such a maintainer
        loads, answers cover() and keeps running rounds, whose oracle
        is the loaded one's successor."""
        midas = make_midas()
        covers = {
            p.pattern_id: midas.oracle.cover(p.graph) for p in midas.patterns
        }
        for name in ("_carried", "_stable", "_fresh"):
            delattr(midas.oracle, name)
        write_checkpoint(
            tmp_path,
            checkpoint_id=0,
            midas=midas,
            version=1,
            last_update_id=0,
            next_update_id=1,
        )
        revived = load_latest_checkpoint(tmp_path).midas
        assert {
            p.pattern_id: revived.oracle.cover(p.graph)
            for p in revived.patterns
        } == covers
        unmemoised = make_graph("CCO", [(0, 1), (1, 2)])
        assert revived.oracle.cover(unmemoised) == CoverageOracle(
            {gid: revived.database[gid] for gid in revived.oracle.graph_ids()}
        ).cover(unmemoised)
        report = revived.apply_update(family_injection(4, seed=2))
        assert not report.aborted
        sample = {
            gid: revived.database[gid] for gid in revived.sampler.sample_ids
        }
        fresh = CoverageOracle(sample)
        for pattern in revived.patterns:
            assert revived.oracle.cover(pattern.graph) == fresh.cover(
                pattern.graph
            )

    def test_pickled_execution_config_with_covindex_loads(self):
        """Configs pickled before ``covindex``, ``cache`` and
        ``workers`` were removed still carry them in their state; they
        load, compare by the current fields and apply."""
        legacy = ExecutionConfig()
        object.__setattr__(legacy, "covindex", True)
        object.__setattr__(legacy, "cache", True)
        object.__setattr__(legacy, "workers", 2)
        revived = pickle.loads(pickle.dumps(legacy))
        assert revived == ExecutionConfig()
        with revived.apply():
            pass

    def test_checkpoint_with_the_retired_ks_alpha_loads(self, tmp_path):
        """Checkpoints written before the swap's KS test, the result
        cache and the kernel pool were removed pickle a config carrying
        ``ks_alpha``, an execution config carrying ``cache`` and
        ``workers``, and coverage oracles carrying ``_view_token``; such
        a maintainer loads and keeps running rounds."""
        midas = make_midas()
        midas.config.ks_alpha = 0.05  # the pickled state of old configs
        object.__setattr__(midas.config.execution, "cache", True)
        object.__setattr__(midas.config.execution, "workers", 2)
        midas.oracle._view_token = 7
        write_checkpoint(
            tmp_path,
            checkpoint_id=0,
            midas=midas,
            version=1,
            last_update_id=0,
            next_update_id=1,
        )
        revived = load_latest_checkpoint(tmp_path).midas
        assert revived.config.execution == ExecutionConfig()
        assert "_view_token" not in vars(revived.oracle)
        size = len(revived.database)
        report = revived.apply_update(family_injection(4, seed=2))
        assert not report.aborted
        assert len(revived.database) == size + 4

    def test_checkpoint_with_the_retired_pattern_columns_loads(
        self, tmp_path, monkeypatch
    ):
        """Checkpoints written before TP was keyed by certificate pickle
        a token trie from a module that no longer exists, TP columns
        keyed by pattern ID, an IFE EP matrix and the pair's pattern
        IDs.  Such a maintainer loads without them, and a round with an
        unchanged panel refills TP as a fresh build would."""
        trie_module = types.ModuleType("repro.index.trie")
        trie_module.TokenTrie = type(
            "TokenTrie", (), {"__module__": trie_module.__name__}
        )
        midas = make_midas(epsilon=1.0)  # every round is minor
        pair = midas.index_pair
        ids = {p.pattern_id: p.graph for p in midas.patterns}
        pair.fct.trie = trie_module.TokenTrie()
        pair.fct.tp = SparseCountMatrix()
        for feature in pair.fct.features():
            for pattern_id, graph in ids.items():
                pair.fct.tp.set(feature.key, pattern_id, 1)
        del pair.fct._patterns
        pair.ife.ep = SparseCountMatrix()
        pair.ife.ep.set(("C", "N"), next(iter(ids)), 1)
        pair._pattern_ids = set(ids)
        with monkeypatch.context() as patched:
            patched.setitem(sys.modules, trie_module.__name__, trie_module)
            write_checkpoint(
                tmp_path,
                checkpoint_id=0,
                midas=midas,
                version=1,
                last_update_id=0,
                next_update_id=1,
            )
        revived = load_latest_checkpoint(tmp_path).midas
        pair = revived.index_pair
        assert revived.oracle._index_pair is pair
        assert "trie" not in vars(pair.fct)
        assert "ep" not in vars(pair.ife)
        assert "_pattern_ids" not in vars(pair)
        assert pair.fct.tp.nnz() == 0
        panel = sorted(map(canonical_certificate, revived.pattern_graphs()))
        copy = next(iter(revived.database.graphs())).copy()
        report = revived.apply_update(BatchUpdate.of(insertions=[copy]))
        assert not report.aborted
        assert not report.is_major
        assert sorted(
            map(canonical_certificate, revived.pattern_graphs())
        ) == panel
        fresh = IndexPair.build(
            revived.fct_set, dict(revived.database.items())
        )
        fresh.sync_patterns(revived.pattern_graphs())
        for key in panel:
            assert pair.fct.tp.column(key) == fresh.fct.tp.column(key)

    def test_invalid_latest_falls_back(self, tmp_path):
        midas = make_midas()
        for checkpoint_id in (0, 1):
            write_checkpoint(
                tmp_path,
                checkpoint_id=checkpoint_id,
                midas=midas,
                version=checkpoint_id + 1,
                last_update_id=0,
                next_update_id=1,
            )
        newest = sorted(tmp_path.glob("ckpt-*.bin"))[-1]
        newest.write_bytes(b"garbage that is not a checkpoint")
        loaded = load_latest_checkpoint(tmp_path)
        assert loaded is not None
        assert loaded.checkpoint_id == 0

    def test_empty_directory_is_none(self, tmp_path):
        assert load_latest_checkpoint(tmp_path) is None
        with pytest.raises(JournalError):
            recover(tmp_path)


# ----------------------------------------------------------------------
# the recovery property: truncate at every boundary, recover, compare
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def uninterrupted_run(tmp_path_factory):
    """One journaled run of 3 committed updates, plus its ground truth.

    Returns (journal_dir, {version: head_signature}) where the signature
    map holds the published head after bootstrap (version 1) and after
    each commit (versions 2..4).
    """
    journal_dir = tmp_path_factory.mktemp("journal-run")
    midas = make_midas()
    updates = [family_injection(1, seed=s) for s in (1, 2, 3)]
    signatures: dict[int, tuple] = {}

    async def scenario() -> None:
        # checkpoint_every is huge so replay is journal-driven from
        # checkpoint 0 at every truncation point.
        service = PatternService(
            midas, journal_dir=journal_dir, checkpoint_every=10**6
        )
        signatures[1] = head_signature(service.store.current())
        await service.start()
        for update in updates:
            status = await service.submit(update)
            status = await service.wait_for(status.update_id)
            assert status.state == "applied"
            signatures[status.version] = head_signature(
                service.store.current()
            )
        await service.close(drain=False)  # no final checkpoint

    asyncio.run(scenario())
    return journal_dir, signatures


def _truncated_copy(source, target, size: int) -> None:
    shutil.copytree(source, target)
    segments = sorted(
        p for p in target.iterdir() if SEGMENT_PATTERN.match(p.name)
    )
    assert len(segments) == 1, "property test assumes a single segment"
    with segments[0].open("r+b") as handle:
        handle.truncate(size)


class TestRecoveryProperty:
    def test_every_record_boundary_recovers_to_prefix_state(
        self, uninterrupted_run, tmp_path
    ):
        journal_dir, signatures = uninterrupted_run
        segments = sorted(
            p for p in journal_dir.iterdir() if SEGMENT_PATTERN.match(p.name)
        )
        assert len(segments) == 1
        data = segments[0].read_bytes()
        records = list(iter_frames(data, segment=segments[0].name))
        boundaries = [r.offset for r in records] + [len(data)]
        # checkpoint 0's journal marker + 3 x (submitted + committed)
        assert len(
            [r for r in records if r.type != "checkpoint"]
        ) == 6

        for index, boundary in enumerate(boundaries):
            prefix = records[:index]
            commits = [r for r in prefix if r.type == "committed"]
            expected_version = 1 + len(commits)
            expected_pending = {
                r.update_id
                for r in prefix
                if r.type == "submitted"
                and r.update_id not in {c.update_id for c in commits}
            }
            copy = tmp_path / f"boundary-{index}"
            _truncated_copy(journal_dir, copy, boundary)
            recovered = recover(copy)
            recovered.journal.close()
            assert recovered.head_version == expected_version
            assert recovered.replayed_commits == len(commits)
            assert (
                head_signature(recovered.head)
                == signatures[expected_version]
            ), f"boundary {index}: recovered head diverged from prefix"
            assert {
                update_id for update_id, _ in recovered.pending
            } == expected_pending

    def test_mid_frame_truncation_recovers_as_torn_tail(
        self, uninterrupted_run, tmp_path
    ):
        journal_dir, signatures = uninterrupted_run
        segments = sorted(
            p for p in journal_dir.iterdir() if SEGMENT_PATTERN.match(p.name)
        )
        data = segments[0].read_bytes()
        records = list(iter_frames(data, segment=segments[0].name))
        # Tear inside the LAST frame: recovery must behave exactly as if
        # the whole frame were missing (the crash interrupted its write).
        last = records[-1]
        for cut in (last.offset + 3, (last.offset + len(data)) // 2):
            copy = tmp_path / f"torn-{cut}"
            _truncated_copy(journal_dir, copy, cut)
            recovered = recover(copy)
            recovered.journal.close()
            commits = [r for r in records[:-1] if r.type == "committed"]
            assert recovered.head_version == 1 + len(commits)
            assert (
                head_signature(recovered.head)
                == signatures[recovered.head_version]
            )

    def test_replay_digest_mismatch_fails_loudly(
        self, uninterrupted_run, tmp_path
    ):
        journal_dir, _ = uninterrupted_run
        copy = tmp_path / "tampered"
        shutil.copytree(journal_dir, copy)
        segments = sorted(
            p for p in copy.iterdir() if SEGMENT_PATTERN.match(p.name)
        )
        data = segments[0].read_bytes()
        records = list(iter_frames(data, segment=segments[0].name))
        # Rewrite a committed record with a wrong head digest (valid CRC,
        # lying payload): recovery must refuse to serve the divergence.
        rewritten = b""
        for record in records:
            payload = dict(record.payload)
            if record.type == "committed":
                payload["head_digest"] = "0" * 64
            rewritten += encode_record(payload)
        segments[0].write_bytes(rewritten)
        with pytest.raises(JournalError):
            recover(copy)

    def test_recovered_submission_payload_round_trips(
        self, uninterrupted_run
    ):
        journal_dir, _ = uninterrupted_run
        with Journal(journal_dir) as journal:
            submitted = [
                r for r in journal.records() if r.type == "submitted"
            ]
        assert submitted
        for record in submitted:
            update = update_from_record(record)
            assert len(update.insertions) == 1
            assert update.deletions == ()


# ----------------------------------------------------------------------
# service-level durability round trip
# ----------------------------------------------------------------------
class TestServiceDurability:
    def test_close_and_recover_identical_head(self, tmp_path):
        midas = make_midas()
        updates = [family_injection(1, seed=s) for s in (7, 8)]

        async def first_life() -> tuple:
            service = PatternService(
                midas, journal_dir=tmp_path, checkpoint_every=2
            )
            await service.start()
            for update in updates:
                status = await service.submit(update)
                status = await service.wait_for(status.update_id)
                assert status.state == "applied"
            head = service.store.current()
            await service.close()
            return head_signature(head), snapshot_digest(head)

        async def second_life() -> tuple:
            service = PatternService(None, journal_dir=tmp_path)
            recovery = service.last_recovery
            assert recovery is not None
            assert recovery.pending == []
            head = service.store.current()
            await service.close()
            return head_signature(head), snapshot_digest(head)

        assert asyncio.run(first_life()) == asyncio.run(second_life())

    def test_unresolved_update_is_requeued_after_recovery(self, tmp_path):
        midas = make_midas()
        update = family_injection(1, seed=9)

        async def submit_and_die() -> int:
            service = PatternService(midas, journal_dir=tmp_path)
            # never start the writer: the submission is journaled but
            # no round runs — the "crash before the round" shape.
            status = await service.submit(update)
            service.journal.close()
            return status.update_id

        update_id = asyncio.run(submit_and_die())

        async def next_life() -> None:
            service = PatternService(None, journal_dir=tmp_path)
            assert [u for u, _ in service.last_recovery.pending] == [
                update_id
            ]
            assert service.status_of(update_id).state == "queued"
            await service.start()
            status = await service.wait_for(update_id)
            assert status.state == "applied"
            await service.close()

        asyncio.run(next_life())

    def test_recovery_requeues_backlog_larger_than_queue_limit(
        self, tmp_path
    ):
        """A crashed service can hold more journaled-but-unresolved
        updates than ``queue_limit`` (a full queue plus the in-flight
        round); recovery must re-queue all of them without tripping any
        queue bound (regression: the maxsize-bounded queue made the
        constructor raise asyncio.QueueFull, so the service could never
        restart after the very overload the journal protects against)."""
        from repro.exceptions import ServiceOverloaded

        midas = make_midas()
        updates = [family_injection(1, seed=s) for s in (1, 2, 3)]

        async def first_life() -> list[int]:
            service = PatternService(
                midas, journal_dir=tmp_path, queue_limit=8
            )
            # Writer never started: every submission stays unresolved.
            ids = []
            for update in updates:
                status = await service.submit(update)
                ids.append(status.update_id)
            service.journal.close()
            return ids

        ids = asyncio.run(first_life())

        async def second_life() -> None:
            # The recovered backlog (3) exceeds the new queue_limit (2).
            service = PatternService(
                None, journal_dir=tmp_path, queue_limit=2
            )
            assert [u for u, _ in service.last_recovery.pending] == ids
            assert service.queue_depth == len(ids)
            # Admission control still sheds *new* writes meanwhile.
            with pytest.raises(ServiceOverloaded):
                await service.submit(family_injection(1, seed=4))
            await service.start()
            for update_id in ids:
                status = await service.wait_for(update_id)
                assert status.state == "applied"
            await service.close()

        asyncio.run(second_life())

    def test_recovery_requires_maintainer_or_checkpoint(self, tmp_path):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            PatternService(None, journal_dir=tmp_path / "empty")
