"""Crash recovery: replay the journal through the round machinery.

:func:`recover` rebuilds the exact serving state a crashed process had
durably acknowledged:

1. load the newest validating checkpoint (the pickled maintainer plus
   its version / update-id high-water marks);
2. open the journal — torn tails from the crash are truncated here;
3. replay every ``committed`` record past the checkpoint by re-running
   the *same* transactional ``Midas.apply_update`` on the journaled
   ``submitted`` payload.  Maintenance rounds are deterministic, so the
   replayed round must reproduce the original commit exactly — the
   inserted/deleted ids and the published-head digest recorded in the
   ``committed`` record are cross-checked and any divergence fails
   recovery loudly rather than serving a silently different panel;
4. collect resolved statuses (for the operator-facing backlog) and the
   still-unresolved ``submitted`` updates, which the service re-queues;
5. rebuild the published snapshot head and — the PR-6 serve-oracle
   check — verify its cover sets and scov values against a *fresh*
   :class:`~repro.patterns.metrics.CoverageOracle` over the recovered
   sample view.

The guarantees the crash-injection harness asserts: zero lost committed
rounds (every journaled commit is in the recovered head) and zero
silently dropped accepted updates (every journaled-but-unresolved
submission comes back as pending).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from ..exceptions import JournalError
from ..graph.database import BatchUpdate
from ..obs import get_registry
from .checkpoint import Checkpoint, load_latest_checkpoint
from .records import Record, snapshot_digest, update_from_record
from .segments import Journal


@dataclass
class RecoveredState:
    """Everything a service needs to resume after :func:`recover`."""

    midas: object
    #: The rebuilt published head (a ``PatternSnapshot``).
    head: object
    head_version: int
    head_digest: str
    checkpoint: Checkpoint
    #: update_id -> resolved status payload (state/detail/version/ids).
    statuses: dict[int, dict] = field(default_factory=dict)
    #: Journaled but unresolved updates, in submission order.
    pending: list[tuple[int, BatchUpdate]] = field(default_factory=list)
    next_update_id: int = 1
    replayed_commits: int = 0
    records_scanned: int = 0
    recovery_seconds: float = 0.0
    #: The journal, left open for the resuming service to keep using.
    journal: Journal | None = None


def _freeze_head(midas, version: int):
    # Imported lazily: repro.serve.service imports repro.journal at load,
    # so the reverse edge must wait until call time.
    from ..serve.snapshot import build_snapshot

    return build_snapshot(
        version,
        ((p.pattern_id, p.graph, p.provenance) for p in midas.patterns),
        midas.oracle,
        database_size=len(midas.database),
    )


def verify_head_against_fresh_oracle(head, midas) -> list[str]:
    """The serve-oracle cross-check, recovery flavoured.

    Recomputes every pattern's cover and scov with a fresh full-scan
    :class:`CoverageOracle` over the recovered maintainer's sample view
    and compares against the rebuilt head snapshot.  Returns mismatch
    descriptions (empty = clean).
    """
    from ..patterns.metrics import CoverageOracle

    failures: list[str] = []
    view = {
        graph_id: midas.database[graph_id]
        for graph_id in midas.oracle.graph_ids()
    }
    fresh = CoverageOracle(view)
    graphs = [entry.graph for entry in head.patterns]
    for entry in head.patterns:
        want = fresh.cover(entry.graph)
        if entry.cover != want:
            failures.append(
                f"pattern {entry.pattern_id}: recovered cover "
                f"{sorted(entry.cover)} != fresh {sorted(want)}"
            )
        if entry.scov != fresh.scov(entry.graph):
            failures.append(
                f"pattern {entry.pattern_id}: recovered scov drifted"
            )
    if head.set_scov != fresh.set_scov(graphs):
        failures.append("recovered set_scov drifted from fresh oracle")
    return failures


def _status_payload(record: Record) -> dict:
    payload = {
        "update_id": record.update_id,
        "state": record.type if record.type != "committed" else "applied",
        "detail": record.payload.get("detail", ""),
    }
    if record.type == "committed":
        payload["version"] = record.payload["version"]
        payload["inserted_ids"] = list(record.payload["inserted_ids"])
        payload["deleted_ids"] = list(record.payload["deleted_ids"])
    return payload


def recover(
    directory: str | Path,
    *,
    fsync: str = "always",
    segment_max_bytes: int | None = None,
    verify: bool = True,
) -> RecoveredState:
    """Rebuild serving state from the journal directory.

    Raises :class:`~repro.exceptions.JournalError` when no checkpoint
    exists (the directory was never initialised by a journaled service),
    when replay diverges from a ``committed`` record, or — with
    ``verify`` — when the rebuilt head fails the fresh-oracle check.
    """
    started = time.perf_counter()
    registry = get_registry()
    checkpoint = load_latest_checkpoint(directory)
    if checkpoint is None:
        raise JournalError(
            f"no valid checkpoint under {directory}; cannot recover"
        )
    journal_kwargs = {"fsync": fsync}
    if segment_max_bytes is not None:
        journal_kwargs["segment_max_bytes"] = segment_max_bytes
    journal = Journal(directory, **journal_kwargs)
    records = journal.records()

    midas = checkpoint.midas
    version = checkpoint.version
    last_digest = ""
    statuses: dict[int, dict] = {}
    submitted: dict[int, Record] = {}
    max_update_id = checkpoint.next_update_id - 1
    replayed = 0

    for record in records:
        update_id = record.update_id
        if update_id is not None:
            max_update_id = max(max_update_id, update_id)
        if record.type == "submitted":
            submitted[update_id] = record
            continue
        if record.type == "checkpoint":
            continue
        # Outcome records: everything at or below the checkpoint's
        # high-water mark is already folded into the pickled state.
        statuses[update_id] = _status_payload(record)
        if record.type != "committed":
            continue
        if update_id <= checkpoint.last_update_id:
            last_digest = record.payload["head_digest"]
            continue
        source = submitted.get(update_id)
        if source is None:
            raise JournalError(
                f"committed record for update {update_id} has no "
                f"journaled submission — pruning bug or missing segment"
            )
        report = midas.apply_update(update_from_record(source))
        if report.aborted:
            raise JournalError(
                f"replay of update {update_id} aborted "
                f"({report.abort_reason}) but the journal records a "
                f"commit — replay diverged"
            )
        version += 1
        replayed += 1
        if version != record.payload["version"]:
            raise JournalError(
                f"replay version {version} != journaled version "
                f"{record.payload['version']} for update {update_id}"
            )
        if (
            list(report.inserted_ids) != record.payload["inserted_ids"]
            or list(report.deleted_ids) != record.payload["deleted_ids"]
        ):
            raise JournalError(
                f"replay of update {update_id} touched different "
                f"database ids than the journaled commit — replay diverged"
            )
        head = _freeze_head(midas, version)
        digest = snapshot_digest(head)
        if digest != record.payload["head_digest"]:
            raise JournalError(
                f"replayed head digest mismatch at update {update_id}: "
                f"{digest[:12]} != journaled "
                f"{record.payload['head_digest'][:12]}"
            )
        last_digest = digest

    head = _freeze_head(midas, version)
    if not last_digest:
        last_digest = snapshot_digest(head)
    if verify:
        failures = verify_head_against_fresh_oracle(head, midas)
        if failures:
            raise JournalError(
                "recovered head failed the fresh-oracle cross-check: "
                + "; ".join(failures)
            )

    pending = [
        (update_id, update_from_record(submitted[update_id]))
        for update_id in sorted(journal.unresolved_ids())
        if update_id in submitted
    ]
    elapsed = time.perf_counter() - started
    registry.counter("journal.recoveries").add(1)
    registry.counter("journal.records_replayed").add(len(records))
    registry.histogram("journal.recovery_ms").record(elapsed * 1000.0)
    return RecoveredState(
        midas=midas,
        head=head,
        head_version=version,
        head_digest=last_digest,
        checkpoint=checkpoint,
        statuses=statuses,
        pending=pending,
        next_update_id=max_update_id + 1,
        replayed_commits=replayed,
        records_scanned=len(records),
        recovery_seconds=elapsed,
        journal=journal,
    )


__all__ = [
    "RecoveredState",
    "recover",
    "verify_head_against_fresh_oracle",
]
