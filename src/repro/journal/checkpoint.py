"""Snapshot checkpoints: bound replay to the records after a checkpoint.

A checkpoint file (``ckpt-00000003.bin``) captures the full maintained
state — the pickled :class:`~repro.midas.maintainer.Midas` — plus the
metadata recovery needs to resume:

* ``version`` — the published snapshot head when the checkpoint was cut;
* ``last_update_id`` — every update with id ≤ this is already folded
  into the state (the single-writer loop resolves updates strictly in
  submission order, so one high-water mark suffices);
* ``next_update_id`` — seeds the id counter so re-submitted and new
  updates never collide with journaled ones.

Layout: one CRC-framed JSON meta header (same framing as journal
records) followed by the raw pickle bytes, whose own CRC and length are
recorded in the header.  Files are written to a temp name, fsynced,
then atomically renamed — a crash mid-checkpoint leaves the previous
checkpoint intact, and :func:`load_latest_checkpoint` falls back past
any checkpoint that fails validation.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from ..exceptions import JournalError
from ..obs import get_registry
from ..resilience.faults import trip

CHECKPOINT_PATTERN = re.compile(r"^ckpt-(\d{8})\.bin$")

#: Older checkpoints beyond this many are deleted after a new one lands.
CHECKPOINT_RETENTION = 2

_FRAME_HEADER = struct.Struct(">II")


class _Retired:
    """Stand-in for objects of a module that no longer exists.

    Accepts any constructor arguments and any pickled state, and keeps
    none of it; the reviving owner drops the attribute that held it.
    """

    def __init__(self, *args, **kwargs) -> None:
        pass

    def __setstate__(self, state) -> None:
        pass


class _CheckpointUnpickler(pickle.Unpickler):
    """Revives checkpoints written by earlier versions of the package.

    Maintainers checkpointed with the coverage engine on
    (``repro.covindex``, since deleted) pickle it inside their
    :class:`~repro.patterns.metrics.CoverageOracle`; its globals load as
    :class:`_Retired` and the oracle discards the engine on revival.
    """

    def find_class(self, module: str, name: str):
        if module == "repro.covindex" or module.startswith("repro.covindex."):
            return _Retired
        return super().find_class(module, name)


@dataclass
class Checkpoint:
    """One loaded checkpoint: metadata plus the revived maintainer."""

    checkpoint_id: int
    version: int
    last_update_id: int
    next_update_id: int
    midas: object
    path: Path


def _checkpoint_name(checkpoint_id: int) -> str:
    return f"ckpt-{checkpoint_id:08d}.bin"


def write_checkpoint(
    directory: str | Path,
    *,
    checkpoint_id: int,
    midas,
    version: int,
    last_update_id: int,
    next_update_id: int,
) -> Path:
    """Durably write one checkpoint; atomic against crashes."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    state = pickle.dumps(midas, protocol=pickle.HIGHEST_PROTOCOL)
    meta = {
        "type": "checkpoint",
        "checkpoint_id": checkpoint_id,
        "version": version,
        "last_update_id": last_update_id,
        "next_update_id": next_update_id,
        "state_len": len(state),
        "state_crc": zlib.crc32(state),
    }
    body = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    buffer = io.BytesIO()
    buffer.write(_FRAME_HEADER.pack(len(body), zlib.crc32(body)))
    buffer.write(body)
    buffer.write(state)
    target = directory / _checkpoint_name(checkpoint_id)
    temporary = directory / (target.name + ".tmp")
    with temporary.open("wb") as handle:
        handle.write(buffer.getvalue())
        handle.flush()
        os.fsync(handle.fileno())
    trip("journal.checkpoint")
    os.replace(temporary, target)
    registry = get_registry()
    registry.counter("journal.checkpoints").add(1)
    registry.gauge("journal.checkpoint_bytes").set(len(state))
    _retire_old_checkpoints(directory)
    return target


def _retire_old_checkpoints(directory: Path) -> None:
    paths = sorted(
        path
        for path in directory.iterdir()
        if CHECKPOINT_PATTERN.match(path.name)
    )
    for path in paths[:-CHECKPOINT_RETENTION]:
        path.unlink(missing_ok=True)


def _load_one(path: Path) -> Checkpoint:
    data = path.read_bytes()
    if len(data) < _FRAME_HEADER.size:
        raise JournalError(f"checkpoint {path.name} is truncated")
    length, crc = _FRAME_HEADER.unpack_from(data, 0)
    body_end = _FRAME_HEADER.size + length
    body = data[_FRAME_HEADER.size:body_end]
    if len(body) != length or zlib.crc32(body) != crc:
        raise JournalError(f"checkpoint {path.name} header fails its CRC")
    meta = json.loads(body.decode("utf-8"))
    state = data[body_end:]
    if len(state) != meta["state_len"] or (
        zlib.crc32(state) != meta["state_crc"]
    ):
        raise JournalError(f"checkpoint {path.name} state fails its CRC")
    midas = _CheckpointUnpickler(io.BytesIO(state)).load()
    return Checkpoint(
        checkpoint_id=meta["checkpoint_id"],
        version=meta["version"],
        last_update_id=meta["last_update_id"],
        next_update_id=meta["next_update_id"],
        midas=midas,
        path=path,
    )


def load_latest_checkpoint(directory: str | Path) -> Checkpoint | None:
    """Load the newest validating checkpoint; ``None`` when none exists.

    A checkpoint that fails validation (torn temp promoted by a buggy
    filesystem, partial write, unpicklable state) is skipped with a
    counter bump and the next-newest is tried — the retention window
    exists precisely so one bad file cannot strand recovery.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    paths = sorted(
        (
            path
            for path in directory.iterdir()
            if CHECKPOINT_PATTERN.match(path.name)
        ),
        reverse=True,
    )
    for path in paths:
        try:
            return _load_one(path)
        except (JournalError, OSError, pickle.UnpicklingError, EOFError,
                KeyError, ValueError):
            get_registry().counter("journal.checkpoint_fallbacks").add(1)
            continue
    return None


__all__ = [
    "CHECKPOINT_PATTERN",
    "CHECKPOINT_RETENTION",
    "Checkpoint",
    "load_latest_checkpoint",
    "write_checkpoint",
]
