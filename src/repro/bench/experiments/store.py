"""Store — out-of-core SQLite backend vs the in-memory store at scale.

Not a paper figure: this driver validates the pluggable storage layer
(:mod:`repro.store`).  It answers two questions the unit suite cannot:

1. **Identity at scale.**  The same synthetic graph stream — bootstrap
   ingest plus :data:`NUM_ROUNDS` ±:data:`ROUND_PERCENT`% maintenance
   rounds — is driven through both backends and a per-round digest
   (graph count, next id, vertex/edge totals, label alphabet) must be
   byte-identical.  Any divergence raises (``repro bench`` reports
   FAILED and exits non-zero).
2. **Bounded memory.**  The SQLite backend exists so a repository larger
   than RAM stays maintainable.  Its traced peak must stay under
   ``REPRO_STORE_MEM_CEILING_MB`` (default :data:`DEFAULT_CEILING_MB`
   MiB) while the in-memory column reports whatever it actually costs —
   the gap between the two columns *is* the figure.

The workload is store-level, not a full MIDAS trajectory: at
``--scale large`` the stream is ``400 × 250 = 100 000`` graphs
(the paper's 10⁵ repository tier), far beyond what the scaled-down
selection pipeline is meant to chew through, and the storage layer is
what is under test here.  Batches go through the public
:meth:`~repro.store.base.GraphStore.apply_batch` path so journaling
and cache eviction are both exercised.
Results land in ``BENCH_store.json`` (override with
``REPRO_STORE_BENCH_OUT``) for the scheduled CI artifact.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import time
import tracemalloc
from pathlib import Path

from ...datasets import MoleculeGenerator, aids_profile
from ...graph.database import BatchUpdate, GraphDatabase
from ...store.sqlite import SQLiteStore
from ..common import DEFAULT_SCALE, ExperimentScale
from ..harness import ExperimentTable

#: Graphs per ``scale.base_graphs`` unit: ``small`` → 20 000 graphs,
#: ``large`` → 100 000 — the 10⁵ acceptance tier.
GRAPHS_PER_UNIT = 250

#: Maintenance rounds applied after the bootstrap ingest.
NUM_ROUNDS = 5

#: Each round deletes and inserts this percentage of the repository.
ROUND_PERCENT = 1.0

#: Bootstrap ingest batch size (one ``apply_batch`` call per chunk, so
#: the out-of-core backend never has to hold the full stream).
CHUNK = 2000

#: Default SQLite peak-memory ceiling in MiB
#: (``REPRO_STORE_MEM_CEILING_MB`` overrides).
DEFAULT_CEILING_MB = 512


def _digest(store) -> tuple:
    """Cheap whole-store fingerprint comparable across backends."""
    return (
        len(store),
        store.next_graph_id(),
        store.total_vertices(),
        store.total_edges(),
        tuple(sorted(store.vertex_label_alphabet())),
    )


def _stream(seed: int):
    """The deterministic synthetic graph stream, regenerated per backend."""
    return MoleculeGenerator(aids_profile(), seed)


def _round_batch(store, generator, rng: random.Random) -> BatchUpdate:
    """A ±ROUND_PERCENT% round against the store's *current* contents."""
    ids = store.ids()
    count = max(1, int(len(ids) * ROUND_PERCENT / 100.0))
    deletions = sorted(rng.sample(ids, min(count, len(ids))))
    insertions = [generator.generate() for _ in range(count)]
    return BatchUpdate.of(insertions=insertions, deletions=deletions)


def _run_backend(
    backend: str, scale: ExperimentScale, workdir: Path
) -> dict:
    count = scale.base_graphs * GRAPHS_PER_UNIT
    if backend == "memory":
        store = GraphDatabase()
    else:
        store = SQLiteStore(workdir / "store.db", fsync="never")
    generator = _stream(scale.seed)
    rng = random.Random(scale.seed + 1)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        pending: list = []
        for _ in range(count):
            pending.append(generator.generate())
            if len(pending) >= CHUNK:
                store.apply_batch(BatchUpdate.of(insertions=pending))
                pending = []
        if pending:
            store.apply_batch(BatchUpdate.of(insertions=pending))
        bootstrap_s = time.perf_counter() - start

        digests = [_digest(store)]
        start = time.perf_counter()
        for _ in range(NUM_ROUNDS):
            store.apply_batch(_round_batch(store, generator, rng))
            digests.append(_digest(store))
        rounds_s = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        store.close()
    return {
        "backend": backend,
        "graphs": count,
        "bootstrap_s": bootstrap_s,
        "rounds_s": rounds_s,
        "peak_mb": peak / (1024 * 1024),
        "digests": digests,
    }


def run(scale: ExperimentScale = DEFAULT_SCALE) -> ExperimentTable:
    ceiling_mb = float(
        os.environ.get("REPRO_STORE_MEM_CEILING_MB", DEFAULT_CEILING_MB)
    )
    results = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        for backend in ("memory", "sqlite"):
            results.append(_run_backend(backend, scale, Path(tmp)))
    memory, sqlite = results

    identical = memory["digests"] == sqlite["digests"]
    within_ceiling = sqlite["peak_mb"] <= ceiling_mb

    table = ExperimentTable(
        title=(
            f"Store — in-memory vs SQLite out-of-core backend, "
            f"{memory['graphs']} graphs, bootstrap + {NUM_ROUNDS} "
            f"±{ROUND_PERCENT:.0f}% rounds"
        ),
        columns=["measure", "memory", "sqlite", "ratio", "status"],
    )
    table.add_row(
        "bootstrap_s",
        round(memory["bootstrap_s"], 2),
        round(sqlite["bootstrap_s"], 2),
        (
            sqlite["bootstrap_s"] / memory["bootstrap_s"]
            if memory["bootstrap_s"]
            else float("inf")
        ),
        "informational",
    )
    table.add_row(
        "rounds_s",
        round(memory["rounds_s"], 2),
        round(sqlite["rounds_s"], 2),
        (
            sqlite["rounds_s"] / memory["rounds_s"]
            if memory["rounds_s"]
            else float("inf")
        ),
        "informational",
    )
    table.add_row(
        "peak_mb",
        round(memory["peak_mb"], 1),
        round(sqlite["peak_mb"], 1),
        (
            sqlite["peak_mb"] / memory["peak_mb"]
            if memory["peak_mb"]
            else float("inf")
        ),
        (
            f"<= {ceiling_mb:.0f} MiB ceiling"
            if within_ceiling
            else "OVER_CEILING"
        ),
    )
    table.add_row(
        "trajectory",
        len(memory["digests"]),
        len(sqlite["digests"]),
        1.0,
        "identical" if identical else "MISMATCH",
    )
    table.add_note(
        "digest = (count, next id, vertices, edges, alphabet) per round; "
        "SQLite peak alone is gated by REPRO_STORE_MEM_CEILING_MB"
    )

    out = Path(os.environ.get("REPRO_STORE_BENCH_OUT", "BENCH_store.json"))
    payload = {
        "figure": "store",
        "graphs": memory["graphs"],
        "rounds": NUM_ROUNDS,
        "round_percent": ROUND_PERCENT,
        "ceiling_mb": ceiling_mb,
        "identical_trajectory": identical,
        "backends": [
            {key: value for key, value in result.items() if key != "digests"}
            for result in results
        ],
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    table.add_note(f"written to {out}")

    if not identical:
        raise RuntimeError(
            "store figure failed: SQLite trajectory diverged from the "
            "in-memory backend (digest mismatch)"
        )
    if not within_ceiling:
        raise RuntimeError(
            "store figure failed: SQLite backend peaked at "
            f"{sqlite['peak_mb']:.1f} MiB, over the {ceiling_mb:.0f} MiB "
            "ceiling (REPRO_STORE_MEM_CEILING_MB)"
        )
    return table


__all__ = [
    "CHUNK",
    "DEFAULT_CEILING_MB",
    "GRAPHS_PER_UNIT",
    "NUM_ROUNDS",
    "ROUND_PERCENT",
    "run",
]
