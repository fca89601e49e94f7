"""Helpers shared by the benchmark processes: seeds, statistics, output.

Imports nothing from the program at module level, so the launcher can
use it too.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import sys
import zlib
from dataclasses import asdict

#: Times each run sets the system up, each in its own process with its
#: own hash seed; ``setup_s`` is their median.
SETUPS = 3


def hash_seed(workload: str, seed: int, part: int) -> str:
    """``PYTHONHASHSEED`` of one measured process of a run."""
    return str(zlib.crc32(f"hash:{workload}:{seed}:{part}".encode("utf-8")))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def panel_digest(graphs) -> str:
    """Order-free digest of a panel: its patterns' canonical certificates."""
    from repro.graph.canonical import canonical_certificate

    certificates = sorted(repr(canonical_certificate(g)) for g in graphs)
    return hashlib.sha256("\n".join(certificates).encode("utf-8")).hexdigest()[:16]


def budget_violations(graphs, budget) -> list[str]:
    """Ways *graphs* break the pattern budget's γ and η bounds."""
    problems = []
    if not graphs or len(graphs) > budget.gamma:
        problems.append(f"{len(graphs)} patterns outside 1..gamma={budget.gamma}")
    for graph in graphs:
        if not budget.eta_min <= graph.num_edges <= budget.eta_max:
            problems.append(
                f"pattern with {graph.num_edges} edges outside "
                f"eta [{budget.eta_min}, {budget.eta_max}]"
            )
    return problems


def execution_record(config) -> dict:
    """The effective ExecutionConfig a run used (defaults when unset)."""
    from repro.execution import ExecutionConfig

    return asdict(getattr(config, "execution", None) or ExecutionConfig())


def peak_rss_mb_self() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_json(directory: str, name: str, payload) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)


def combine_parts(parts: list[dict]) -> dict:
    """An evolve run's result from the raw samples of its parts.

    Round and visibility times are means: every seed applies the same
    batches in another order, and rounds differ by batch, so a median
    lands on different batches from seed to seed while a mean does not.
    """
    rounds = [r for p in parts for r in p["round_s"]]
    visible = [v for p in parts for v in p["visible_s"]]
    return {
        "correct": all(not p["problems"] and not p["failed"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": {
            "setup_s": statistics.median(p["setup_s"] for p in parts),
            "round_s": statistics.fmean(rounds),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
            "panel_scov": statistics.fmean(p["panel_scov"] for p in parts),
            "panel_score": statistics.fmean(p["panel_score"] for p in parts),
            "visible_s": statistics.fmean(visible),
        },
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result as the last line of standard output; ``run.py``
    adds each metric's unit from BENCHMARK.json."""
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: float(value) for name, value in metrics.items()},
    }
    sys.stdout.flush()
    print(json.dumps(payload), flush=True)
