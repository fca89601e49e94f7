"""PERF — parallel-kernel determinism.

Not a paper figure: this driver validates the performance layer the
reproduction adds on top of MIDAS (``repro.parallel``) and reports its
effect in one table.

The pairwise-GED matrix is computed serially and then through real
forked worker pools (2 and 4 workers).  Any divergence is a hard
failure — the driver raises, ``repro bench`` reports the figure as
FAILED and exits non-zero, which is what the scheduled CI job keys on.

Speedups are wall-clock and machine-dependent: on a single-core runner
the worker pools show overhead rather than speedup (the determinism
guarantee is what is being exercised).
"""

from __future__ import annotations

import time

from ...obs import get_registry
from ...parallel.kernels import pairwise_ged_matrix
from ...parallel.pool import KernelPool
from ..common import DEFAULT_SCALE, ExperimentScale, dataset
from ..harness import ExperimentTable

#: GED method for the matrix: the most expensive rung the maintainer uses
#: without exact search.
GED_METHOD = "beam"

WORKER_COUNTS = (2, 4)


def _graph_subset(scale: ExperimentScale, profile_name: str):
    database = dataset(profile_name, scale.base_graphs, scale.seed)
    count = max(8, min(16, scale.base_graphs // 5))
    items = sorted(database.items())[:count]
    return [graph for _, graph in items]


def run(
    scale: ExperimentScale = DEFAULT_SCALE, profile_name: str = "pubchem"
) -> ExperimentTable:
    graphs = _graph_subset(scale, profile_name)
    pair_count = len(graphs) * (len(graphs) - 1) // 2
    table = ExperimentTable(
        title=(
            f"Perf — {len(graphs)} {profile_name}-like graphs, "
            f"{pair_count} GED pairs ({GED_METHOD}): determinism"
        ),
        columns=["workload", "mode", "time_s", "speedup", "status"],
    )

    # An explicit pool (not the ambient one) so the serial baseline stays
    # serial even when the CLI installed a shared worker pool.
    mismatches = []
    fanout_times = []
    start = time.perf_counter()
    serial = pairwise_ged_matrix(graphs, method=GED_METHOD, pool=KernelPool(1))
    serial_s = time.perf_counter() - start
    table.add_row("ged_matrix", "serial", serial_s, 1.0, "baseline")
    for workers in WORKER_COUNTS:
        # force=True: real forked workers even under pytest.
        with KernelPool(workers, force=True) as pool:
            start = time.perf_counter()
            result = pairwise_ged_matrix(graphs, method=GED_METHOD, pool=pool)
            elapsed = time.perf_counter() - start
        identical = result == serial
        if not identical:
            mismatches.append(workers)
        fanout_times.append(elapsed)
        table.add_row(
            "ged_matrix",
            f"workers={workers}",
            elapsed,
            serial_s / elapsed if elapsed else float("inf"),
            "identical" if identical else "MISMATCH",
        )
    # Wall-clock trend record for the scheduled perf run: serial vs the
    # best persistent-worker fan-out (docs/OBSERVABILITY.md).
    registry = get_registry()
    registry.gauge("parallel.trend.ged_serial_seconds").set(serial_s)
    registry.gauge("parallel.trend.ged_fanout_seconds").set(
        min(fanout_times) if fanout_times else serial_s
    )

    table.add_note(
        "speedups are wall-clock; on a 1-core runner the worker pools show "
        "overhead, not speedup — the determinism columns are the contract"
    )
    if mismatches:
        raise RuntimeError(
            f"perf figure failed: parallel mismatches at workers={mismatches}"
        )
    return table


__all__ = ["GED_METHOD", "run"]
