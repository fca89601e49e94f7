"""E-FIG16 — scalability (paper Figure 16, Exp 4).

The paper grows PubChem to {200K, 450K, 950K} graphs, adds 50K to each,
and reports PMT and PGT versus dataset size, pattern quality ranges,
μ relative to the smallest dataset's pattern set, and the headline
speedups: cluster maintenance 642× and PMT 83× faster than CATAPULT
from scratch at 1M graphs.

Reproduced on a scaled series with a proportional batch; each row also
measures the from-scratch CATAPULT++ reference so the table prints the
cluster-maintenance and PMT speedups directly.
"""

from __future__ import annotations

from ...datasets import random_insertions
from ...midas import Midas, from_scratch
from ...patterns import pattern_set_quality
from ...workload import (
    balanced_query_set,
    compare_step_reduction,
    evaluate_patterns,
)
from ..common import DEFAULT_SCALE, ExperimentScale, dataset, default_config
from ..harness import ExperimentTable

SIZE_SERIES = (80, 160, 320)
BATCH_SIZE = 40


def run(
    scale: ExperimentScale = DEFAULT_SCALE,
    sizes: tuple[int, ...] = SIZE_SERIES,
    batch_size: int = BATCH_SIZE,
) -> ExperimentTable:
    table = ExperimentTable(
        title=(
            "Fig 16 — scalability: PMT/PGT [s], speedups vs from-scratch, "
            "quality, μ vs smallest"
        ),
        columns=[
            "|D|",
            "pmt",
            "pgt",
            "cluster_speedup",
            "pmt_speedup",
            "scov",
            "div",
            "mu_vs_smallest",
        ],
    )
    smallest_result = None
    for size in sizes:
        config = default_config(scale)
        base = dataset("pubchem", size, scale.seed)
        update = random_insertions(
            base, 100.0 * batch_size / size, None, seed=scale.seed + 5
        )
        midas = Midas.bootstrap(base, config)
        report = midas.apply_update(update)
        _, scratch_phases, _ = from_scratch(
            base, update, config, plus_plus=True
        )
        scratch_cluster = scratch_phases["mining"] + scratch_phases["clustering"]
        own_cluster = max(report.cluster_maintenance_seconds, 1e-9)
        quality = pattern_set_quality(midas.patterns, midas.oracle)
        queries = balanced_query_set(
            midas.database,
            report.inserted_ids,
            count=scale.queries,
            size_range=scale.query_sizes,
            seed=scale.seed + 51,
        )
        own_result = evaluate_patterns(
            f"midas@{size}", midas.pattern_graphs(), queries
        )
        if smallest_result is None:
            smallest_result = (midas.pattern_graphs(), queries)
            mu = 0.0
        else:
            smallest_on_these = evaluate_patterns(
                "smallest", smallest_result[0], queries
            )
            # μ < 0 means the larger dataset's pattern set needs fewer
            # steps (paper reports negative μ for larger datasets).
            mu = compare_step_reduction(own_result, smallest_on_these)
        pmt = max(report.pattern_maintenance_seconds, 1e-9)
        table.add_row(
            size,
            report.pattern_maintenance_seconds,
            report.pattern_generation_seconds,
            scratch_cluster / own_cluster,
            sum(scratch_phases.values()) / pmt,
            quality["scov"],
            quality["div"],
            mu,
        )
    table.add_note(
        "paper shape: PMT/PGT grow with |D|; cluster maintenance and PMT "
        "speedups over from-scratch grow with |D| (642x / 83x at 1M); "
        "μ vs smallest is negative (larger DS yields better patterns)"
    )
    return table
