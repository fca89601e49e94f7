"""E-FIG11 — threshold sensitivity (paper Figure 11, Exp 1).

The paper varies the evolution ratio threshold ε and the swapping
thresholds κ = λ on AIDS25K with a +5K batch, reporting pattern
maintenance time (PMT), clustering time and quality, and comparing
against CATAPULT++ from scratch (MIDAS is up to two orders of magnitude
faster in PMT).

Reproduced on an AIDS-like base with a proportional batch.  Each ε row
re-runs one maintenance round with the threshold; the ε values sweep
around the scaled default (the synthetic GFDs are more stable than the
paper's datasets, hence the smaller absolute values — see MidasConfig).
"""

from __future__ import annotations

from ...datasets import random_insertions
from ...midas import Midas, from_scratch
from ...patterns import pattern_set_quality
from ..common import ExperimentScale, DEFAULT_SCALE, dataset, default_config
from ..harness import ExperimentTable

EPSILON_SWEEP = (0.0005, 0.001, 0.002, 0.004)
KAPPA_SWEEP = (0.05, 0.1, 0.2, 0.4)


def run(scale: ExperimentScale = DEFAULT_SCALE) -> tuple[ExperimentTable, ExperimentTable]:
    base = dataset("aids", scale.base_graphs, scale.seed)
    update = random_insertions(
        base, scale.batch_percent, None, seed=scale.seed + 1
    )

    epsilon_table = ExperimentTable(
        title="Fig 11a — varying ε: PMT [s], cluster time [s], major?, quality",
        columns=["epsilon", "pmt", "cluster_time", "major", "scov", "div", "cog"],
    )
    for epsilon in EPSILON_SWEEP:
        config = default_config(scale, epsilon=epsilon)
        midas = Midas.bootstrap(base, config)
        report = midas.apply_update(update)
        quality = pattern_set_quality(midas.patterns, midas.oracle)
        epsilon_table.add_row(
            epsilon,
            report.pattern_maintenance_seconds,
            report.cluster_maintenance_seconds,
            int(report.is_major),
            quality["scov"],
            quality["div"],
            quality["cog"],
        )
    # The from-scratch CATAPULT++ reference the PMT speedup is against.
    _, scratch_phases, _ = from_scratch(
        base, update, default_config(scale), plus_plus=True
    )
    epsilon_table.add_note(
        f"CATAPULT++ from scratch: {sum(scratch_phases.values()):.2f}s total "
        f"({scratch_phases['clustering'] + scratch_phases['mining']:.2f}s "
        "mining+clustering) — paper: MIDAS up to two orders faster in PMT"
    )

    kappa_table = ExperimentTable(
        title="Fig 11b — varying κ=λ: PMT [s], PGT [s], swaps, scov",
        columns=["kappa", "pmt", "pgt", "swaps", "scov"],
    )
    for kappa in KAPPA_SWEEP:
        config = default_config(scale, kappa=kappa, lambda_=kappa)
        midas = Midas.bootstrap(base, config)
        report = midas.apply_update(update)
        quality = pattern_set_quality(midas.patterns, midas.oracle)
        kappa_table.add_row(
            kappa,
            report.pattern_maintenance_seconds,
            report.pattern_generation_seconds,
            report.num_swaps,
            quality["scov"],
        )
    kappa_table.add_note(
        "paper shape: PMT/PGT largely flat in κ; κ=λ=0.1 is the default"
    )
    return epsilon_table, kappa_table
