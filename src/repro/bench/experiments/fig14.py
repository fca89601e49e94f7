"""E-FIG14 — MIDAS vs CATAPULT / CATAPULT++ / Random on AIDS-like data
(paper Figure 14, Exp 3b).

Across the batch grid the paper reports: MIDAS's maintenance time is
comparable to Random (the fastest) and up to an order of magnitude
faster than from-scratch CATAPULT; MIDAS's pattern quality matches or
beats the from-scratch selectors; MIDAS has the lowest MP and wins the
μ step-reduction comparison; multi-scan swapping beats random swapping.

Each grid row bootstraps fresh state, applies the batch under every
approach and evaluates on one shared balanced query set.
"""

from __future__ import annotations

from ...midas import Midas, RandomSwapMaintainer, from_scratch
from ...patterns import PatternSet, pattern_set_quality
from ...workload import (
    balanced_query_set,
    compare_step_reduction,
    evaluate_patterns,
)
from ..common import (
    DEFAULT_SCALE,
    ExperimentScale,
    batch_grid,
    dataset,
    default_config,
)
from ..harness import ExperimentTable


def _quality(patterns, oracle):
    pattern_set = PatternSet()
    for graph in patterns:
        try:
            pattern_set.add(graph, "eval")
        except ValueError:
            continue
    return pattern_set_quality(pattern_set, oracle)


def run(
    scale: ExperimentScale = DEFAULT_SCALE, profile_name: str = "aids"
) -> ExperimentTable:
    config = default_config(scale)
    base = dataset(profile_name, scale.base_graphs, scale.seed)
    table = ExperimentTable(
        title=(
            f"Fig {'14' if profile_name == 'aids' else '15'} — baselines on "
            f"{profile_name}-like: time [s], MP %, μ vs MIDAS, quality"
        ),
        columns=[
            "batch",
            "approach",
            "time_s",
            "mp_percent",
            "mu_vs_midas",
            "scov",
            "lcov",
            "div",
            "cog",
        ],
    )
    for batch_name, update in batch_grid(base, scale, profile_name):
        midas = Midas.bootstrap(base, config)
        random_maintainer = RandomSwapMaintainer(
            config,
            base.copy(),
            _clone_state(midas, base, config),
        )
        midas_report = midas.apply_update(update)
        random_report = random_maintainer.apply_update(update)
        catapult_patterns, catapult_phases, _ = from_scratch(
            base, update, config, plus_plus=False
        )
        catapult_pp_patterns, catapult_pp_phases, _ = from_scratch(
            base, update, config, plus_plus=True
        )
        queries = balanced_query_set(
            midas.database,
            midas_report.inserted_ids,
            count=scale.queries,
            size_range=scale.query_sizes,
            seed=scale.seed + 41,
        )
        rows = {
            "midas": (
                midas.pattern_graphs(),
                midas_report.pattern_maintenance_seconds,
            ),
            "random": (
                random_maintainer.pattern_graphs(),
                random_report.pattern_maintenance_seconds,
            ),
            "catapult": (
                [p.graph for p in catapult_patterns],
                sum(catapult_phases.values()),
            ),
            "catapult++": (
                [p.graph for p in catapult_pp_patterns],
                sum(catapult_pp_phases.values()),
            ),
        }
        midas_result = evaluate_patterns(
            "midas", rows["midas"][0], queries
        )
        for approach, (patterns, seconds) in rows.items():
            workload = (
                midas_result
                if approach == "midas"
                else evaluate_patterns(approach, patterns, queries)
            )
            quality = _quality(patterns, midas.oracle)
            mu = compare_step_reduction(workload, midas_result)
            table.add_row(
                batch_name,
                approach,
                seconds,
                workload.missed_percentage,
                mu,
                quality["scov"],
                quality["lcov"],
                quality["div"],
                quality["cog"],
            )
    table.add_note(
        "paper shape: MIDAS time ~ Random << CATAPULT; MIDAS lowest MP, "
        "μ ≥ 0 against every baseline, quality comparable or better"
    )
    return table


def _clone_state(midas: Midas, base, config):
    """Independent bootstrap state for the Random baseline."""
    from ..common import _result_of

    fresh = Midas.bootstrap(base, config)
    return _result_of(fresh)
