"""The measured process of the evolve workload.

Drives the maintainer only through ``repro.api`` in process.  An
untraced run is ``SETUPS`` parts, each its own process with its own
hash seed: after imports a part generates the run's inputs, bootstraps
once (``setup_s`` is the median over the parts), then applies its slice
of the fixed batch sequence, timing each ``repro.api.maintain`` round;
rounds are pooled over the parts.  After each committed round it
publishes the panel as ``repro.serve`` does (``build_snapshot``) and
reads it in process: ``visible_s`` runs from the start of the round to
the first read of the new version.

With ``--trace 1`` it makes one untraced pass (for the overhead ratio),
one from-scratch CATAPULT++ run on the final database (for the PMT
speed-up), then one pass with the layer wrappers installed.

Run through ``perfbench/run.py``, which sets the hash seed and threads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time

from repro import api
from repro.graph.database import BatchUpdate
from repro.obs import get_registry, metrics_snapshot, reset_all
from repro.patterns.metrics import CoverageOracle, pattern_set_quality
from repro.serve.snapshot import SnapshotStore, build_snapshot

import common
import inputs
import tracing

def freeze(midas, version: int):
    return build_snapshot(
        version,
        ((p.pattern_id, p.graph, p.provenance) for p in midas.patterns),
        midas.oracle,
        database_size=len(midas.database),
    )


def read_panel(store: SnapshotStore) -> int:
    """Read the panel as ``GET /patterns`` would, from a pinned snapshot;
    returns the version read."""
    with store.pin() as lease:
        json.dumps(lease.snapshot.to_dict(include_graphs=True), sort_keys=True)
        return lease.snapshot.version


def run_rounds(midas, plan: inputs.BatchPlan) -> dict:
    """Apply the plan's batch sequence, then a closing round that deletes
    the last family, so every part ends on the base database; time
    rounds and visibility."""
    store = SnapshotStore()
    store.publish(freeze(midas, 1))
    rounds, visible, kinds = [], [], []
    failed = 0
    previous_family: list[int] = []
    for insertions in plan.insertions + [[]]:
        batch = BatchUpdate.of(insertions=insertions, deletions=previous_family)
        gc.collect()
        started = time.perf_counter()
        report = api.maintain(midas, batch)
        finished = time.perf_counter()
        if report.aborted:
            failed += 1
            continue
        version = store.version + 1
        store.publish(freeze(midas, version))
        if read_panel(store) != version:
            raise AssertionError("published version not visible")
        visible.append(time.perf_counter() - started)
        rounds.append(finished - started)
        kinds.append(report.classification.kind.value)
        previous_family = list(report.inserted_ids)
    return {
        "rounds": rounds,
        "visible": visible,
        "kinds": kinds,
        "failed": failed,
    }


def check(midas, plan: inputs.BatchPlan, outcome: dict) -> tuple[list[str], dict]:
    """Correctness of the final state; returns (problems, quality)."""
    problems = []
    graphs = midas.pattern_graphs()
    problems += common.budget_violations(graphs, plan.config.budget)
    if any(kind != "major" for kind in outcome["kinds"]):
        problems.append(f"round classes {outcome['kinds']} are not all major")
    if outcome["failed"]:
        problems.append(f"{outcome['failed']} rounds aborted")
    sample = {gid: midas.database[gid] for gid in midas.sampler.sample_ids}
    fresh = CoverageOracle(sample)
    for graph in graphs:
        if fresh.cover(graph) != midas.oracle.cover(graph):
            problems.append("maintained cover differs from a full scan")
            break
    if fresh.set_scov(graphs) != midas.oracle.set_scov(graphs):
        problems.append("maintained scov differs from a full scan")
    quality = pattern_set_quality(midas.patterns, fresh)
    return problems, quality


def bootstrap(plan: inputs.BatchPlan):
    gc.collect()
    started = time.perf_counter()
    midas = api.bootstrap(plan.base, config=plan.config)
    return midas, time.perf_counter() - started


def part(plan: inputs.BatchPlan) -> dict:
    """One part of an untraced run: a bootstrap, then the part's rounds.

    Returns raw samples; ``common.combine_parts`` turns the parts of a
    run into its metrics.
    """
    midas, setup_s = bootstrap(plan)
    bootstrap_digest = common.panel_digest(midas.pattern_graphs())
    outcome = run_rounds(midas, plan)
    problems, quality = check(midas, plan, outcome)
    return {
        "setup_s": setup_s,
        "round_s": outcome["rounds"],
        "visible_s": outcome["visible"],
        "peak_rss_mb": common.peak_rss_mb_self(),
        "panel_scov": quality["scov"],
        "panel_score": quality["score"],
        "classes": outcome["kinds"],
        "bootstrap_digest": bootstrap_digest,
        "panel_digest": common.panel_digest(midas.pattern_graphs()),
        "quality": quality,
        "problems": problems,
        "attempted": len(outcome["rounds"]) + outcome["failed"],
        "failed": outcome["failed"],
    }


def traced(plan: inputs.BatchPlan, out_dir: str) -> tuple[dict, dict]:
    # Untraced pass, then CATAPULT++ from scratch on its final database.
    midas, _ = bootstrap(plan)
    plain = run_rounds(midas, plan)
    plain_round = statistics.fmean(plain["rounds"])
    gc.collect()
    started = time.perf_counter()
    api.select(midas.database.copy(), config=plan.config)
    scratch_s = time.perf_counter() - started

    clock = tracing.LayerClock()
    clock.install()
    try:
        reset_all()
        midas, _ = bootstrap(plan)
        outcome = run_rounds(midas, plan)
    finally:
        clock.uninstall()
    traced_round = statistics.fmean(outcome["rounds"])
    problems, quality = check(midas, plan, outcome)
    unfired = clock.unfired(tracing.MUST_FIRE + tracing.MUST_FIRE_SWAP)
    if unfired:
        problems.append(f"wrappers never fired: {unfired}")
    metrics = tracing.empty_metrics()
    metrics.update(clock.metrics())
    metrics.update(tracing.obs_metrics(get_registry().counter_values()))
    metrics["obs.trace_overhead"] = traced_round / plain_round
    metrics["midas.pmt_speedup"] = scratch_s / plain_round
    common.write_json(out_dir, "layers.json", {
        "workload": "evolve",
        "per_layer": clock.table(),
        "bindings": dict(clock.binding_calls),
        "layer_map": tracing.LAYER_MAP,
        "metrics": metrics,
        "untraced_round_s": plain["rounds"],
        "traced_round_s": outcome["rounds"],
        "catapult_from_scratch_s": scratch_s,
    })
    common.write_json(out_dir, "obs.json", metrics_snapshot())
    record = {
        "classes": outcome["kinds"],
        "panel_digest": common.panel_digest(midas.pattern_graphs()),
        "quality": quality,
        "problems": problems,
        "attempted": 2 * len(outcome["rounds"]) + outcome["failed"] + plain["failed"],
        "failed": outcome["failed"] + plain["failed"],
    }
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("evolve",), default="evolve")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    plan = inputs.evolve_plan(args.seed, args.seconds)
    context = {
        "workload": "evolve",
        "seed": args.seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "execution": common.execution_record(plan.config),
        "trace": args.trace,
    }
    if args.trace:
        metrics, record = traced(plan, args.out)
        record.update(plan.describe(), **context)
        common.write_json(args.out, "run.json", record)
        for problem in record["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
        common.emit(
            not record["problems"] and record["failed"] == 0,
            record["attempted"],
            record["failed"],
            metrics,
        )
        return 0
    piece = plan.part(args.part, common.SETUPS)
    record = part(piece)
    record.update(piece.describe(), part=args.part, **context)
    common.write_json(args.out, f"run-part{args.part}.json", record)
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(record, default=str), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
