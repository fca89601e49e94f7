"""COVIX — coverage-engine equivalence, VF2 reduction, substrate speedup.

Not a paper figure: this driver validates the filter-then-verify
coverage engine (:mod:`repro.covindex`) the way the perf figure
validates the parallel and cache layers.

Three full MIDAS trajectories — bootstrap plus the paper's modification
grid applied *sequentially* — run from the same seed: engine off,
engine on over the plain-int reference substrate, and engine on over
the vectorized numpy substrate.  After every round the algorithmic
outcome is snapshotted: database IDs, the canonical keys of the
displayed pattern set, the set-level scov/lcov, the batch
classification and the executed swap count.  All traces must be
**identical** — the engine's posting-list filter and VF2 domain seeding
only skip work whose outcome is already decided, and the substrates
are observationally equivalent by construction, so any divergence is a
soundness bug and the driver raises (``repro bench`` reports FAILED and
exits non-zero; the scheduled CI job keys on this).

Two payoff gates:

* ``vf2.cover_calls`` — VF2 matcher invocations spent computing cover
  sets (verification loops plus the FCT prefilter's per-feature
  embedding counts), the work the engine exists to avoid.  The engine
  path must cut it by at least :data:`MIN_VF2_REDUCTION` ×.
* filter-phase wall clock — the ``covindex.filter_ns`` counter divided
  by rounds, per substrate, published as the trend gauges
  ``covindex.trend.filter_ns_per_round_int`` /
  ``covindex.trend.filter_ns_per_round_numpy`` /
  ``covindex.trend.filter_speedup``.  At gate scale
  (``base_graphs >= MIN_GATE_GRAPHS``, i.e. ``--scale large``) the
  numpy substrate must beat the int reference by at least
  :data:`MIN_FILTER_SPEEDUP` ×; below that the row is informational —
  tiny universes fit in a machine word either way and the comparison
  is noise (docs/PERFORMANCE.md).
"""

from __future__ import annotations

from ...cache.keys import graph_key
from ...covindex.bitset import available_substrates, use_substrate
from ...execution import ExecutionConfig
from ...midas import Midas
from ...obs import get_registry
from ...patterns import pattern_set_quality
from ..common import (
    DEFAULT_SCALE,
    ExperimentScale,
    batch_grid,
    dataset,
    default_config,
)
from ..harness import ExperimentTable

#: Minimum acceptable ratio of engine-off to engine-on
#: ``vf2.cover_calls`` over the whole trajectory.  The small-scale
#: workload measures well above this; the gate is the acceptance floor.
MIN_VF2_REDUCTION = 2.0

#: Minimum acceptable int/numpy filter-phase wall-clock-per-round ratio
#: at gate scale.  Below :data:`MIN_GATE_GRAPHS` the comparison is
#: reported but not enforced — sub-word universes make it noise.
MIN_FILTER_SPEEDUP = 2.0

#: Database size from which the filter-speedup gate arms (the ``large``
#: bench scale qualifies; ``small``/``medium`` stay informational).
MIN_GATE_GRAPHS = 400

#: Number of batch-grid rounds applied sequentially.  Each round's grid
#: is regenerated from the maintainer's *current* database so deletions
#: always reference live graph IDs.
NUM_ROUNDS = 4


def _round_signature(midas: Midas) -> tuple:
    """Everything algorithmic about the maintainer's current state."""
    quality = pattern_set_quality(midas.patterns, midas.oracle)
    return (
        tuple(sorted(midas.database.ids())),
        tuple(sorted(graph_key(g) for g in midas.pattern_graphs())),
        quality["scov"],
        quality["lcov"],
    )


def _trajectory(
    scale: ExperimentScale, covindex: bool
) -> tuple[list, dict[str, int]]:
    """Bootstrap + sequential batch grid; returns (trace, counter deltas).

    Engine-on indices are built on the ambient substrate
    (:func:`~repro.covindex.bitset.use_substrate`).
    """
    config = default_config(
        scale, execution=ExecutionConfig(covindex=covindex)
    )
    base = dataset("aids", scale.base_graphs, scale.seed)
    registry = get_registry()
    before = registry.counter_values()
    midas = Midas.bootstrap(base.copy(), config)
    trace: list = [("bootstrap", None, 0, _round_signature(midas))]
    for position in range(NUM_ROUNDS):
        batch_name, update = batch_grid(midas.database, scale, "aids")[
            position
        ]
        report = midas.apply_update(update)
        trace.append(
            (
                batch_name,
                report.is_major,
                report.num_swaps,
                _round_signature(midas),
                tuple(report.inserted_ids),
                tuple(report.deleted_ids),
            )
        )
    return trace, registry.counter_deltas(before)


def run(scale: ExperimentScale = DEFAULT_SCALE) -> ExperimentTable:
    rounds = NUM_ROUNDS + 1  # bootstrap counts: it filters too
    numpy_available = "numpy" in available_substrates()

    off_trace, off_counters = _trajectory(scale, covindex=False)
    with use_substrate("int"):
        int_trace, int_counters = _trajectory(scale, covindex=True)
    if numpy_available:
        with use_substrate("numpy"):
            numpy_trace, numpy_counters = _trajectory(scale, covindex=True)
    else:
        numpy_trace, numpy_counters = int_trace, int_counters

    identical = off_trace == int_trace == numpy_trace
    on_counters = numpy_counters if numpy_available else int_counters
    off_calls = off_counters.get("vf2.cover_calls", 0)
    on_calls = on_counters.get("vf2.cover_calls", 0)
    reduction = off_calls / on_calls if on_calls else float("inf")
    pruned = on_counters.get("covindex.candidates_pruned", 0)
    kept = on_counters.get("covindex.candidates_kept", 0)
    filtered = pruned + kept

    registry = get_registry()
    int_per_round = int_counters.get("covindex.filter_ns", 0) / rounds
    registry.gauge("covindex.trend.filter_ns_per_round_int").set(
        int_per_round
    )
    speedup_gated = numpy_available and scale.base_graphs >= MIN_GATE_GRAPHS
    if numpy_available:
        numpy_per_round = (
            numpy_counters.get("covindex.filter_ns", 0) / rounds
        )
        speedup = (
            int_per_round / numpy_per_round
            if numpy_per_round
            else float("inf")
        )
        registry.gauge("covindex.trend.filter_ns_per_round_numpy").set(
            numpy_per_round
        )
        registry.gauge("covindex.trend.filter_speedup").set(speedup)
    else:
        numpy_per_round = 0.0
        speedup = float("nan")

    table = ExperimentTable(
        title=(
            "Covix — coverage engine off/int/numpy: identical results, "
            f"{NUM_ROUNDS}-round AIDS-like trajectory"
        ),
        columns=["measure", "baseline", "engine_on", "ratio", "status"],
    )
    table.add_row(
        "trace",
        len(off_trace),
        len(numpy_trace),
        1.0,
        "identical" if identical else "MISMATCH",
    )
    table.add_row(
        "vf2.cover_calls",
        off_calls,
        on_calls,
        reduction,
        "ok" if reduction >= MIN_VF2_REDUCTION else "TOO_FEW_PRUNED",
    )
    total_off = off_counters.get("vf2.calls", 0)
    total_on = on_counters.get("vf2.calls", 0)
    table.add_row(
        "vf2.calls",
        total_off,
        total_on,
        total_off / total_on if total_on else float("inf"),
        "informational",
    )
    table.add_row(
        "filter_hit_rate",
        0,
        pruned,
        pruned / filtered if filtered else 0.0,
        f"{kept} kept",
    )
    table.add_row(
        "covindex.updates",
        0,
        on_counters.get("covindex.updates", 0),
        float(on_counters.get("covindex.dirty_graphs", 0)),
        "dirty graphs in ratio column",
    )
    if numpy_available:
        filter_status = (
            ("ok" if speedup >= MIN_FILTER_SPEEDUP else "BELOW_FLOOR")
            if speedup_gated
            else "informational (gate at large scale)"
        )
        table.add_row(
            "filter_ns_per_round",
            round(int_per_round),
            round(numpy_per_round),
            speedup,
            filter_status,
        )
    else:
        table.add_row(
            "filter_ns_per_round",
            round(int_per_round),
            0,
            float("nan"),
            "numpy unavailable — int substrate only",
        )
    table.add_note(
        "trace = per-round (db ids, pattern keys, scov, lcov, "
        "classification, swaps); must be byte-identical across engine "
        "off / int substrate / numpy substrate"
    )
    table.add_note(
        "filter_ns_per_round = covindex.filter_ns per trajectory round; "
        "baseline column is the int substrate, engine_on is numpy"
    )
    if not identical:
        raise RuntimeError(
            "covix figure failed: engine/substrate trajectories "
            "diverged (soundness bug in the coverage filter or bitset "
            "substrate)"
        )
    if reduction < MIN_VF2_REDUCTION:
        raise RuntimeError(
            "covix figure failed: coverage VF2 call reduction "
            f"{reduction:.2f}x below the {MIN_VF2_REDUCTION:.1f}x floor "
            f"({off_calls} -> {on_calls} vf2.cover_calls)"
        )
    if speedup_gated and speedup < MIN_FILTER_SPEEDUP:
        raise RuntimeError(
            "covix figure failed: numpy filter-phase speedup "
            f"{speedup:.2f}x below the {MIN_FILTER_SPEEDUP:.1f}x floor "
            f"({int_per_round:.0f} -> {numpy_per_round:.0f} ns/round)"
        )
    return table


__all__ = [
    "MIN_FILTER_SPEEDUP",
    "MIN_GATE_GRAPHS",
    "MIN_VF2_REDUCTION",
    "NUM_ROUNDS",
    "run",
]
