"""Seeded inputs for every workload, generated before any timed window.

The base databases are fixed (the pubchem profile at the figure dataset
seed, and the ``repro serve`` CLI default), so set-up cost is comparable
from seed to seed.  The batch contents come from fixed pools (each
motif's family graphs); the workload seed decides the order in which
the pools arrive and the processes' hash seeds.  So every seed feeds the maintainer the same kind of work in its
own order, and the same seed always yields the same inputs.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from repro.bench.common import DEFAULT_SCALE, PROFILES, dataset, default_config
from repro.datasets import family_injection
from repro.graph.database import BatchUpdate, GraphDatabase
from repro.graph.labeled_graph import LabeledGraph
from repro.midas.config import MidasConfig
from repro.patterns.budget import PatternBudget

#: Motifs the family-injection batches rotate through (seed-ordered).
FAMILY_MOTIFS = (
    "boronic_ester",
    "phosphate",
    "sulfonyl",
    "nitro",
    "thiophene",
    "halide_cl",
    "carboxyl",
    "furan",
)

#: evolve: graphs in the pubchem-profile base.  Three bootstraps of 80
#: graphs plus the rounds overran the per-run time budget.
EVOLVE_BASE_GRAPHS = 60
#: evolve: family graphs inserted per round; the previous round's family
#: is deleted in the same batch, so |D| stays at base + one family.
EVOLVE_FAMILY = 5
#: evolve: nominal seconds per round.  The round count is ``--seconds``
#: over it, rounded to a whole number of rounds per motif (at least two),
#: so every seed uses each motif equally often: 32 s gives 24 rounds.
EVOLVE_NOMINAL_ROUND_S = 4.0 / 3.0
EVOLVE_MIN_USES = 2

#: serve: the ``repro serve`` CLI defaults (aids x80, dataset seed 0).
SERVE_PROFILE = "aids"
SERVE_GRAPHS = 80
SERVE_DATASET_SEED = 0
#: serve: family graphs inserted per update; the previous update's family
#: is deleted in the same batch.
SERVE_FAMILY = 6
#: serve: nominal seconds between update POSTs (the updates are spread
#: evenly over the window), and panel sessions per second.
SERVE_UPDATE_INTERVAL_S = 2.0
SERVE_SESSION_RATE = 30.0


def derived_seed(*parts: object) -> int:
    """A stable 32-bit seed from the workload seed and a purpose tag."""
    return zlib.crc32(":".join(str(p) for p in parts).encode("utf-8"))


def family_pool(profile: str, motif: str, count: int, tag: str) -> list[LabeledGraph]:
    """*count* graphs carrying *motif*, from a seed fixed per motif."""
    update = family_injection(
        count, motif, PROFILES[profile], derived_seed(tag, motif)
    )
    return list(update.insertions)


def motif_passes(uses: int, seed: int) -> list[tuple[str, int]]:
    """(motif, use) batches: *uses* passes over every motif, each pass in
    its own seeded order.  Any stretch of whole passes, such as one evolve
    part, then holds the same batches for every seed."""
    rng = random.Random(seed)
    batches = []
    for use in range(uses):
        order = list(FAMILY_MOTIFS)
        rng.shuffle(order)
        batches += [(motif, use) for motif in order]
    return batches


@dataclass
class BatchPlan:
    """Everything the evolve workload feeds the maintainer, pre-generated.

    Each round inserts one family batch and deletes the previous round's
    family, whose ids are known only once it is applied.
    """

    base: GraphDatabase
    config: MidasConfig
    #: Per round: graphs inserted.
    insertions: list[list[LabeledGraph]] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.insertions)

    def part(self, index: int, parts: int) -> "BatchPlan":
        """The *index*-th of *parts* contiguous slices of the sequence.

        Each slice starts from the base again, in its own process.
        """
        lo = index * self.rounds // parts
        hi = (index + 1) * self.rounds // parts
        return BatchPlan(
            self.base, self.config, self.insertions[lo:hi], self.labels[lo:hi]
        )

    def describe(self) -> dict:
        return {
            "base_graphs": len(self.base),
            "rounds": self.rounds,
            "batches": self.labels,
            "epsilon": self.config.epsilon,
        }


def evolve_plan(seed: int, seconds: float) -> BatchPlan:
    # epsilon=0 classifies every batch major: the full Algorithm 1 path.
    plan = BatchPlan(
        dataset("pubchem", EVOLVE_BASE_GRAPHS, DEFAULT_SCALE.seed),
        default_config(DEFAULT_SCALE, epsilon=0.0),
    )
    uses = max(
        EVOLVE_MIN_USES,
        int(round(seconds / EVOLVE_NOMINAL_ROUND_S / len(FAMILY_MOTIFS))),
    )
    pools = {
        motif: family_pool("pubchem", motif, uses * EVOLVE_FAMILY, "evolve")
        for motif in FAMILY_MOTIFS
    }
    for motif, use in motif_passes(uses, derived_seed("evolve-order", seed)):
        lo = use * EVOLVE_FAMILY
        plan.insertions.append(pools[motif][lo : lo + EVOLVE_FAMILY])
        plan.labels.append(f"+{EVOLVE_FAMILY} {motif}")
    return plan


def serve_base() -> GraphDatabase:
    return dataset(SERVE_PROFILE, SERVE_GRAPHS, SERVE_DATASET_SEED)


def serve_config() -> MidasConfig:
    """The configuration ``repro serve`` builds from its CLI defaults."""
    return MidasConfig(
        budget=PatternBudget(3, 7, 10),
        num_clusters=4,
        sample_cap=100,
        seed=SERVE_DATASET_SEED,
    )


def serve_updates(seed: int, seconds: float) -> list[tuple[list, list[int]]]:
    """(insertions, deletions) per update POST of one serve run.

    Each family update inserts one motif's family and deletes the
    previous update's family, so the database stays the base plus one
    family and every update does the same kind of work.  Every motif is
    used the same whole number of times (from the nominal interval), in
    passes over the motifs that the seed orders.  A closing update
    deletes the last family, so every seed ends on the base database.
    The deleted ids are those the server assigns, found by applying the
    sequence to a copy of the base.
    """
    uses = max(1, int(round(seconds / SERVE_UPDATE_INTERVAL_S / len(FAMILY_MOTIFS))))
    pools = {
        motif: family_pool(SERVE_PROFILE, motif, uses * SERVE_FAMILY, "serve")
        for motif in FAMILY_MOTIFS
    }
    database = serve_base()
    updates = []
    previous: list[int] = []
    for motif, use in motif_passes(uses, derived_seed("serve-order", seed)):
        insertions = pools[motif][use * SERVE_FAMILY : (use + 1) * SERVE_FAMILY]
        applied = database.apply(BatchUpdate.of(insertions=insertions, deletions=previous))
        updates.append((insertions, previous))
        previous = sorted(applied.inserted_ids)
    updates.append(([], previous))
    return updates
