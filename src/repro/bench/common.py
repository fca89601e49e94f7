"""Shared scaffolding for the experiment drivers.

The paper's experiments run on 10K–1M-graph chemical repositories with a
Java implementation; this pure-Python reproduction scales every dataset
down ~100× (see DESIGN.md) and keeps the *comparative* structure: same
batch grids, same approaches, same measures.  :class:`ExperimentScale`
centralises the scaled sizes so each benchmark can also be run larger
from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..datasets import (
    MoleculeProfile,
    aids_profile,
    emol_profile,
    family_injection,
    make_molecule_database,
    mixed_update,
    pubchem_profile,
    random_deletions,
    random_insertions,
)
from ..graph.database import BatchUpdate, GraphDatabase
from ..midas import Midas, MidasConfig, NoMaintainBaseline, RandomSwapMaintainer
from ..patterns import PatternBudget


@dataclass(frozen=True)
class ExperimentScale:
    """Scaled-down experiment sizing (defaults sized for CI runs)."""

    base_graphs: int = 120
    batch_percent: float = 20.0
    family_batch: int = 40
    queries: int = 120
    query_sizes: tuple[int, int] = (4, 22)
    gamma: int = 12
    eta_min: int = 3
    eta_max: int = 8
    sample_cap: int = 150
    num_clusters: int = 5
    seed: int = 7


DEFAULT_SCALE = ExperimentScale()


def scaled(scale: ExperimentScale | None = None, **overrides) -> ExperimentScale:
    return replace(scale or DEFAULT_SCALE, **overrides)


def default_config(scale: ExperimentScale, **overrides) -> MidasConfig:
    """The default MIDAS configuration at a given scale."""
    parameters = {
        "budget": PatternBudget(scale.eta_min, scale.eta_max, scale.gamma),
        "sup_min": 0.5,
        "num_clusters": scale.num_clusters,
        "sample_cap": scale.sample_cap,
        "seed": scale.seed,
        "epsilon": 0.002,
        "kappa": 0.1,
        "lambda_": 0.1,
    }
    parameters.update(overrides)
    return MidasConfig(**parameters)


PROFILES: dict[str, MoleculeProfile] = {
    "aids": aids_profile(),
    "pubchem": pubchem_profile(),
    "emol": emol_profile(),
}


def dataset(name: str, count: int, seed: int) -> GraphDatabase:
    """A scaled stand-in for one of the paper's datasets."""
    try:
        profile = PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; choose from {sorted(PROFILES)}")
    return make_molecule_database(count, profile, seed)


def batch_grid(
    database: GraphDatabase,
    scale: ExperimentScale,
    profile_name: str = "aids",
) -> list[tuple[str, BatchUpdate]]:
    """The paper's modification grid: ±Y% batches plus a family batch."""
    profile = PROFILES[profile_name]
    percent = scale.batch_percent
    return [
        (f"+{percent:.0f}%", random_insertions(database, percent, profile, scale.seed + 1)),
        (f"-{percent / 2:.0f}%", random_deletions(database, percent / 2, scale.seed + 2)),
        (
            f"+{percent / 2:.0f}%/-{percent / 2:.0f}%",
            mixed_update(database, percent / 2, percent / 2, profile, scale.seed + 3),
        ),
        (
            "family",
            family_injection(
                scale.family_batch, "boronic_ester", profile, scale.seed + 4
            ),
        ),
    ]


def bootstrap_approaches(
    database: GraphDatabase, config: MidasConfig
) -> dict[str, object]:
    """MIDAS, Random and NoMaintain sharing one bootstrap state.

    Each maintainer gets its own database copy and pattern-set copy so
    maintenance rounds do not interfere.
    """
    midas = Midas.bootstrap(database, config)
    random_state = Midas.bootstrap(database, config)  # independent state
    random_maintainer = RandomSwapMaintainer(
        config, random_state.database, _result_of(random_state)
    )
    nomaintain = NoMaintainBaseline(
        config, database.copy(), midas.patterns.copy()
    )
    return {
        "midas": midas,
        "random": random_maintainer,
        "nomaintain": nomaintain,
    }


def _result_of(midas: Midas):
    """Re-wrap a Midas instance's state as a CatapultResult-like view."""
    from ..catapult.pipeline import CatapultResult

    return CatapultResult(
        patterns=midas.patterns,
        clusters=midas.clusters,
        csgs=midas.csgs,
        fct_set=midas.fct_set,
        feature_space=midas.clusters.feature_space,
        sampler=midas.sampler,
        oracle=midas.oracle,
        index_pair=midas.index_pair,
        phases={},
    )
