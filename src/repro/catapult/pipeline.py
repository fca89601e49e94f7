"""End-to-end CATAPULT and CATAPULT++ pipelines.

CATAPULT (paper, Section 2.3): cluster the database on frequent-subtree
feature vectors, summarise each cluster into a CSG, then greedily select
canned patterns from the CSGs by weighted random walks.

CATAPULT++ (Section 3.3) is the scaffolding variant MIDAS builds on:
frequent **closed** trees replace frequent subtrees as clustering
features, and the FCT-/IFE-indices are constructed so that downstream
coverage computations are prefiltered.  Running either pipeline from
scratch is the "maintenance-from-scratch" baseline of the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..clustering.maintenance import DEFAULT_MAX_CLUSTER_SIZE, ClusterSet
from ..csg.maintenance import CSGSet
from ..execution import ExecutionConfig
from ..graph.database import GraphDatabase
from ..index.maintenance import IndexPair
from ..obs import capture, get_registry, span
from ..patterns.budget import PatternBudget
from ..patterns.metrics import CoverageOracle
from ..patterns.pattern import PatternSet
from ..trees.features import FeatureSpace
from ..trees.maintenance import FCTSet
from ..trees.mining import DEFAULT_MAX_EDGES, TreeMiner
from ..utils.sampling import LazySampler
from .candidate import CandidateGenerator
from .selection import GreedySelector


@dataclass(kw_only=True)
class CatapultConfig:
    """Configuration shared by CATAPULT, CATAPULT++ and MIDAS.

    Keyword-only since the ``repro.api`` redesign: positional
    construction was never used in-tree and keyword-only fields let the
    config hierarchy grow without positional-order hazards.  The shared
    :class:`~repro.execution.ExecutionConfig` carries the *how* (checks,
    deadline, degradation, store) next to the algorithmic *what*.
    """

    budget: PatternBudget = field(default_factory=PatternBudget)
    sup_min: float = 0.5
    feature_max_edges: int = DEFAULT_MAX_EDGES
    num_clusters: int = 8
    max_cluster_size: int = DEFAULT_MAX_CLUSTER_SIZE
    sample_cap: int = 400
    num_walks: int = 100
    walk_length: int = 12
    seed: int = 0
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)

    def __post_init__(self) -> None:
        if not 0.0 < self.sup_min <= 1.0:
            raise ValueError("sup_min must be in (0, 1]")
        if self.num_clusters < 1:
            raise ValueError("num_clusters must be positive")
        if self.sample_cap < 1:
            raise ValueError("sample_cap must be positive")


@dataclass
class CatapultResult:
    """Everything a from-scratch run produces (MIDAS reuses all of it)."""

    patterns: PatternSet
    clusters: ClusterSet
    csgs: CSGSet
    fct_set: FCTSet
    feature_space: FeatureSpace
    sampler: LazySampler
    oracle: CoverageOracle
    index_pair: IndexPair | None
    #: Seconds per phase: the direct children of the run's span.
    phases: dict[str, float]

    @property
    def selection_seconds(self) -> float:
        return self.phases.get("selection", 0.0)

    @property
    def total_seconds(self) -> float:
        return sum(self.phases.values())


class Catapult:
    """The baseline selector (frequent subtrees, no indices)."""

    name = "catapult"
    use_closed_features = False
    build_indices = False

    def __init__(self, config: CatapultConfig | None = None) -> None:
        self.config = config or CatapultConfig()

    # ------------------------------------------------------------------
    def _feature_list(self, fct_set: FCTSet):
        if self.use_closed_features:
            features = fct_set.fcts()
        else:
            features = fct_set.frequent()
        # Clustering needs at least one dimension to be meaningful.
        return features if features else fct_set.pool()

    def run(self, database: GraphDatabase) -> CatapultResult:
        """Select a canned pattern set for *database* from scratch.

        Runs under ``config.execution`` (checks, deadline,
        degradation, store).  When a budget is active the expensive phases
        degrade gracefully instead of overrunning: mining and selection
        are anytime (partial results), and embedding counts in the
        indices fall back to capped counts.  The run still returns a
        complete, internally consistent :class:`CatapultResult`.
        """
        config = self.config
        graphs = dict(database.items())
        get_registry().counter("catapult.runs").add(1)
        execution = getattr(config, "execution", None) or ExecutionConfig()
        with execution.apply():
            return self._run(database, graphs, config)

    def _run(self, database, graphs, config) -> CatapultResult:
        with capture("catapult.run") as run_span:
            with span("mining"):
                fct_set = FCTSet(
                    graphs, config.sup_min, config.feature_max_edges
                )
            features = self._feature_list(fct_set)
            feature_space = FeatureSpace(features)
            with span("clustering"):
                clusters = ClusterSet.build(
                    graphs,
                    feature_space,
                    config.num_clusters,
                    seed=config.seed,
                    max_cluster_size=config.max_cluster_size,
                )
            with span("csg"):
                csgs = CSGSet.build(clusters, graphs)
            index_pair: IndexPair | None = None
            if self.build_indices:
                with span("indexing"):
                    index_pair = IndexPair.build(fct_set, graphs)
            sampler = LazySampler(
                database.ids(), max_size=config.sample_cap, seed=config.seed
            )
            sample_graphs = {gid: graphs[gid] for gid in sampler.sample_ids}
            oracle = CoverageOracle(sample_graphs, index_pair=index_pair)
            with span("selection"):
                generator = CandidateGenerator(
                    graphs,
                    config.budget,
                    seed=config.seed,
                    num_walks=config.num_walks,
                    walk_length=config.walk_length,
                )
                selector = GreedySelector(
                    generator,
                    csgs.summaries(),
                    clusters.cluster_weights(),
                    oracle,
                    config.budget,
                    ged_method="lower" if not self.use_closed_features else "tight_lower",
                )
                patterns = selector.select()
            if index_pair is not None:
                index_pair.sync_patterns([p.graph for p in patterns])
        return CatapultResult(
            patterns=patterns,
            clusters=clusters,
            csgs=csgs,
            fct_set=fct_set,
            feature_space=feature_space,
            sampler=sampler,
            oracle=oracle,
            index_pair=index_pair,
            phases={child.name: child.seconds for child in run_span.children},
        )


class CatapultPlusPlus(Catapult):
    """CATAPULT with FCT features and FCT/IFE indices (Section 3.3)."""

    name = "catapult++"
    use_closed_features = True
    build_indices = True
