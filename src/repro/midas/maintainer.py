"""The MIDAS maintainer — Algorithm 1 of the paper.

:class:`Midas` owns the full maintained state: the database snapshot, the
FCT pool, the graph clusters, the CSG set, the FCT/IFE indices, the lazy
sample, the graphlet-distribution detector and the displayed pattern
set.  ``bootstrap`` builds that state with one CATAPULT++ run;
``apply_update`` then processes each batch ΔD:

1. remove deleted graphs from their clusters and CSGs (lines 2, 7);
2. maintain the FCT pool incrementally (line 5) and refresh the
   clustering feature space;
3. assign inserted graphs to nearest clusters and integrate them into
   the CSGs (lines 1, 6–7), fine-splitting oversized clusters;
4. classify the batch by graphlet-distribution distance (lines 3–4, 8);
5. on a **major** modification, generate candidates from the evolved
   CSGs with coverage-based pruning and run the multi-scan swap
   (lines 9–11, Sections 5–6);
6. maintain the indices and the sample either way (line 12).

``apply_update`` returns a :class:`MaintenanceReport` with the paper's
performance measures: PMT (total maintenance time), PGT (candidate
generation + swap time), the classification, and the executed swaps.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

from ..catapult.candidate import CandidateGenerator
from ..check.invariants import check_enabled, check_pattern_budget
from ..catapult.pipeline import CatapultPlusPlus, CatapultResult
from ..exceptions import ConfigurationError, ResilienceError, RolledBack
from ..execution import ExecutionConfig
from ..graph.database import BatchUpdate, GraphDatabase
from ..graph.labeled_graph import GraphError, LabeledGraph
from ..obs import capture, get_registry, span
from ..patterns.metrics import PanelCovers
from ..patterns.pattern import PatternSet
from ..resilience.budget import budget_check
from ..resilience.faults import trip
from ..store.base import GraphStore
from ..trees.features import FeatureSpace
from .config import MidasConfig
from .detector import Classification, ModificationDetector, ModificationType
from .pruning import PruningContext
from .small_patterns import SmallPatternTray
from .swap import MultiScanSwapper, SwapOutcome


@dataclass
class MaintenanceReport:
    """Everything measured during one ``apply_update`` round.

    **Invariant for aborted rounds:** when ``aborted`` is True the
    maintained *state* was rolled back to the pre-round snapshot, but
    the *measurements* were not — ``phases`` carries the timings of
    every phase that completed before the budget signal, and
    ``degradations`` counts the fidelity fallbacks recorded up to that
    point.  Operators can therefore see where an aborted round spent
    its budget; only fields describing committed work (``swap_outcome``,
    ``inserted_ids``, ``deleted_ids``, candidate counts) are reset,
    because that work was undone.
    """

    classification: Classification
    swap_outcome: SwapOutcome | None
    #: Seconds per phase: the direct children of the round's span.
    phases: dict[str, float]
    inserted_ids: list[int] = field(default_factory=list)
    deleted_ids: list[int] = field(default_factory=list)
    candidates_generated: int = 0
    candidates_promising: int = 0
    #: Structured observability snapshot for this round: the span tree
    #: under ``midas.apply_update`` and the registry counter deltas.
    metrics: dict = field(default_factory=dict)
    #: True when the round hit a deadline/budget and was rolled back to
    #: the pre-round state; ``abort_reason`` carries the signal.
    aborted: bool = False
    abort_reason: str | None = None
    #: Number of degradation events (fidelity fallbacks, anytime
    #: truncations) recorded during this round.
    degradations: int = 0

    @property
    def is_major(self) -> bool:
        return self.classification.is_major

    @property
    def pattern_maintenance_seconds(self) -> float:
        """PMT — total wall-clock time of the maintenance round."""
        return sum(self.phases.values())

    @property
    def pattern_generation_seconds(self) -> float:
        """PGT — candidate generation plus swapping time."""
        return self.phases.get("candidates", 0.0) + self.phases.get("swap", 0.0)

    @property
    def cluster_maintenance_seconds(self) -> float:
        return self.phases.get("clusters", 0.0) + self.phases.get("csg", 0.0)

    @property
    def num_swaps(self) -> int:
        return self.swap_outcome.num_swaps if self.swap_outcome else 0


class Midas:
    """Maintains a canned pattern set as the database evolves."""

    name = "midas"

    def __init__(
        self,
        config: MidasConfig,
        database: GraphDatabase,
        state: CatapultResult,
    ) -> None:
        self.config = config
        self.database = database
        self.patterns = state.patterns
        self.fct_set = state.fct_set
        self.clusters = state.clusters
        self.csgs = state.csgs
        self.index_pair = state.index_pair
        self.sampler = state.sampler
        self.oracle = state.oracle
        self.detector = ModificationDetector(
            dict(database.items()),
            epsilon=config.epsilon,
            measure=config.distance_measure,
        )
        # Optional η ≤ 2 tray (Section 3.1 remark): maintained from exact
        # frequency counters, independent of the swap machinery.
        self.small_tray: SmallPatternTray | None = None
        if config.tray_edges > 0 or config.tray_paths > 0:
            self.small_tray = SmallPatternTray(
                dict(database.items()),
                num_edges=config.tray_edges,
                num_paths=config.tray_paths,
            )
        if self.index_pair is not None:
            self.index_pair.sync_patterns(self.patterns.graphs())

    # ------------------------------------------------------------------
    @classmethod
    def bootstrap(
        cls, database: GraphDatabase, config: MidasConfig | None = None
    ) -> "Midas":
        """Build the initial state with one CATAPULT++ run."""
        config = config or MidasConfig()
        snapshot = database.copy()
        state = CatapultPlusPlus(config).run(snapshot)
        return cls(config, snapshot, state)

    # ------------------------------------------------------------------
    # transactional machinery
    # ------------------------------------------------------------------
    #: Attributes the pre-round snapshot captures.  They are pickled as
    #: ONE dict so the pickle memo preserves shared references (the
    #: oracle holds the same IndexPair object as ``index_pair``; pickling
    #: them separately would silently un-share them on rollback).
    _STATE_ATTRS = (
        "database",
        "patterns",
        "fct_set",
        "clusters",
        "csgs",
        "index_pair",
        "sampler",
        "oracle",
        "detector",
        "small_tray",
    )

    def _snapshot_state(self) -> tuple[dict, bytes]:
        """The pre-round state: objects held by reference, and a pickle.

        A store that undoes a round through its own hooks (it overrides
        :meth:`~repro.store.base.GraphStore.rollback_round`, like the
        SQLite store, which also refuses to pickle mid-round) is kept
        by reference; everything else is pickled in one call and only
        unpickled on rollback.
        """
        state = {name: getattr(self, name) for name in self._STATE_ATTRS}
        held = {}
        if type(self.database).rollback_round is not GraphStore.rollback_round:
            held["database"] = state.pop("database")
        return held, pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)

    def _restore_state(self, snapshot: tuple[dict, bytes]) -> None:
        held, blob = snapshot
        state = pickle.loads(blob)
        state.update(held)
        for name, value in state.items():
            setattr(self, name, value)

    def _validate_update(self, update: BatchUpdate) -> None:
        """Reject malformed batches at the boundary, before any mutation."""
        if update.is_empty():
            raise ConfigurationError(
                "empty batch update: provide at least one insertion or "
                "deletion"
            )
        seen: set[int] = set()
        for graph_id in update.deletions:
            if graph_id in seen:
                raise ConfigurationError(
                    f"duplicate deletion of graph id {graph_id} in batch"
                )
            seen.add(graph_id)
            if graph_id not in self.database:
                raise ConfigurationError(
                    f"cannot delete graph id {graph_id}: not in database"
                )
        for position, graph in enumerate(update.insertions):
            if graph.num_vertices == 0:
                raise ConfigurationError(
                    f"insertion #{position} is an empty graph"
                )
            try:
                for u, v in graph.edges():
                    graph.label(u)
                    graph.label(v)
            except GraphError as exc:
                raise ConfigurationError(
                    f"insertion #{position} has an edge referencing a "
                    f"missing vertex: {exc}"
                ) from exc

    def _aborted_report(
        self,
        exc: ResilienceError,
        registry,
        counters_before: dict,
        round_span=None,
    ) -> MaintenanceReport:
        """Report for a round that was rolled back on a budget signal.

        The round span is finalised even when the round body raises
        (``capture`` is exception-safe), so the report carries the
        partial per-phase timings — see the :class:`MaintenanceReport`
        docstring for the invariant.
        """
        degradations = registry.counter(
            "resilience.degradations"
        ).value - counters_before.get("resilience.degradations", 0)
        phases = (
            {child.name: child.seconds for child in round_span.children}
            if round_span is not None
            else {}
        )
        metrics = {"counters": registry.counter_deltas(counters_before)}
        if round_span is not None:
            metrics["spans"] = round_span.to_dict()
        return MaintenanceReport(
            classification=Classification(
                ModificationType.MINOR, 0.0, self.config.epsilon
            ),
            swap_outcome=None,
            phases=phases,
            aborted=True,
            abort_reason=f"{type(exc).__name__}: {exc}",
            degradations=degradations,
            metrics=metrics,
        )

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def apply_update(self, update: BatchUpdate) -> MaintenanceReport:
        """Process one batch ΔD, maintaining patterns opportunely.

        The round is transactional: the full maintained state is
        snapshotted before the database mutates, and any mid-round
        exception restores it.  A deadline/budget signal
        (:class:`ResilienceError`) yields an *aborted*
        :class:`MaintenanceReport` instead of raising; any other failure
        re-raises as :class:`RolledBack` with the cause chained — either
        way the maintainer is left exactly as it was before the call.
        """
        self._validate_update(update)
        registry = get_registry()
        counters_before = registry.counter_values()
        # Out-of-core stores defer their SQL commit to the round verdict
        # (GraphStore round hooks); in-memory stores no-op and roll back
        # through the pickled snapshot.
        self.database.begin_round()
        snapshot = self._snapshot_state()
        execution = getattr(self.config, "execution", None) or ExecutionConfig()
        round_span = None
        try:
            with execution.apply():
                with capture("midas.apply_update") as round_span:
                    outputs = self._apply_update_inner(update)
        except ResilienceError as exc:
            self._restore_state(snapshot)
            self.database.rollback_round()
            registry.counter("resilience.rollbacks").add(1)
            registry.counter("resilience.aborted_rounds").add(1)
            return self._aborted_report(
                exc, registry, counters_before, round_span
            )
        except Exception as exc:
            self._restore_state(snapshot)
            self.database.rollback_round()
            registry.counter("resilience.rollbacks").add(1)
            raise RolledBack(
                f"maintenance round rolled back after "
                f"{type(exc).__name__}: {exc}",
                cause=exc,
            ) from exc
        self.database.commit_round()
        return self._finalize_report(
            outputs, round_span, registry, counters_before
        )

    def _apply_update_inner(self, update: BatchUpdate) -> dict:
        """The round body; runs inside the round span and execution scope."""
        config = self.config
        self.clusters.reset_touched()
        self.csgs.reset_touched()

        record = self.database.apply(update)
        graphs = dict(self.database.items())
        added = {gid: graphs[gid] for gid in record.inserted_ids}
        removed_ids = set(record.deleted_ids)

        # η ≤ 2 tray maintenance: exact counter updates.
        if self.small_tray is not None:
            self.small_tray.remove_graphs(record.deleted_graphs.values())
            self.small_tray.add_graphs(added.values())

        # Lines 3-4 + 8: classify by graphlet distribution shift.
        trip("midas.detect")
        budget_check("midas.detect")
        with span("detect"):
            classification = self.detector.classify(
                added, removed_ids, commit=True
            )

        # Line 2: deletions leave clusters and CSGs.
        trip("midas.clusters")
        budget_check("midas.clusters")
        with span("clusters"):
            for graph_id in record.deleted_ids:
                cluster_id = self.clusters.remove(graph_id)
                self.csgs.detach(cluster_id, graph_id)

        # Line 5: FCT maintenance (relax, mine Δ, merge, restore).
        trip("midas.fct")
        budget_check("midas.fct")
        with span("fct"):
            self.fct_set.apply(added=added, removed=removed_ids)
            features = self.fct_set.fcts() or self.fct_set.pool()
            feature_space = FeatureSpace(features)
            self.clusters.refresh_feature_space(feature_space)

        # Lines 1 + 6-7: insertions join clusters and CSGs.
        with span("clusters"):
            assignments: dict[int, int] = {}
            for graph_id, graph in added.items():
                assignments[graph_id] = self.clusters.assign(
                    graph_id, graph, graphs
                )
        trip("midas.csg")
        budget_check("midas.csg")
        with span("csg"):
            live = set(self.clusters.cluster_ids())
            for graph_id, cluster_id in assignments.items():
                # Integrate incrementally unless a fine split dissolved
                # the target cluster; splits are reconciled below.
                if (
                    cluster_id in live
                    and cluster_id in self.csgs
                    and graph_id in self.clusters.members(cluster_id)
                ):
                    self.csgs.integrate(
                        cluster_id, graph_id, graphs[graph_id]
                    )
            # Rebuild CSGs of clusters created/destroyed by fine splits.
            self.csgs.sync_with_clusters(self.clusters, graphs)

        # Line 9 (GetIndices): the indices must reflect D ⊕ ΔD *before*
        # they back any coverage computation — a stale TG/EG column for
        # a just-inserted graph would silently exclude it from every
        # cover.
        trip("midas.index")
        budget_check("midas.index")
        if self.index_pair is not None:
            with span("index"):
                self.index_pair.apply_update(
                    self.fct_set,
                    graphs,
                    added_ids=record.inserted_ids,
                    removed_ids=removed_ids,
                    patterns=self.patterns.graphs(),
                )

        # Sample and oracle follow the database.
        trip("midas.sample")
        budget_check("midas.sample")
        with span("sample"):
            self.sampler.remove_ids(removed_ids)
            self.sampler.add_ids(record.inserted_ids)
            sample_graphs = {
                gid: graphs[gid] for gid in self.sampler.sample_ids
            }
            # The new view's oracle carries the displayed patterns'
            # covers (and every other cover of the last round) and
            # verifies only the hosts the batch brought into the sample.
            self.oracle = self.oracle.successor(sample_graphs)

        swap_outcome: SwapOutcome | None = None
        candidates_generated = 0
        candidates_promising = 0
        if classification.is_major and len(self.patterns) > 0:
            # Lines 9-10: pruned candidate generation from evolved CSGs.
            trip("midas.candidates")
            budget_check("midas.candidates")
            with span("candidates"):
                pruning = PruningContext(
                    self.oracle,
                    [p.graph for p in self.patterns],
                    config.kappa,
                    index_pair=self.index_pair,
                )
                generator = CandidateGenerator(
                    graphs,
                    config.budget,
                    seed=config.seed,
                    num_walks=config.num_walks,
                    walk_length=config.walk_length,
                )
                evolved = self.csgs.touched | self.clusters.touched_added
                summaries = {
                    cluster_id: summary
                    for cluster_id, summary in (
                        self.csgs.summaries().items()
                    )
                    if not evolved or cluster_id in evolved
                }
                if not summaries:
                    summaries = self.csgs.summaries()
                with span("generate"):
                    raw = generator.generate(
                        summaries,
                        edge_gate=pruning.edge_gate,
                        edge_priority=pruning.edge_priority,
                    )
                candidates_generated = len(raw)
                with span("filter"):
                    promising = [
                        c.graph
                        for c in raw
                        if pruning.is_promising(c.graph)
                        and not self.patterns.has_isomorphic(c.graph)
                    ]
                candidates_promising = len(promising)
            # Line 10 continued + Section 6: multi-scan swap.
            trip("midas.swap")
            budget_check("midas.swap")
            with span("swap"):
                swap_outcome = self._run_swap(promising, pruning.panel)

        # Line 12: reconcile the pattern-side (TP/EP) columns with the
        # possibly-swapped pattern set.
        trip("midas.index_sync")
        budget_check("midas.index_sync")
        if self.index_pair is not None:
            with span("index"):
                self.index_pair.sync_patterns(self.patterns.graphs())

        if check_enabled():
            # A violation raises out of the round body, so the
            # transactional wrapper rolls the whole round back — an
            # over-budget or out-of-band pattern set can never commit.
            check_pattern_budget(self.pattern_graphs(), config.budget)

        return {
            "classification": classification,
            "swap_outcome": swap_outcome,
            "record": record,
            "candidates_generated": candidates_generated,
            "candidates_promising": candidates_promising,
        }

    def _finalize_report(
        self, outputs: dict, round_span, registry, counters_before: dict
    ) -> MaintenanceReport:
        """Round bookkeeping that needs the *finalised* round span."""
        classification = outputs["classification"]
        swap_outcome = outputs["swap_outcome"]
        record = outputs["record"]
        candidates_generated = outputs["candidates_generated"]
        candidates_promising = outputs["candidates_promising"]
        registry.counter("midas.updates").add(1)
        if classification.is_major:
            registry.counter("midas.major_updates").add(1)
        else:
            registry.counter("midas.minor_updates").add(1)
        num_swaps = swap_outcome.num_swaps if swap_outcome else 0
        registry.counter("midas.swaps").add(num_swaps)
        registry.counter("midas.candidates_generated").add(
            candidates_generated
        )
        registry.counter("midas.candidates_promising").add(
            candidates_promising
        )
        registry.histogram("midas.update_seconds").record(round_span.seconds)
        registry.histogram("midas.batch_size").record(
            len(record.inserted_ids) + len(record.deleted_ids)
        )

        degradations = registry.counter(
            "resilience.degradations"
        ).value - counters_before.get("resilience.degradations", 0)
        return MaintenanceReport(
            classification=classification,
            swap_outcome=swap_outcome,
            phases={child.name: child.seconds for child in round_span.children},
            inserted_ids=list(record.inserted_ids),
            deleted_ids=list(record.deleted_ids),
            candidates_generated=candidates_generated,
            candidates_promising=candidates_promising,
            degradations=degradations,
            metrics={
                "spans": round_span.to_dict(),
                "counters": registry.counter_deltas(counters_before),
            },
        )

    # ------------------------------------------------------------------
    def _run_swap(
        self, promising: list[LabeledGraph], panel: PanelCovers
    ) -> SwapOutcome:
        """The pattern-update strategy; subclasses may override
        (e.g. the Random baseline replaces it with random swapping).
        *panel* holds the displayed patterns' covers, as pruning read
        them."""
        config = self.config
        swapper = MultiScanSwapper(
            self.oracle,
            kappa=config.kappa,
            lambda_=config.lambda_,
            ged_method=config.ged_method,
            max_scans=config.max_scans,
            adaptive_kappa=config.adaptive_kappa,
            sigma_initial=config.sigma_initial,
        )
        return swapper.run(
            self.patterns, promising, provenance=self.name, panel=panel
        )

    # ------------------------------------------------------------------
    def pattern_graphs(self) -> list[LabeledGraph]:
        return [p.graph for p in self.patterns]

    def pattern_set(self) -> PatternSet:
        return self.patterns
