"""Quality metrics of canned patterns and pattern sets.

Implements every measure of Sections 2.2 and 6.1:

* subgraph coverage ``scov`` and label coverage ``lcov``;
* cognitive load ``cog(p) = |E_p| × ρ_p``;
* diversity ``div(p, P∖p) = min GED`` (method selectable: CATAPULT uses
  the GED_l lower bound, MIDAS the tighter GED'_l);
* the CATAPULT pattern score ``s_p = ccov × lcov × div/cog``
  (Definition 2.1) and the MIDAS score ``s'_p = scov × lcov × div/cog``;
* set-level aggregates ``f_scov``, ``f_lcov``, ``f_div``, ``f_cog`` and
  the multiplicative set score ``s'_P``;
* the loss/benefit scores of the swap strategy (Definition 6.2, read as
  marginal set-coverage deltas).

:class:`CoverageOracle` is the workhorse: it memoises the cover set of
each pattern (by canonical key) over a fixed sample of the database,
optionally routing through the FCT/IFE containment prefilter so repeated
swap evaluations stay cheap.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Mapping, Set

from ..cache.stores import cached_ged_value, caching_enabled, get_caches
from ..covindex.engine import CoverageEngine, covindex_enabled
from ..graph.canonical import canonical_certificate
from ..graph.labeled_graph import LabeledGraph
from ..index.maintenance import IndexPair
from ..isomorphism.matcher import contains
from ..obs import get_registry
from ..parallel import shared
from ..parallel.kernels import contains_view_kernel
from ..parallel.pool import current_pool
from .pattern import CannedPattern, PatternSet


def cognitive_load(pattern: LabeledGraph) -> float:
    """``cog(p) = |E_p| × ρ_p`` where ρ is graph density (Section 2.2)."""
    return pattern.num_edges * pattern.density()


def diversity(
    pattern: LabeledGraph,
    others: Iterable[LabeledGraph],
    method: str = "tight_lower",
) -> float:
    """``div(p, P∖p) = min_{p_i} GED(p, p_i)``; +inf with no others.

    Distances route through the canonical-form GED cache when caching
    is enabled (:mod:`repro.cache`); a hit is byte-identical to
    recomputing because only full-fidelity values are served.
    """
    distances = [
        cached_ged_value(pattern, other, method) for other in others
    ]
    return float(min(distances)) if distances else float("inf")


def label_cover(
    pattern: LabeledGraph, graphs: Mapping[int, LabeledGraph]
) -> set[int]:
    """Graphs containing at least one edge label of *pattern*."""
    wanted = pattern.views().edge_label_set
    return {
        graph_id
        for graph_id, graph in graphs.items()
        if not wanted.isdisjoint(graph.views().edge_label_set)
    }


def label_coverage(
    pattern: LabeledGraph, graphs: Mapping[int, LabeledGraph]
) -> float:
    """``lcov(p, D)`` over the supplied graphs."""
    if not graphs:
        return 0.0
    return len(label_cover(pattern, graphs)) / len(graphs)


class CoverageOracle:
    """Memoised subgraph/label coverage over a (sampled) database view.

    Parameters
    ----------
    graphs:
        The graphs coverage is evaluated on — typically the lazy sample
        ``D_s``, but the full database works too.
    index_pair:
        Optional FCT/IFE indices; when provided, containment checks only
        run on graphs surviving the count prefilter (Section 6.1).
    engine:
        Optional :class:`~repro.covindex.engine.CoverageEngine` over the
        same view.  When attached (or auto-built because the ambient
        ``covindex`` toggle is on), cover queries route through its
        posting-list filter and VF2 domain seeding instead of the
        FCT/IFE prefilter, and :meth:`apply_update` maintains verdicts
        incrementally.  Cover sets are identical either way — the filter
        only skips hosts proven not to match.
    """

    def __init__(
        self,
        graphs: Mapping[int, LabeledGraph],
        index_pair: IndexPair | None = None,
        engine: CoverageEngine | None = None,
    ) -> None:
        self._graphs = dict(graphs)
        self._index_pair = index_pair
        if engine is None and covindex_enabled():
            engine = CoverageEngine(self._graphs)
        self._engine = engine
        self._cover_cache: dict[tuple, frozenset[int]] = {}
        self._lcov_cache: dict[tuple, frozenset[int]] = {}
        # Token of this oracle's published host view (repro.parallel.shared),
        # allocated lazily on the first parallel verification.
        self._view_token: int | None = None
        #: Number of VF2 containment tests actually executed (for the
        #: index-effectiveness experiments).
        self.isomorphism_tests = 0

    def __getstate__(self):
        # Published host views are process-local, fork-inherited state;
        # a pickled or deep-copied oracle (e.g. the transactional
        # snapshot backup in Midas.apply_update) must not alias the live
        # view, so the copy drops the token and republishes lazily.
        state = self.__dict__.copy()
        state["_view_token"] = None
        return state

    @property
    def universe_size(self) -> int:
        return len(self._graphs)

    @property
    def delta_capable(self) -> bool:
        """Whether :meth:`apply_update` preserves per-graph verdicts."""
        return self._engine is not None

    def graph_ids(self) -> set[int]:
        return set(self._graphs)

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def apply_update(
        self,
        added: Mapping[int, LabeledGraph],
        removed_ids: Iterable[int],
    ) -> None:
        """Reconcile the oracle's view with a database batch in place.

        The memo tables key by pattern certificate but their *values*
        are graph-id sets over the old view, so every entry is stale
        the moment the view changes — both tables are dropped
        unconditionally (this was silently wrong before: a deleted
        graph stayed in cached cover sets and ``scov`` never moved).
        With an engine attached the per-graph verdicts survive inside
        its bitsets, so the next :meth:`cover` call re-verifies only
        the filtered delta instead of the whole view.
        """
        removed = [gid for gid in removed_ids if gid in self._graphs]
        for graph_id in removed:
            del self._graphs[graph_id]
        for graph_id, graph in added.items():
            self._graphs[graph_id] = graph
        if self._engine is not None:
            self._engine.apply_update(added, removed)
        if self._view_token is not None:
            # Republish under the same token: the generation bump is what
            # invalidates persistent workers holding the pre-batch view.
            shared.publish_view(self._graphs, view_id=self._view_token)
        self._cover_cache.clear()
        self._lcov_cache.clear()

    def preregister(self, patterns: Iterable[LabeledGraph]) -> None:
        """Register *patterns* with the attached engine ahead of queries.

        A no-op without an engine.  The maintainer calls this right
        after reconciling a batch so the displayed set's registrations
        (and, when the fragment network is on, their shared fragment
        chains) are warm before the scoring passes start querying —
        the network sees the whole overlapping set at once instead of
        discovering it pattern by pattern.
        """
        if self._engine is None:
            return
        for pattern in patterns:
            self._engine.register(canonical_certificate(pattern), pattern)

    # ------------------------------------------------------------------
    def cover(self, pattern: LabeledGraph) -> frozenset[int]:
        """``G_scov(p)`` within this oracle's graph view (cached).

        Containment checks consult the canonical-form embedding cache
        when caching is enabled, and the remaining (uncached) hosts fan
        out through the ambient :class:`~repro.parallel.pool.KernelPool`
        when one is installed.  Both paths return the same cover set as
        the plain serial loop; ``isomorphism_tests`` counts only the
        VF2 tests actually executed.
        """
        key = canonical_certificate(pattern)
        cached = self._cover_cache.get(key)
        if cached is not None:
            return cached
        if self._engine is not None:
            result = self._engine_cover(key, pattern)
        else:
            result = self._scan_cover(pattern)
        self._cover_cache[key] = result
        return result

    def marginal_reaches(
        self,
        pattern: LabeledGraph,
        excluded: Set[int],
        threshold: float,
    ) -> bool:
        """Whether ``|G_scov(p) ∖ excluded| ≥ threshold`` in this view.

        Answers from the cached cover when there is one.  Otherwise
        only the hosts outside *excluded* can contribute, so VF2 runs
        on those alone, in ascending id order, and stops as soon as the
        answer is decided: once the hits reach *threshold*, or once the
        hits plus the hosts still untested fall short of it.  With an
        engine attached, its known verdicts count first, only residual
        hosts its filter cannot decide are verified (seeded with its
        domains), and each verdict is committed to it.  Partial verdicts
        feed the embedding cache and ``isomorphism_tests`` but never the
        cover memo, which holds only complete covers.
        """
        key = canonical_certificate(pattern)
        cover = self._cover_cache.get(key)
        if cover is not None:
            return len(cover - excluded) >= threshold
        engine = self._engine
        if engine is not None:
            engine.register(key, pattern)
            pattern = engine.pattern(key)
            residual = [
                gid for gid in engine.pending(key) if gid not in excluded
            ]
            hits = len(engine.cover_ids(key) - excluded)
        else:
            residual = sorted(
                gid for gid in self._graphs if gid not in excluded
            )
            hits = 0
        caches = get_caches() if caching_enabled() else None
        untested = len(residual)
        for graph_id in residual:
            if hits >= threshold or hits + untested < threshold:
                break
            untested -= 1
            verdict = None
            if caches is not None:
                verdict = caches.embeddings.get_contains(
                    pattern, self._graphs[graph_id]
                )
            if verdict is None:
                domains = (
                    None
                    if engine is None
                    else {graph_id: engine.vertex_domains(key, graph_id)}
                )
                verdict = self._verify(pattern, [graph_id], domains)[0]
            if engine is not None:
                engine.commit(key, graph_id, verdict)
            hits += verdict
        return hits >= threshold

    def _scan_cover(self, pattern: LabeledGraph) -> frozenset[int]:
        """The unfiltered path: FCT/IFE prefilter + full verification."""
        if self._index_pair is not None:
            candidates = self._index_pair.candidate_graphs(
                pattern, self._graphs
            )
        else:
            candidates = set(self._graphs)
        caches = get_caches() if caching_enabled() else None
        covered = set()
        pending: list[int] = []
        for graph_id in sorted(candidates):
            if caches is not None:
                verdict = caches.embeddings.get_contains(
                    pattern, self._graphs[graph_id]
                )
                if verdict is not None:
                    if verdict:
                        covered.add(graph_id)
                    continue
            pending.append(graph_id)
        verdicts = self._verify(pattern, pending)
        for graph_id, verdict in zip(pending, verdicts):
            if verdict:
                covered.add(graph_id)
        return frozenset(covered)

    def _engine_cover(
        self, key: tuple, pattern: LabeledGraph
    ) -> frozenset[int]:
        """The engine path: posting-list filter + lazy delta verification.

        Only graphs whose verdict is unknown (fresh view, or inserted
        since the last query of this pattern) reach verification, and
        each verification is seeded with the engine's vertex domains.

        Verification runs on the engine's *stored* pattern for *key*,
        not the caller's object: isomorphic patterns share the canonical
        key but may permute vertex IDs, and the seeded domains are keyed
        by the stored pattern's vertex IDs.  The verdicts (and the
        embedding-cache keys, which are canonical) are identical either
        way.
        """
        engine = self._engine
        engine.register(key, pattern)
        pattern = engine.pattern(key)
        pending = engine.pending(key)
        caches = get_caches() if caching_enabled() else None
        unresolved: list[int] = []
        for graph_id in pending:
            if caches is not None:
                verdict = caches.embeddings.get_contains(
                    pattern, self._graphs[graph_id]
                )
                if verdict is not None:
                    engine.commit(key, graph_id, verdict)
                    continue
            unresolved.append(graph_id)
        domains = {
            graph_id: engine.vertex_domains(key, graph_id)
            for graph_id in unresolved
        }
        verdicts = self._verify(pattern, unresolved, domains)
        for graph_id, verdict in zip(unresolved, verdicts):
            engine.commit(key, graph_id, verdict)
        return engine.cover_ids(key)

    def _host_view(self) -> shared.HostView:
        """This oracle's live published host view (publish on first use).

        Parallel verification ships only ``(graph_id, domains)`` pairs;
        workers resolve the graphs from the fork-inherited view this
        returns.  The token is allocated once and retired when the
        oracle is garbage-collected; :meth:`apply_update` republishes
        under the same token so stale workers are invalidated by the
        generation/epoch bump.
        """
        if self._view_token is not None:
            view = shared.get_view(self._view_token)
            if view is not None and view.graphs is self._graphs:
                return view
        view = shared.publish_view(self._graphs, view_id=self._view_token)
        if self._view_token is None:
            self._view_token = view.view_id
            weakref.finalize(self, shared.retire_view, view.view_id)
        return view

    def _verify(
        self,
        pattern: LabeledGraph,
        pending: list[int],
        domains: Mapping[int, Mapping] | None = None,
    ) -> list[bool]:
        """Run VF2 on *pending* hosts (pool fan-out when worthwhile).

        Verdicts are written back to the embedding cache when caching is
        enabled; ``isomorphism_tests`` counts exactly these tests.
        """
        get_registry().counter("vf2.cover_calls").add(len(pending))
        caches = get_caches() if caching_enabled() else None
        pool = current_pool()
        if pool.worth_parallelizing(len(pending)):
            view = self._host_view()
            verdicts = pool.map(
                contains_view_kernel,
                [
                    (
                        graph_id,
                        None if domains is None else domains[graph_id],
                    )
                    for graph_id in pending
                ],
                payload=(view.view_id, view.generation, pattern),
            )
        else:
            verdicts = [
                contains(
                    self._graphs[graph_id],
                    pattern,
                    domains=None if domains is None else domains[graph_id],
                )
                for graph_id in pending
            ]
        self.isomorphism_tests += len(pending)
        if caches is not None:
            for graph_id, verdict in zip(pending, verdicts):
                host = self._graphs[graph_id]
                caches.embeddings.put_contains(pattern, host, verdict)
                caches.embeddings.bind(graph_id, host)
        return verdicts

    def scov(self, pattern: LabeledGraph) -> float:
        """``scov(p) = |G_p| / |D_s|``."""
        if not self._graphs:
            return 0.0
        return len(self.cover(pattern)) / len(self._graphs)

    def label_cover(self, pattern: LabeledGraph) -> frozenset[int]:
        key = canonical_certificate(pattern)
        cached = self._lcov_cache.get(key)
        if cached is not None:
            return cached
        result = frozenset(label_cover(pattern, self._graphs))
        self._lcov_cache[key] = result
        return result

    def lcov(self, pattern: LabeledGraph) -> float:
        if not self._graphs:
            return 0.0
        return len(self.label_cover(pattern)) / len(self._graphs)

    def graphs_with_edge_label(self, label: tuple[str, str]) -> set[int]:
        """Graphs in this view containing an edge with *label*."""
        return {
            graph_id
            for graph_id, graph in self._graphs.items()
            if label in graph.views().edge_label_set
        }

    # ------------------------------------------------------------------
    # set-level aggregates
    # ------------------------------------------------------------------
    def union_cover(
        self, patterns: Iterable[LabeledGraph]
    ) -> frozenset[int]:
        covered: set[int] = set()
        for pattern in patterns:
            covered |= self.cover(pattern)
        return frozenset(covered)

    def unique_cover(
        self,
        pattern: LabeledGraph,
        others: Iterable[LabeledGraph],
    ) -> frozenset[int]:
        """``G_scov(p) ∖ ⋃_{p'≠p} G_scov(p')`` (Definition 5.5)."""
        return self.cover(pattern) - self.union_cover(others)

    def set_scov(self, patterns: Iterable[LabeledGraph]) -> float:
        if not self._graphs:
            return 0.0
        return len(self.union_cover(patterns)) / len(self._graphs)

    def set_lcov(self, patterns: Iterable[LabeledGraph]) -> float:
        if not self._graphs:
            return 0.0
        covered: set[int] = set()
        for pattern in patterns:
            covered |= self.label_cover(pattern)
        return len(covered) / len(self._graphs)

    # ------------------------------------------------------------------
    # swap scores (Definition 6.2)
    # ------------------------------------------------------------------
    def loss_score(
        self, pattern: LabeledGraph, others: Iterable[LabeledGraph]
    ) -> float:
        """Set coverage lost if *pattern* were removed from P."""
        if not self._graphs:
            return 0.0
        return len(self.unique_cover(pattern, others)) / len(self._graphs)

    def benefit_score(
        self, candidate: LabeledGraph, current: Iterable[LabeledGraph]
    ) -> float:
        """Set coverage gained if *candidate* were added to P."""
        if not self._graphs:
            return 0.0
        gained = self.cover(candidate) - self.union_cover(current)
        return len(gained) / len(self._graphs)


# ----------------------------------------------------------------------
# pattern scores
# ----------------------------------------------------------------------
def midas_pattern_score(
    pattern: LabeledGraph,
    others: list[LabeledGraph],
    oracle: CoverageOracle,
    ged_method: str = "tight_lower",
) -> float:
    """``s'_p = scov(p) × lcov(p) × div(p, P∖p) / cog(p)`` (Section 6.1)."""
    load = cognitive_load(pattern)
    if load <= 0:
        return 0.0
    div = diversity(pattern, others, method=ged_method)
    if div == float("inf"):
        div = pattern.num_edges + pattern.num_vertices  # lone pattern
    return oracle.scov(pattern) * oracle.lcov(pattern) * div / load


def catapult_pattern_score(
    pattern: LabeledGraph,
    others: list[LabeledGraph],
    cluster_coverage: float,
    oracle: CoverageOracle,
    ged_method: str = "lower",
) -> float:
    """``s_p = ccov × lcov × div/cog`` (Definition 2.1)."""
    load = cognitive_load(pattern)
    if load <= 0:
        return 0.0
    div = diversity(pattern, others, method=ged_method)
    if div == float("inf"):
        div = pattern.num_edges + pattern.num_vertices
    return cluster_coverage * oracle.lcov(pattern) * div / load


def pattern_set_quality(
    pattern_set: PatternSet | list[CannedPattern],
    oracle: CoverageOracle,
    ged_method: str = "tight_lower",
) -> dict[str, float]:
    """The four set-level measures plus the multiplicative set score.

    Returns ``{"scov", "lcov", "div", "cog", "score"}`` where score is
    ``f_scov × f_lcov × f_div / f_cog`` (Section 6.1).
    """
    patterns = [
        p.graph for p in (pattern_set if isinstance(pattern_set, list) else list(pattern_set))
    ]
    if not patterns:
        return {"scov": 0.0, "lcov": 0.0, "div": 0.0, "cog": 0.0, "score": 0.0}
    f_scov = oracle.set_scov(patterns)
    f_lcov = oracle.set_lcov(patterns)
    divs = [
        diversity(p, patterns[:i] + patterns[i + 1 :], method=ged_method)
        for i, p in enumerate(patterns)
    ]
    finite = [d for d in divs if d != float("inf")]
    f_div = min(finite) if finite else 0.0
    f_cog = max(cognitive_load(p) for p in patterns)
    score = f_scov * f_lcov * f_div / f_cog if f_cog > 0 else 0.0
    return {
        "scov": f_scov,
        "lcov": f_lcov,
        "div": f_div,
        "cog": f_cog,
        "score": score,
    }
