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
swap evaluations stay cheap.  An oracle's view is fixed at construction.
A database batch gets the previous oracle's :meth:`CoverageOracle.successor`
over the new view: it carries every complete cover and updates one on
first request by verifying only the hosts new to the view, so a round
pays for the batch, not for the sample.
"""

from __future__ import annotations

import weakref
from collections import Counter
from collections.abc import Collection, Iterable, Mapping, Set

from ..cache.stores import cached_ged_value, caching_enabled, get_caches
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
    """

    def __init__(
        self,
        graphs: Mapping[int, LabeledGraph],
        index_pair: IndexPair | None = None,
    ) -> None:
        self._graphs = dict(graphs)
        self._index_pair = index_pair
        self._cover_cache: dict[tuple, frozenset[int]] = {}
        self._lcov_cache: dict[tuple, frozenset[int]] = {}
        # Covers carried from the previous view by successor(): valid on
        # the ``_stable`` hosts, still to be verified on ``_fresh`` ones.
        self._carried: dict[tuple, frozenset[int]] = {}
        self._stable: frozenset[int] = frozenset()
        self._fresh: tuple[int, ...] = ()
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

    def __setstate__(self, state):
        # Checkpoints written with the retired coverage engine switched
        # on carry it as ``_engine``; its covers equal the full scan's,
        # so the memo tables stay valid and the engine is dropped.
        # Oracles pickled before covers were carried have no carried
        # state: they start with none.
        state.pop("_engine", None)
        state.setdefault("_carried", {})
        state.setdefault("_stable", frozenset())
        state.setdefault("_fresh", ())
        self.__dict__.update(state)

    def successor(
        self, graphs: Mapping[int, LabeledGraph]
    ) -> "CoverageOracle":
        """An oracle over a new view that carries this oracle's covers.

        Every complete cover memoised here moves to the new oracle and
        is updated on its first request: ``cover ∩ stable`` plus the
        verdicts (through the FCT/IFE prefilter) of the hosts that are
        new to the view.  A host is stable when the new view holds the
        very graph object this view held under its ID; the database
        never rebinds a graph ID, so after a batch only inserted and
        newly sampled hosts are verified.  Covers carried here but
        never requested are not carried further, so the memo stays
        bounded by one view's entries, and the new oracle keeps no
        reference to this one.
        """
        stable = frozenset(
            graph_id
            for graph_id, graph in graphs.items()
            if self._graphs.get(graph_id) is graph
        )
        following = CoverageOracle(graphs, index_pair=self._index_pair)
        following._stable = stable
        following._fresh = tuple(sorted(set(graphs) - stable))
        following._carried = dict(self._cover_cache)
        return following

    @property
    def universe_size(self) -> int:
        return len(self._graphs)

    def graph_ids(self) -> set[int]:
        return set(self._graphs)

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
        cached = self._complete_cover(key, pattern)
        if cached is not None:
            return cached
        result = self._scan_cover(pattern, self._graphs)
        self._cover_cache[key] = result
        return result

    def _complete_cover(
        self, key: tuple, pattern: LabeledGraph
    ) -> frozenset[int] | None:
        """The memoised cover, updating a carried one on first request."""
        cover = self._cover_cache.get(key)
        if cover is None:
            carried = self._carried.pop(key, None)
            if carried is not None:
                cover = (carried & self._stable) | self._scan_cover(
                    pattern, self._fresh
                )
                self._cover_cache[key] = cover
        return cover

    def marginal_reaches(
        self,
        pattern: LabeledGraph,
        excluded: Set[int],
        threshold: float,
    ) -> bool:
        """Whether ``|G_scov(p) ∖ excluded| ≥ threshold`` in this view.

        Answers from the memoised (or carried) cover when there is one.
        Otherwise only the hosts outside *excluded* can contribute, so
        VF2 runs on those alone, in ascending id order, and stops as
        soon as the answer is decided: once the hits reach *threshold*,
        or once the hits plus the hosts still untested fall short of
        it.  Partial verdicts feed the embedding cache and
        ``isomorphism_tests`` but never the cover memo, which holds
        only complete covers.
        """
        key = canonical_certificate(pattern)
        cover = self._complete_cover(key, pattern)
        if cover is not None:
            return len(cover - excluded) >= threshold
        residual = sorted(gid for gid in self._graphs if gid not in excluded)
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
                verdict = self._verify(pattern, [graph_id])[0]
            hits += verdict
        return hits >= threshold

    def _scan_cover(
        self, pattern: LabeledGraph, hosts: Collection[int]
    ) -> frozenset[int]:
        """FCT/IFE prefilter (when indexed) + verification of *hosts*."""
        if not hosts:
            return frozenset()
        if self._index_pair is not None:
            candidates = self._index_pair.candidate_graphs(pattern, hosts)
        else:
            candidates = set(hosts)
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

    def _host_view(self) -> shared.HostView:
        """This oracle's published host view (publish on first use).

        Parallel verification ships only graph IDs; workers resolve the
        graphs from the fork-inherited view this returns.  The view is
        retired when the oracle is garbage-collected; a new oracle
        publishes its own view, and the epoch bump restarts workers
        forked before it.
        """
        if self._view_token is None:
            view = shared.publish_view(self._graphs)
            self._view_token = view.view_id
            weakref.finalize(self, shared.retire_view, view.view_id)
            return view
        return shared.get_view(self._view_token)

    def _verify(
        self,
        pattern: LabeledGraph,
        pending: list[int],
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
                pending,
                payload=(view.view_id, pattern),
            )
        else:
            verdicts = [
                contains(self._graphs[graph_id], pattern)
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


class PanelCovers:
    """The covers of one displayed panel, computed once per panel.

    Slots follow the order of *patterns*.  ``unique[i]`` is
    ``G_scov(p_i) ∖ ⋃_{j≠i} G_scov(p_j)`` (Definition 5.5), read off
    host multiplicities in one pass instead of one union per slot.
    Pruning and the swap's loss scores both read these values.
    """

    def __init__(
        self, oracle: CoverageOracle, patterns: Iterable[LabeledGraph]
    ) -> None:
        self.covers = [oracle.cover(pattern) for pattern in patterns]
        multiplicity: Counter[int] = Counter()
        for cover in self.covers:
            multiplicity.update(cover)
        self.union = frozenset(multiplicity)
        self.unique = [
            frozenset(gid for gid in cover if multiplicity[gid] == 1)
            for cover in self.covers
        ]

    def minimum_unique(self) -> int:
        """``min_p |G_scov(p) ∖ ⋃_{p'≠p} G_scov(p')|``; 0 for no slots."""
        return min((len(unique) for unique in self.unique), default=0)


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
