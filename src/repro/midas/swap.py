"""Swap-based pattern maintenance: the multi-scan swap of Section 6.2.

Given the existing canned patterns ``P`` and the promising final
candidate patterns, MIDAS ranks candidates by decreasing modified pattern
score ``s'`` and existing patterns by increasing ``s'``, then repeatedly
considers swapping the worst displayed pattern for the best remaining
candidate.  A swap happens only when **all** criteria hold:

* **sw1** — benefit ≥ (1 + κ) × loss (marginal set coverage);
* **sw2** — ``s'(candidate) ≥ (1 + λ) s'(pattern)``;
* **sw3** — set diversity does not drop;
* **sw4** — set cognitive load does not rise;
* **sw5** — set label coverage does not drop;
* the pattern-size distributions before/after are KS-similar.

A scan terminates when sw2 fails (candidates are sorted, so no later
candidate can pass either) or candidates run out; scans repeat — with κ
optionally following the SWAP_α schedule of Lemma 6.3 — until a scan
performs no swap or the scan budget is exhausted.  Together the criteria
guarantee the progressive-gain property: coverage strictly improves
while diversity, cognitive load and label coverage never regress.

Checks read per-panel state (:class:`_Panel`), built once per displayed
panel and rebuilt after each executed swap, so one (victim, candidate)
check costs O(k) for a panel of k patterns; docs/ALGORITHMS.md has the
cost model.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from ..exceptions import ResilienceError
from ..graph.canonical import canonical_certificate
from ..graph.labeled_graph import LabeledGraph
from ..obs import get_registry
from ..parallel.kernels import ged_pairs_kernel
from ..parallel.pool import current_pool
from ..resilience.budget import current_budget
from ..resilience.degrade import (
    anytime_degradation,
    degradation_enabled,
    resilient_ged,
)
from ..patterns.metrics import CoverageOracle, PanelCovers, cognitive_load
from ..patterns.pattern import PatternSet
from ..utils.stats import ks_similarity


def kappa_schedule(sigma_previous: float) -> tuple[float, float]:
    """One step of the SWAP_α schedule (Lemma 6.3).

    Given the previous scan's approximation-ratio lower bound σ_{t−1},
    returns ``(κ_t, σ_t)`` with ``κ_t = 1 − 2σ_{t−1}`` and
    ``σ_t = 0.25 / (1 − σ_{t−1})``.  Once σ reaches 0.5 the schedule is
    a fixed point (κ = 0).
    """
    if sigma_previous >= 0.5:
        return 0.0, 0.5
    kappa = 1.0 - 2.0 * sigma_previous
    sigma = 0.25 / (1.0 - sigma_previous)
    return kappa, sigma


@dataclass
class SwapRecord:
    """One executed swap."""

    removed_id: int
    removed_graph: LabeledGraph
    added_id: int
    added_graph: LabeledGraph
    scan: int


@dataclass
class SwapOutcome:
    """Result of a full multi-scan run."""

    swaps: list[SwapRecord] = field(default_factory=list)
    scans: int = 0
    candidates_considered: int = 0
    rejected_sw1: int = 0
    rejected_quality: int = 0
    terminated_by_sw2: bool = False
    # Degraded-mode bookkeeping: the scan loop stopped early on a budget
    # (truncated) and/or some pairwise distances fell down the GED
    # fidelity ladder instead of using the requested method.
    truncated: bool = False
    degraded_distances: int = 0
    #: Every (victim, candidate) check in order: ``(scan, candidate
    #: index in the input list, victim pattern ID, verdict)``, the
    #: verdict being the first failed condition or ``"swap"``.
    decisions: list[tuple[int, int, int, str]] = field(default_factory=list)

    @property
    def num_swaps(self) -> int:
        return len(self.swaps)

    @property
    def degraded(self) -> bool:
        return self.truncated or self.degraded_distances > 0


class MultiScanSwapper:
    """Executes the multi-scan swap against a live :class:`PatternSet`."""

    def __init__(
        self,
        oracle: CoverageOracle,
        kappa: float = 0.1,
        lambda_: float = 0.1,
        ged_method: str = "tight_lower",
        ks_alpha: float = 0.05,
        max_scans: int = 3,
        adaptive_kappa: bool = False,
        sigma_initial: float = 0.25,
    ) -> None:
        self.oracle = oracle
        self.kappa = kappa
        self.lambda_ = lambda_
        self.ged_method = ged_method
        self.ks_alpha = ks_alpha
        self.max_scans = max_scans
        self.adaptive_kappa = adaptive_kappa
        self.sigma_initial = sigma_initial
        # Swap evaluation is O(γ³) pairwise GEDs per candidate; memoise
        # pairwise distances by certificate pair (each graph caches its
        # own certificate).
        self._ged_cache: dict[tuple, float] = {}
        self._degraded_distances = 0
        # Memo hits/misses, counted locally and published by run().
        self._ged_hits = 0
        self._ged_misses = 0
        # (cog, scov × lcov) per graph object, for the current run.
        self._graph_terms: dict[int, tuple[float, float]] = {}

    # ------------------------------------------------------------------
    def _distance(self, first: LabeledGraph, second: LabeledGraph) -> float:
        pair = tuple(
            sorted((canonical_certificate(first), canonical_certificate(second)))
        )
        cached = self._ged_cache.get(pair)
        if cached is None:
            self._ged_misses += 1
            result = resilient_ged(first, second, method=self.ged_method)
            cached = float(result.value)
            if result.degraded:
                # Don't cache a degraded value: a later call with budget
                # headroom should get the full-fidelity distance.
                self._degraded_distances += 1
            else:
                self._ged_cache[pair] = cached
        else:
            self._ged_hits += 1
        return cached

    # ------------------------------------------------------------------
    def _prewarm_distances(
        self,
        pattern_set: PatternSet,
        candidates: list[LabeledGraph],
    ) -> None:
        """Batch-fill the pairwise GED memo through the ambient pool.

        Swap scans evaluate (almost) every pairwise distance among the
        patterns and candidates; computing them up front lets the pool
        fan the matrix out across workers.  Only full-fidelity values
        are stored — a pair that degraded inside a worker is left for
        the lazy path to recompute (and count) exactly as the serial
        scan would, so outcomes are byte-identical either way.
        """
        graphs = [p.graph for p in pattern_set] + list(candidates)
        unique: dict[tuple, LabeledGraph] = {}
        for graph in graphs:
            unique.setdefault(canonical_certificate(graph), graph)
        keys = sorted(unique)
        pairs = [
            (keys[i], keys[j])
            for i in range(len(keys))
            for j in range(i + 1, len(keys))
            if (keys[i], keys[j]) not in self._ged_cache
        ]
        pool = current_pool()
        if not pool.worth_parallelizing(len(pairs)):
            return
        items = [(unique[a], unique[b]) for a, b in pairs]
        results = pool.map(ged_pairs_kernel, items, payload=self.ged_method)
        for pair, (value, fidelity) in zip(pairs, results):
            if fidelity == self.ged_method:
                self._ged_cache[pair] = float(value)

    # ------------------------------------------------------------------
    def _score(
        self, graph: LabeledGraph, diversity: Callable[[], float]
    ) -> float:
        """``s' = scov × lcov × div / cog`` of *graph*.

        ``cog`` and ``scov × lcov`` are memoised per run; the product and
        *diversity* (which yields ``div``) are evaluated only for a
        positive load.  Subclasses may reweight the score (e.g. by a
        query log).
        """
        terms = self._graph_terms.get(id(graph))
        if terms is None:
            load = cognitive_load(graph)
            coverage = (
                self.oracle.scov(graph) * self.oracle.lcov(graph)
                if load > 0
                else 0.0
            )
            terms = self._graph_terms[id(graph)] = (load, coverage)
        load, coverage = terms
        if load <= 0:
            return 0.0
        return coverage * diversity() / load

    # ------------------------------------------------------------------
    def run(
        self,
        pattern_set: PatternSet,
        candidates: list[LabeledGraph],
        provenance: str = "midas",
        panel: PanelCovers | None = None,
    ) -> SwapOutcome:
        """Run up to ``max_scans`` scans, mutating *pattern_set* in place.

        *panel*, when given, holds the covers of *pattern_set* as it is
        now (the maintainer passes the one pruning built).

        The scan loop is *anytime*: every executed swap satisfied sw1–sw5
        when it happened, so if the ambient budget expires mid-run the
        swaps so far stand and the outcome is marked ``truncated``.
        """
        outcome = SwapOutcome()
        self._degraded_distances = 0
        if not candidates or len(pattern_set) == 0:
            return outcome
        self._prewarm_distances(pattern_set, candidates)
        ambient = current_budget()
        self._graph_terms = {}
        try:
            outcome = self._run_scans(
                pattern_set, candidates, provenance, outcome, panel, ambient
            )
        except ResilienceError:
            if not degradation_enabled():
                raise
            outcome.truncated = True
            anytime_degradation("midas.swap")
        finally:
            self._graph_terms = {}
            self._flush_ged_counts()
        outcome.degraded_distances = self._degraded_distances
        registry = get_registry()
        registry.counter("swap.scans").add(outcome.scans)
        registry.counter("swap.candidates_considered").add(
            outcome.candidates_considered
        )
        registry.counter("swap.swaps").add(outcome.num_swaps)
        return outcome

    def _flush_ged_counts(self) -> None:
        """Publish the GED memo hits/misses counted since the last flush."""
        registry = get_registry()
        for name, count in (
            ("swap.ged_cache_hits", self._ged_hits),
            ("swap.ged_cache_misses", self._ged_misses),
        ):
            if count:
                registry.counter(name).add(count)
        self._ged_hits = self._ged_misses = 0

    def _run_scans(
        self,
        pattern_set: PatternSet,
        candidates: list[LabeledGraph],
        provenance: str,
        outcome: SwapOutcome,
        covers: PanelCovers | None,
        ambient,
    ) -> SwapOutcome:
        position_of = {id(c): i for i, c in enumerate(candidates)}
        remaining = list(candidates)
        panel = _Panel(self, pattern_set, covers)
        sigma = self.sigma_initial
        for scan in range(1, self.max_scans + 1):
            if ambient is not None:
                ambient.check("midas.swap")
            if self.adaptive_kappa:
                kappa, sigma = kappa_schedule(sigma)
            else:
                kappa = self.kappa
            outcome.scans = scan
            # Candidates in decreasing s', patterns in increasing s'.
            remaining.sort(key=lambda c: -panel.candidate_score(c))
            swapped_this_scan = False
            terminated = False
            queue = list(remaining)
            for candidate in queue:
                if len(pattern_set) == 0 or terminated:
                    break
                if pattern_set.has_isomorphic(candidate):
                    remaining.remove(candidate)
                    continue
                outcome.candidates_considered += 1
                # Victims in increasing s' (the pattern priority queue);
                # a candidate may skip a protected low-score victim and
                # still swap out the next one.
                for position, slot in enumerate(panel.victim_order()):
                    verdict = panel.check(slot, candidate, kappa)
                    victim_id = panel.ids[slot]
                    outcome.decisions.append(
                        (scan, position_of[id(candidate)], victim_id, verdict)
                    )
                    if verdict == "sw2":
                        # Candidates are sorted by decreasing s', so once
                        # the best remaining candidate cannot beat even
                        # the weakest pattern the whole scan is done
                        # (sw2 against later victims only gets harder).
                        if position == 0:
                            outcome.terminated_by_sw2 = True
                            terminated = True
                        break
                    if verdict == "sw1":
                        outcome.rejected_sw1 += 1
                        continue
                    if verdict != "swap":
                        outcome.rejected_quality += 1
                        continue
                    removed = pattern_set.get(victim_id)
                    added = pattern_set.swap(
                        victim_id, candidate, provenance=provenance
                    )
                    outcome.swaps.append(
                        SwapRecord(
                            removed_id=victim_id,
                            removed_graph=removed.graph,
                            added_id=added.pattern_id,
                            added_graph=added.graph,
                            scan=scan,
                        )
                    )
                    remaining.remove(candidate)
                    swapped_this_scan = True
                    panel = _Panel(self, pattern_set)
                    break
            if not swapped_this_scan or terminated:
                break
        return outcome


class _Panel:
    """The swap's view of one displayed panel, built once per panel.

    Everything a (victim, candidate) check reads that depends on the
    panel alone lives here: the slot-indexed k×k distance matrix, each
    slot's s' and the victim order, each victim's loss, the union
    cover, the set quality, per victim the label-cover union of the
    other patterns, and KS verdicts keyed by (victim size, candidate
    size).  A check then reads the candidate's k-entry distance row, so
    it costs O(k) rather than the O(k²) set-quality rebuild of
    evaluating each pair from scratch.  The swapper builds a new panel
    after each executed swap.

    Entries are filled on first use, so no GED is computed that the
    per-pair evaluation would not compute, and a value that rests on a
    degraded (budget-truncated) distance is never memoised: it is
    recomputed on every read, as the per-pair evaluation does.
    """

    def __init__(
        self,
        swapper: MultiScanSwapper,
        pattern_set: PatternSet,
        covers: PanelCovers | None = None,
    ) -> None:
        self.swapper = swapper
        self.oracle = swapper.oracle
        self.ids = pattern_set.ids()
        self.graphs = [pattern_set.get(pid).graph for pid in self.ids]
        if covers is None:
            covers = PanelCovers(self.oracle, self.graphs)
        self.size = self.oracle.universe_size
        self.union = covers.union
        self.loss = [
            len(unique) / self.size if self.size else 0.0
            for unique in covers.unique
        ]
        k = len(self.graphs)
        self._matrix: list[list[float | None]] = [[None] * k for _ in range(k)]
        self._rows: dict[int, list[float | None]] = {}
        self._benefit: dict[int, float] = {}
        self._labels: dict[int, frozenset[int]] = {}
        self._ks: dict[tuple[int, int], bool] = {}
        self._memos: dict[tuple, object] = {}

    # ------------------------------------------------------------------
    def _memo(self, key: tuple, compute):
        """``compute()``, memoised unless a distance it read degraded."""
        value = self._memos.get(key)
        if value is None:
            mark = self.swapper._degraded_distances
            value = compute()
            if self.swapper._degraded_distances == mark:
                self._memos[key] = value
        return value

    def _pair(self, row: list, j: int, first: LabeledGraph) -> float:
        """Entry *j* of a distance row from *first* to slot *j*."""
        value = row[j]
        if value is None:
            mark = self.swapper._degraded_distances
            value = self.swapper._distance(first, self.graphs[j])
            if self.swapper._degraded_distances == mark:
                row[j] = value
        return value

    def distance(self, i: int, j: int) -> float:
        value = self._pair(self._matrix[i], j, self.graphs[i])
        if self._matrix[i][j] is not None:
            self._matrix[j][i] = value
        return value

    def _row(self, candidate: LabeledGraph) -> list[float | None]:
        row = self._rows.get(id(candidate))
        if row is None:
            row = self._rows[id(candidate)] = [None] * len(self.graphs)
        return row

    # ------------------------------------------------------------------
    # scores
    # ------------------------------------------------------------------
    def _slot_diversity(self, slot: int) -> float:
        if len(self.graphs) == 1:
            graph = self.graphs[slot]
            return float(graph.num_edges + graph.num_vertices)
        return min(
            self.distance(slot, j)
            for j in range(len(self.graphs))
            if j != slot
        )

    def slot_score(self, slot: int) -> float:
        """``s'`` of the pattern in *slot* against the rest of the panel."""

        return self._memo(
            ("score", slot),
            lambda: self.swapper._score(
                self.graphs[slot], lambda: self._slot_diversity(slot)
            ),
        )

    def victim_order(self) -> list[int]:
        """Slots by increasing ``s'``, ties in pattern-ID order."""
        return self._memo(
            ("order",),
            lambda: sorted(range(len(self.graphs)), key=self.slot_score),
        )

    def _row_minimum(
        self, candidate: LabeledGraph, victim: int | None
    ) -> float:
        """Minimum distance from *candidate* to the panel's slots other
        than *victim* (all slots for ``None``)."""
        row = self._row(candidate)
        return min(
            self._pair(row, j, candidate)
            for j in range(len(self.graphs))
            if j != victim
        )

    def candidate_score(
        self, candidate: LabeledGraph, victim: int | None = None
    ) -> float:
        """``s'`` of *candidate* against the panel, or against the
        panel without slot *victim*."""

        def diversity() -> float:
            if victim is not None and len(self.graphs) == 1:
                return float(candidate.num_edges + candidate.num_vertices)
            return self._row_minimum(candidate, victim)

        return self.swapper._score(candidate, diversity)

    def quality(self) -> tuple[float, float, float]:
        """(f_div, f_cog, f_lcov) of the panel."""

        def compute() -> tuple[float, float, float]:
            k = len(self.graphs)
            f_div = (
                min(self._slot_diversity(i) for i in range(k))
                if k > 1
                else 0.0
            )
            f_cog = max(cognitive_load(p) for p in self.graphs)
            return f_div, f_cog, self.oracle.set_lcov(self.graphs)

        return self._memo(("quality",), compute)

    def _prospective_lcov(
        self, victim: int, candidate: LabeledGraph
    ) -> float:
        """f_lcov of the panel with *victim* swapped for *candidate*."""
        if not self.size:
            return 0.0
        labels = self._labels.get(victim)
        if labels is None:
            covered: set[int] = set()
            for j, pattern in enumerate(self.graphs):
                if j != victim:
                    covered |= self.oracle.label_cover(pattern)
            labels = self._labels[victim] = frozenset(covered)
        return len(labels | self.oracle.label_cover(candidate)) / self.size

    def _ks_similar(self, victim: int, candidate: LabeledGraph) -> bool:
        key = (self.graphs[victim].num_edges, candidate.num_edges)
        verdict = self._ks.get(key)
        if verdict is None:
            before = [p.num_edges for p in self.graphs]
            after = [
                p.num_edges for j, p in enumerate(self.graphs) if j != victim
            ] + [candidate.num_edges]
            verdict = self._ks[key] = ks_similarity(
                before, after, self.swapper.ks_alpha
            )
        return verdict

    def _benefit_of(self, candidate: LabeledGraph) -> float:
        benefit = self._benefit.get(id(candidate))
        if benefit is None:
            gained = self.oracle.cover(candidate) - self.union
            benefit = len(gained) / self.size if self.size else 0.0
            self._benefit[id(candidate)] = benefit
        return benefit

    # ------------------------------------------------------------------
    def check(
        self, victim: int, candidate: LabeledGraph, kappa: float
    ) -> str:
        """sw2 → sw1 → KS → sw3 → sw4 → sw5 for swapping the pattern in
        slot *victim* for *candidate*.

        Returns the first failed condition (``"sw2"``, ``"sw1"``,
        ``"ks"``, ``"sw3"``, ``"sw4"``, ``"sw5"``) or ``"swap"``.
        """
        # sw2 first: it also terminates the scan.
        score_victim = self.slot_score(victim)
        score_candidate = self.candidate_score(candidate, victim)
        if score_candidate < (1.0 + self.swapper.lambda_) * score_victim:
            return "sw2"
        # sw1: benefit vs loss on marginal set coverage.
        if self._benefit_of(candidate) < (1.0 + kappa) * self.loss[victim]:
            return "sw1"
        # Size distribution similarity (KS test).
        if not self._ks_similar(victim, candidate):
            return "ks"
        # sw3–sw5: set-level quality must not regress.  The other
        # patterns' pairs and loads are part of the panel's, so they can
        # neither pull f_div below the panel's nor push f_cog above it:
        # only the candidate's distances and load can.
        div_before, cog_before, lcov_before = self.quality()
        if (
            len(self.graphs) > 1
            and self._row_minimum(candidate, victim) < div_before
        ):
            return "sw3"
        if cognitive_load(candidate) > cog_before:
            return "sw4"
        if self._prospective_lcov(victim, candidate) < lcov_before:
            return "sw5"
        return "swap"
