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
"""

from __future__ import annotations

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
from ..patterns.metrics import (
    CoverageOracle,
    cognitive_load,
)
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

    # ------------------------------------------------------------------
    # scores and set-level quality
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

    def _diversity(
        self, pattern: LabeledGraph, others: list[LabeledGraph]
    ) -> float:
        if not others:
            return float(pattern.num_edges + pattern.num_vertices)
        return min(self._distance(pattern, other) for other in others)

    def _score(
        self, pattern: LabeledGraph, others: list[LabeledGraph]
    ) -> float:
        load = cognitive_load(pattern)
        if load <= 0:
            return 0.0
        return (
            self.oracle.scov(pattern)
            * self.oracle.lcov(pattern)
            * self._diversity(pattern, others)
            / load
        )

    def _set_quality(
        self, patterns: list[LabeledGraph]
    ) -> tuple[float, float, float]:
        """(f_div, f_cog, f_lcov) of a prospective pattern set."""
        if not patterns:
            return 0.0, 0.0, 0.0
        divs = []
        for i, pattern in enumerate(patterns):
            others = patterns[:i] + patterns[i + 1 :]
            if others:
                divs.append(self._diversity(pattern, others))
        f_div = min(divs) if divs else 0.0
        f_cog = max(cognitive_load(p) for p in patterns)
        f_lcov = self.oracle.set_lcov(patterns)
        return f_div, f_cog, f_lcov

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
    def _swap_allowed(
        self,
        pattern_set: PatternSet,
        victim_id: int,
        candidate: LabeledGraph,
        kappa: float,
        outcome: SwapOutcome,
    ) -> tuple[bool, bool]:
        """Evaluate sw1–sw5 + KS.  Returns (allowed, sw2_failed)."""
        victim = pattern_set.get(victim_id).graph
        current = [p.graph for p in pattern_set]
        others = [
            p.graph for p in pattern_set if p.pattern_id != victim_id
        ]
        prospective = others + [candidate]

        # sw2 first: it also terminates the scan.
        score_victim = self._score(victim, others)
        score_candidate = self._score(candidate, others)
        if score_candidate < (1.0 + self.lambda_) * score_victim:
            return False, True

        # sw1: benefit vs loss on marginal set coverage.
        benefit = self.oracle.benefit_score(candidate, current)
        loss = self.oracle.loss_score(victim, others)
        if benefit < (1.0 + kappa) * loss:
            outcome.rejected_sw1 += 1
            return False, False

        # Size distribution similarity (KS test).
        before_sizes = [p.num_edges for p in current]
        after_sizes = [p.num_edges for p in prospective]
        if not ks_similarity(before_sizes, after_sizes, self.ks_alpha):
            outcome.rejected_quality += 1
            return False, False

        # sw3–sw5: set-level quality must not regress.
        div_before, cog_before, lcov_before = self._set_quality(current)
        div_after, cog_after, lcov_after = self._set_quality(prospective)
        if div_after < div_before:
            outcome.rejected_quality += 1
            return False, False
        if cog_after > cog_before:
            outcome.rejected_quality += 1
            return False, False
        if lcov_after < lcov_before:
            outcome.rejected_quality += 1
            return False, False
        return True, False

    # ------------------------------------------------------------------
    def run(
        self,
        pattern_set: PatternSet,
        candidates: list[LabeledGraph],
        provenance: str = "midas",
    ) -> SwapOutcome:
        """Run up to ``max_scans`` scans, mutating *pattern_set* in place.

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
        sigma = self.sigma_initial
        remaining = list(candidates)
        try:
            outcome = self._run_scans(
                pattern_set, remaining, provenance, outcome, sigma, ambient
            )
        except ResilienceError:
            if not degradation_enabled():
                raise
            outcome.truncated = True
            anytime_degradation("midas.swap")
        finally:
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
        remaining: list[LabeledGraph],
        provenance: str,
        outcome: SwapOutcome,
        sigma: float,
        ambient,
    ) -> SwapOutcome:
        for scan in range(1, self.max_scans + 1):
            if ambient is not None:
                ambient.check("midas.swap")
            if self.adaptive_kappa:
                kappa, sigma = kappa_schedule(sigma)
            else:
                kappa = self.kappa
            outcome.scans = scan
            # Candidates in decreasing s', patterns in increasing s'.
            pattern_graphs = [p.graph for p in pattern_set]
            remaining.sort(
                key=lambda c: -self._score(c, pattern_graphs)
            )
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
                victims = sorted(
                    pattern_set.ids(),
                    key=lambda pid: self._score(
                        pattern_set.get(pid).graph,
                        [
                            p.graph
                            for p in pattern_set
                            if p.pattern_id != pid
                        ],
                    ),
                )
                for position, victim_id in enumerate(victims):
                    allowed, sw2_failed = self._swap_allowed(
                        pattern_set, victim_id, candidate, kappa, outcome
                    )
                    if sw2_failed:
                        # Candidates are sorted by decreasing s', so once
                        # the best remaining candidate cannot beat even
                        # the weakest pattern the whole scan is done
                        # (sw2 against later victims only gets harder).
                        if position == 0:
                            outcome.terminated_by_sw2 = True
                            terminated = True
                        break
                    if not allowed:
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
                    break
            if not swapped_this_scan or terminated:
                break
        return outcome
