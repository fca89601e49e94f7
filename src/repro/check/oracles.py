"""The oracle registry: fast-path vs reference differential checks.

Every performance-bearing path in the repo promises *byte-identical*
results to a slow reference — incremental FCT/index maintenance vs
rebuild, pruned promising tests vs the literal definition, swap
decisions on per-panel state vs per-pair evaluation.  Each
:class:`Oracle` here packages one such promise as a pure function
``(workload) -> Mismatch | None``: it runs both sides on the same
:class:`~repro.check.workload.Workload` and reports the first
disagreement.  Metamorphic oracles (``canonical``,
``ged``, ``scov``) check properties with no second implementation —
vertex-ID permutation invariance, bound sandwiches, the triangle
inequality, insert-only monotonicity.

Oracles are deterministic, isolated (each installs its own ambient
toggles; nothing leaks between runs) and exception-safe only by
convention — the fuzzer's ``evaluate`` wrapper converts an escaped
exception into a ``Mismatch(code="exception")``, so a crash is a
finding, not a harness failure.

``workload_kwargs`` per oracle tunes the fuzzer's generator: the ``vf2``
and ``ged`` oracles need tiny graphs (brute force / exact A*), ``index``
bounds the deletion fraction per batch because the FCT incremental ≡
rebuild identity holds only while support inflation stays under the 2×
relaxed-threshold headroom (paper Lemmas 3.4/4.5 — see
``docs/CORRECTNESS.md``), and ``scov`` wants insert-only batches.
"""

from __future__ import annotations

import copy
import itertools
import random
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

from ..catapult.candidate import (
    CandidateGenerator,
    CandidatePattern,
    EdgeGate,
    EdgePriority,
    _biased_count,
    _extract_pattern,
)
from ..catapult.random_walk import decay_weights
from ..catapult.selection import MWU_DECAY
from ..csg.summary import SummaryGraph, build_csg
from ..ged import ged
from ..graph.canonical import canonical_certificate
from ..graph.labeled_graph import LabeledGraph, edge_key
from ..index.maintenance import IndexPair
from ..isomorphism.matcher import contains, count_embeddings
from ..midas.pruning import PruningContext
from ..midas.swap import MultiScanSwapper, kappa_schedule
from ..patterns.budget import PatternBudget
from ..patterns.metrics import CoverageOracle, cognitive_load
from ..patterns.pattern import PatternSet
from ..serve.snapshot import SnapshotStore, build_snapshot
from ..trees.maintenance import FCTSet
from .workload import Mismatch, Workload, permuted_copy

#: Support threshold used by the ``index`` oracle's FCT sets — high
#: enough that mining tiny fuzz views stays cheap.
FCT_SUP_MIN = 0.4

#: Exact GED (A*) and the triangle-inequality sweep only run on graphs
#: this small; beyond it the ``ged`` oracle checks bound consistency.
EXACT_GED_MAX_VERTICES = 4


@dataclass(frozen=True)
class Oracle:
    """One differential (or metamorphic) check, registry-addressable."""

    name: str
    description: str
    fn: Callable[[Workload], Mismatch | None]
    #: Generator hints for :func:`repro.check.fuzz.random_workload`.
    workload_kwargs: Mapping = field(default_factory=dict)

    def __call__(self, workload: Workload) -> Mismatch | None:
        return self.fn(workload)


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _all_graphs(workload: Workload) -> list[tuple[str, LabeledGraph]]:
    """Every distinct graph object in the workload, with a locator tag."""
    entries = [
        (f"initial[{gid}]", graph)
        for gid, graph in sorted(workload.graphs.items())
    ]
    for step, batch in enumerate(workload.batches):
        entries.extend(
            (f"batch[{step}].added[{gid}]", graph)
            for gid, graph in sorted(batch.added.items())
        )
    entries.extend(
        (f"pattern[{i}]", pattern)
        for i, pattern in enumerate(workload.patterns)
    )
    return entries


def _brute_force_embeddings(
    host: LabeledGraph, pattern: LabeledGraph
) -> int:
    """Count monomorphisms by enumerating injective vertex maps.

    The independent reference for VF2: label-preserving injections under
    which every pattern edge maps to a host edge (non-induced, matching
    :func:`repro.isomorphism.matcher.contains`).
    """
    pattern_vertices = sorted(pattern.vertices(), key=repr)
    pattern_edges = list(pattern.edges())
    host_vertices = sorted(host.vertices(), key=repr)
    if len(pattern_vertices) > len(host_vertices):
        return 0
    count = 0
    for image in itertools.permutations(
        host_vertices, len(pattern_vertices)
    ):
        mapping = dict(zip(pattern_vertices, image))
        if any(
            pattern.label(v) != host.label(mapping[v])
            for v in pattern_vertices
        ):
            continue
        if all(
            host.has_edge(mapping[u], mapping[v])
            for u, v in pattern_edges
        ):
            count += 1
    return count


# ----------------------------------------------------------------------
# differential oracles
# ----------------------------------------------------------------------
def vf2_oracle(workload: Workload) -> Mismatch | None:
    """VF2 containment and embedding counts vs brute force."""
    hosts = [
        (tag, graph)
        for tag, graph in _all_graphs(workload)
        if not tag.startswith("pattern")
    ]
    for tag, host in hosts:
        for i, pattern in enumerate(workload.patterns):
            brute = _brute_force_embeddings(host, pattern)
            plain = contains(host, pattern)
            if plain != (brute > 0):
                return Mismatch(
                    "vf2",
                    "contains_vs_brute_force",
                    {"host": tag, "pattern": i, "vf2": plain, "brute": brute},
                )
            counted = count_embeddings(host, pattern)
            if counted != brute:
                return Mismatch(
                    "vf2",
                    "count_vs_brute_force",
                    {"host": tag, "pattern": i, "vf2": counted, "brute": brute},
                )
    return None


def _fct_snapshot(fct_set: FCTSet) -> set[tuple]:
    return {(repr(t.key), t.support_count) for t in fct_set.fcts()}


def _index_pair_state(
    pair: IndexPair, displayed: Sequence[LabeledGraph]
) -> tuple:
    rows = tuple(
        (repr(key), tuple(sorted(pair.fct.tg.row(key).items())))
        for key in sorted(pair.fct.feature_keys(), key=repr)
    )
    labels = tuple(sorted(pair.ife.edge_labels()))
    postings = tuple(
        (label, tuple(sorted(pair.ife.graphs_with_edge(label))))
        for label in labels
    )
    columns = sorted(
        (repr(key), sorted(map(repr, pair.fct.tp.column(key).items())))
        for key in map(canonical_certificate, displayed)
    )
    return (rows, labels, postings, columns)


def index_oracle(workload: Workload) -> Mismatch | None:
    """Incremental FCT/index maintenance vs rebuild per view.

    The first half of the workload's patterns is the displayed panel,
    so the TP columns are compared as well as the TG/EG rows.

    Precondition (enforced by the generator hints): deletions per batch
    stay well under half the view, the Lemma 3.4/4.5 regime in which the
    relaxed-threshold pool provably absorbs support inflation.
    """
    views = list(workload.views())
    if not views[0]:
        return None
    displayed = workload.patterns[: (len(workload.patterns) + 1) // 2]
    incremental = FCTSet(views[0], sup_min=FCT_SUP_MIN)
    pair = IndexPair.build(incremental, views[0])
    pair.sync_patterns(displayed)
    current = dict(views[0])
    for step, batch in enumerate(workload.batches):
        view = views[step + 1]
        removed = [gid for gid in batch.removed if gid in current]
        # An insert of an existing id is an in-place replacement; the
        # FCT/index layers model it as remove-then-add.
        removed += [
            gid
            for gid in batch.added
            if gid in current and gid not in removed
        ]
        incremental.apply(added=batch.added, removed=removed)
        scratch = FCTSet(view, sup_min=FCT_SUP_MIN)
        if _fct_snapshot(incremental) != _fct_snapshot(scratch):
            return Mismatch(
                "index",
                "fct_incremental_vs_rebuild",
                {
                    "view": step + 1,
                    "incremental": sorted(_fct_snapshot(incremental)),
                    "rebuild": sorted(_fct_snapshot(scratch)),
                },
            )
        pair.apply_update(incremental, view, list(batch.added), removed)
        fresh = IndexPair.build(incremental, view)
        fresh.sync_patterns(displayed)
        if _index_pair_state(pair, displayed) != _index_pair_state(
            fresh, displayed
        ):
            return Mismatch(
                "index",
                "index_pair_incremental_vs_rebuild",
                {"view": step + 1},
            )
        current = dict(view)
    return None


def _literal_promising(
    fresh: CoverageOracle,
    displayed: list[LabeledGraph],
    candidates: list[LabeledGraph],
    kappa: float,
) -> list[bool]:
    """Definition 5.5 transcribed: full covers on a fresh oracle.

    ``|G_scov(c) ∖ ⋃ G_scov(P)| ≥ max((1 + κ) · min_p |unique(p)|, 1)``.
    """
    covers = [fresh.cover(pattern) for pattern in displayed]
    union = frozenset().union(*covers)
    uniques = [
        len(cover - frozenset().union(*(covers[:i] + covers[i + 1 :])))
        for i, cover in enumerate(covers)
    ]
    threshold = max((1.0 + kappa) * min(uniques, default=0), 1.0)
    return [
        len(fresh.cover(candidate) - union) >= threshold
        for candidate in candidates
    ]


def prune_oracle(workload: Workload) -> Mismatch | None:
    """Promising-candidate decisions vs literal Definition 5.5 per view.

    The first half of the workload's patterns is the displayed set and
    every pattern is a candidate.  ``PruningContext.is_promising`` —
    with and without an FCT/IFE :class:`IndexPair` — must decide exactly
    as the literal transcription on a fresh full-scan oracle, and must
    leave complete covers behind.
    """
    patterns = list(workload.patterns)
    displayed = patterns[: max(1, len(patterns) // 2)]
    for step, view in enumerate(workload.views()):
        fresh = CoverageOracle(view)
        pair = (
            IndexPair.build(FCTSet(view, sup_min=FCT_SUP_MIN), view)
            if view
            else None
        )
        variants = [
            (
                f"index={'on' if indexed is not None else 'off'}",
                CoverageOracle(view, index_pair=indexed),
                indexed,
            )
            for indexed in (None, pair)
        ]
        for kappa in (0.0, 0.5):
            want = _literal_promising(fresh, displayed, patterns, kappa)
            for label, oracle, indexed in variants:
                context = PruningContext(
                    oracle, displayed, kappa, index_pair=indexed
                )
                got = [context.is_promising(c) for c in patterns]
                if got != want:
                    return Mismatch(
                        "prune",
                        "decision_mismatch",
                        {
                            "view": step,
                            "variant": label,
                            "kappa": kappa,
                            "pruning": got,
                            "literal": want,
                        },
                    )
                for i, candidate in enumerate(patterns):
                    if oracle.cover(candidate) != fresh.cover(candidate):
                        return Mismatch(
                            "prune",
                            "cover_after_prune",
                            {
                                "view": step,
                                "variant": label,
                                "pattern": i,
                                "cover": sorted(oracle.cover(candidate)),
                                "full_scan": sorted(fresh.cover(candidate)),
                            },
                        )
    return None


# ----------------------------------------------------------------------
# multi-scan swap
# ----------------------------------------------------------------------
#: (κ, λ, adaptive κ) settings the ``swap`` oracle runs.  λ = 0 lets
#: fuzz-sized panels reach every later condition and actual swaps.
SWAP_SETTINGS = (
    (0.0, 0.0, False),
    (0.1, 0.1, False),
    (0.1, 0.0, True),
)

#: Significance level of the paper's pattern-size KS test (§6.2), which
#: :func:`_literal_swap` applies and the production swap leaves out.
SWAP_KS_ALPHA = 0.05

#: Scans per ``swap`` oracle run; the adaptive schedule moves κ per scan.
SWAP_MAX_SCANS = 3


def ks_similarity(first: Sequence[float], second: Sequence[float]) -> bool:
    """True when a two-sample KS test at :data:`SWAP_KS_ALPHA` does not
    reject that the samples come from one distribution.  Empty inputs
    compare equal only to empty inputs.
    """
    if not first or not second:
        return not first and not second
    from scipy.stats import ks_2samp  # lazy: slow to import

    return bool(ks_2samp(list(first), list(second)).pvalue >= SWAP_KS_ALPHA)


def _literal_swap(
    oracle: CoverageOracle,
    pattern_set: PatternSet,
    candidates: list[LabeledGraph],
    kappa: float,
    lambda_: float,
    adaptive_kappa: bool,
    ged_method: str = "tight_lower",
    sigma_initial: float = 0.25,
) -> dict:
    """``MultiScanSwapper.run`` transcribed with every (victim,
    candidate) pair evaluated from scratch.

    Each check recomputes both scores, the benefit and loss, the set
    quality of the panel before and after the swap, with an unmemoised
    GED per distance, and the paper's KS test on pattern sizes at
    :data:`SWAP_KS_ALPHA`.  The swapper leaves that test out: a
    one-for-one swap moves the empirical size CDF by at most 1/γ, so
    the test cannot reject, and a ``"ks"`` verdict here would show up
    as a mismatch.  Returns what the swapper's
    :class:`~repro.midas.swap.SwapOutcome` records.
    """

    def distance(first: LabeledGraph, second: LabeledGraph) -> float:
        return float(ged(first, second, method=ged_method))

    def diversity(pattern, others) -> float:
        if not others:
            return float(pattern.num_edges + pattern.num_vertices)
        return min(distance(pattern, other) for other in others)

    def score(pattern, others) -> float:
        load = cognitive_load(pattern)
        if load <= 0:
            return 0.0
        return (
            oracle.scov(pattern)
            * oracle.lcov(pattern)
            * diversity(pattern, others)
            / load
        )

    def set_quality(patterns) -> tuple[float, float, float]:
        divs = []
        for i, pattern in enumerate(patterns):
            others = patterns[:i] + patterns[i + 1 :]
            if others:
                divs.append(diversity(pattern, others))
        f_div = min(divs) if divs else 0.0
        f_cog = max(cognitive_load(p) for p in patterns)
        return f_div, f_cog, oracle.set_lcov(patterns)

    def verdict(victim_id: int, candidate, kappa: float) -> str:
        victim = pattern_set.get(victim_id).graph
        current = [p.graph for p in pattern_set]
        others = [p.graph for p in pattern_set if p.pattern_id != victim_id]
        prospective = others + [candidate]
        if score(candidate, others) < (1.0 + lambda_) * score(victim, others):
            return "sw2"
        benefit = oracle.benefit_score(candidate, current)
        if benefit < (1.0 + kappa) * oracle.loss_score(victim, others):
            return "sw1"
        if not ks_similarity(
            [p.num_edges for p in current],
            [p.num_edges for p in prospective],
        ):
            return "ks"
        div_before, cog_before, lcov_before = set_quality(current)
        div_after, cog_after, lcov_after = set_quality(prospective)
        if div_after < div_before:
            return "sw3"
        if cog_after > cog_before:
            return "sw4"
        if lcov_after < lcov_before:
            return "sw5"
        return "swap"

    result = {
        "decisions": [],
        "swaps": [],
        "rejected_sw1": 0,
        "rejected_quality": 0,
        "terminated_by_sw2": False,
        "candidates_considered": 0,
        "scans": 0,
    }
    position_of = {id(c): i for i, c in enumerate(candidates)}
    remaining = list(candidates)
    sigma = sigma_initial
    for scan in range(1, SWAP_MAX_SCANS + 1):
        if adaptive_kappa:
            kappa, sigma = kappa_schedule(sigma)
        result["scans"] = scan
        graphs = [p.graph for p in pattern_set]
        remaining.sort(key=lambda c: -score(c, graphs))
        swapped = terminated = False
        for candidate in list(remaining):
            if terminated:
                break
            if pattern_set.has_isomorphic(candidate):
                remaining.remove(candidate)
                continue
            result["candidates_considered"] += 1
            victims = sorted(
                pattern_set.ids(),
                key=lambda pid: score(
                    pattern_set.get(pid).graph,
                    [p.graph for p in pattern_set if p.pattern_id != pid],
                ),
            )
            for position, victim_id in enumerate(victims):
                reason = verdict(victim_id, candidate, kappa)
                result["decisions"].append(
                    (scan, position_of[id(candidate)], victim_id, reason)
                )
                if reason == "sw2":
                    if position == 0:
                        result["terminated_by_sw2"] = terminated = True
                    break
                if reason == "sw1":
                    result["rejected_sw1"] += 1
                    continue
                if reason != "swap":
                    result["rejected_quality"] += 1
                    continue
                added = pattern_set.swap(victim_id, candidate, "literal")
                result["swaps"].append(
                    (scan, victim_id, added.pattern_id)
                )
                remaining.remove(candidate)
                swapped = True
                break
        if not swapped or terminated:
            break
    return result


def _panel_signature(pattern_set: PatternSet) -> list[tuple]:
    return [
        (p.pattern_id, canonical_certificate(p.graph)) for p in pattern_set
    ]


def swap_oracle(workload: Workload) -> Mismatch | None:
    """The multi-scan swap vs a per-pair transcription, decision by
    decision.

    Per view, the first half of the workload's patterns (isomorphic
    repeats dropped) is the panel and every pattern is a candidate.
    :class:`~repro.midas.swap.MultiScanSwapper`, which evaluates checks
    against per-panel state, must take exactly the decisions of
    :func:`_literal_swap` — each verdict and its reason, the swaps, the
    rejection counts, the sw2 termination, the candidates considered
    and the final panel — under each of :data:`SWAP_SETTINGS`.
    """
    patterns = list(workload.patterns)
    initial = PatternSet()
    for pattern in patterns[: max(1, len(patterns) // 2)]:
        if not initial.has_isomorphic(pattern):
            initial.add(pattern, "fuzz")
    for step, view in enumerate(workload.views()):
        for kappa, lambda_, adaptive in SWAP_SETTINGS:
            literal_set = initial.copy()
            want = _literal_swap(
                CoverageOracle(view),
                literal_set,
                patterns,
                kappa,
                lambda_,
                adaptive,
            )
            swapped_set = initial.copy()
            outcome = MultiScanSwapper(
                CoverageOracle(view),
                kappa=kappa,
                lambda_=lambda_,
                max_scans=SWAP_MAX_SCANS,
                adaptive_kappa=adaptive,
            ).run(swapped_set, patterns, provenance="literal")
            got = {
                "decisions": outcome.decisions,
                "swaps": [
                    (record.scan, record.removed_id, record.added_id)
                    for record in outcome.swaps
                ],
                "rejected_sw1": outcome.rejected_sw1,
                "rejected_quality": outcome.rejected_quality,
                "terminated_by_sw2": outcome.terminated_by_sw2,
                "candidates_considered": outcome.candidates_considered,
                "scans": outcome.scans,
            }
            context = {
                "view": step,
                "kappa": kappa,
                "lambda": lambda_,
                "adaptive_kappa": adaptive,
            }
            for field_name, value in want.items():
                if got[field_name] != value:
                    return Mismatch(
                        "swap",
                        f"{field_name}_mismatch",
                        {**context, "swapper": got[field_name],
                         "literal": value},
                    )
            if _panel_signature(swapped_set) != _panel_signature(literal_set):
                return Mismatch("swap", "final_panel_mismatch", context)
    return None


# ----------------------------------------------------------------------
# candidate generation
# ----------------------------------------------------------------------
#: Budget of the ``generate`` oracle: fuzz-sized CSGs both reach and
#: fall short of its largest size.
GENERATE_BUDGET = PatternBudget(3, 7, 6)

#: Walks per CSG in the ``generate`` oracle: enough for ties, gate
#: vetoes and unvisited edges; the literal walk dominates its cost.
GENERATE_WALKS = 16


def _literal_traversal_counts(
    summary: SummaryGraph,
    weights: Mapping[tuple[int, int], float],
    rng: random.Random,
    num_walks: int,
    walk_length: int,
) -> dict[tuple[int, int], int]:
    """The weighted walk transcribed: one ``rng.choices`` call per draw."""
    counts = dict.fromkeys(summary.edges(), 0)
    if summary.num_edges == 0:
        return counts
    vertices = summary.vertices()
    entry = [
        sum(weights.get(edge_key(v, n), 0.0) for n in summary.neighbors(v))
        for v in vertices
    ]
    if sum(entry) <= 0:
        entry = [1.0] * len(vertices)
    for _ in range(num_walks):
        current = rng.choices(vertices, weights=entry)[0]
        for _ in range(walk_length):
            neighbors = sorted(summary.neighbors(current))
            if not neighbors:
                break
            step = [weights.get(edge_key(current, n), 0.0) for n in neighbors]
            if sum(step) <= 0:
                step = [1.0] * len(neighbors)
            nxt = rng.choices(neighbors, weights=step)[0]
            counts[edge_key(current, nxt)] += 1
            current = nxt
    return counts


def _literal_grow(
    summary: SummaryGraph,
    counts: Mapping[tuple[int, int], int],
    seed_edge: tuple[int, int],
    target_size: int,
    edge_gate: EdgeGate | None,
    edge_priority: EdgePriority | None,
) -> tuple[list[tuple[int, int]], int] | None:
    """Growth to one size transcribed: the whole frontier rebuilt and
    sorted by ``(-score, key)`` at every step; a vetoed top edge or an
    empty frontier before *target_size* yields None."""
    if edge_gate is not None and not edge_gate(summary.edge_label(*seed_edge)):
        return None
    chosen = [seed_edge]
    chosen_set = {edge_key(*seed_edge)}
    vertices = set(seed_edge)
    total = counts.get(edge_key(*seed_edge), 0)
    while len(chosen) < target_size:
        frontier = []
        for vertex in vertices:
            for neighbor in summary.neighbors(vertex):
                key = edge_key(vertex, neighbor)
                if key not in chosen_set:
                    score = _biased_count(
                        counts.get(key, 0),
                        summary.edge_label(*key),
                        edge_priority,
                    )
                    frontier.append((score, key))
        if not frontier:
            return None
        frontier.sort(key=lambda item: (-item[0], item[1]))
        key = frontier[0][1]
        if edge_gate is not None and not edge_gate(summary.edge_label(*key)):
            return None
        chosen.append(key)
        chosen_set.add(key)
        vertices.update(key)
        total += counts.get(key, 0)
    return chosen, total


def _literal_generate(
    generator: CandidateGenerator,
    rng: random.Random,
    summaries: Mapping[int, SummaryGraph],
    weights_by_cluster: Mapping[int, dict] | None,
    edge_gate: EdgeGate | None,
    edge_priority: EdgePriority | None,
) -> list[CandidatePattern]:
    """``CandidateGenerator.generate`` transcribed: the walk above, then
    every seed regrown from scratch for every budgeted size."""
    candidates = []
    for cluster_id in sorted(summaries):
        summary = summaries[cluster_id]
        if summary.num_edges == 0:
            continue
        weights = (weights_by_cluster or {}).get(cluster_id)
        if weights is None:
            weights = generator.weights_for(summary)
        if edge_priority is not None:
            weights = {
                edge: _biased_count(
                    1, summary.edge_label(*edge), edge_priority
                )
                * weight
                for edge, weight in weights.items()
            }
        counts = _literal_traversal_counts(
            summary, weights, rng, generator.num_walks, generator.walk_length
        )
        ranked = sorted(
            counts,
            key=lambda edge: (
                -_biased_count(
                    counts[edge], summary.edge_label(*edge), edge_priority
                ),
                edge,
            ),
        )
        if edge_gate is not None:
            ranked = [e for e in ranked if edge_gate(summary.edge_label(*e))]
        for size in generator.budget.sizes():
            if size > summary.num_edges:
                break
            proposals = []
            for seed_edge in ranked[: generator.seeds_per_size]:
                grown = _literal_grow(
                    summary, counts, seed_edge, size, edge_gate, edge_priority
                )
                if grown is not None:
                    proposals.append(grown)
            proposals.sort(key=lambda item: -item[1])
            seen: set[frozenset] = set()
            for edges, score in proposals:
                if len(seen) >= generator.fcps_per_size:
                    break
                edge_set = frozenset(edge_key(*e) for e in edges)
                if edge_set in seen:
                    continue
                pattern = _extract_pattern(summary, edges)
                if not pattern.is_connected():
                    continue
                seen.add(edge_set)
                candidates.append(
                    CandidatePattern(pattern, cluster_id, score, edge_set)
                )
    return candidates


def _candidate_trace(candidates: list[CandidatePattern]) -> list[tuple]:
    """Everything a consumer can observe of a candidate list."""
    return [
        (
            c.cluster_id,
            c.traversal_score,
            tuple(sorted(c.csg_edges)),
            tuple((v, c.graph.label(v)) for v in c.graph.vertices()),
            tuple(c.graph.edges()),
        )
        for c in candidates
    ]


def generate_oracle(workload: Workload) -> Mismatch | None:
    """Candidate generation vs a literal transcription of the walk and
    the per-size growth, per view.

    CSGs summarise the whole view and its even/odd-id halves.  Scenarios:
    no gate or priority; all-zero walk weights (the uniform fallback); a
    gate vetoing every other edge label (growth stops part-way); a
    label priority; MIDAS's pruning gate and priority against the
    workload's first patterns; and three greedy rounds on weights
    decayed as :class:`~repro.catapult.selection.GreedySelector` does.
    Candidates, their CSG edges and traversal scores, and the RNG state
    afterwards must be identical.
    """
    patterns = list(workload.patterns)
    for step, view in enumerate(workload.views()):
        ids = sorted(view)
        members = {0: ids, 1: ids[::2], 2: ids[1::2]}
        summaries = {
            cid: build_csg(cid, member_ids, view)
            for cid, member_ids in members.items()
            if member_ids
        }
        labels = sorted(
            {s.edge_label(*e) for s in summaries.values() for e in s.edges()}
        )
        vetoed = set(labels[1::2])
        pruning = PruningContext(
            CoverageOracle(view), patterns[: max(1, len(patterns) // 2)], 0.0
        )
        zero = {
            cid: dict.fromkeys(s.edges(), 0.0) for cid, s in summaries.items()
        }
        scenarios = [
            ("plain", None, None, None, 1),
            ("zero_weights", zero, None, None, 1),
            ("gate", None, lambda label: label not in vetoed, None, 1),
            ("priority", None, None, lambda label: len(set(label)) / 2, 1),
            ("pruning", None, pruning.edge_gate, pruning.edge_priority, 1),
            ("decayed", "csg", None, None, 3),
        ]
        for name, weights, gate, priority, rounds in scenarios:
            generator = CandidateGenerator(
                view, GENERATE_BUDGET, seed=step, num_walks=GENERATE_WALKS
            )
            reference_rng = random.Random(step)
            if weights == "csg":
                weights = {
                    cid: generator.weights_for(s)
                    for cid, s in summaries.items()
                }
            reference_weights = copy.deepcopy(weights)
            for round_number in range(rounds):
                got = generator.generate(summaries, weights, gate, priority)
                want = _literal_generate(
                    generator,
                    reference_rng,
                    summaries,
                    reference_weights,
                    gate,
                    priority,
                )
                detail = {
                    "view": step,
                    "scenario": name,
                    "round": round_number,
                }
                if _candidate_trace(got) != _candidate_trace(want):
                    return Mismatch(
                        "generate",
                        "candidate_mismatch",
                        {
                            **detail,
                            "generated": len(got),
                            "literal": len(want),
                        },
                    )
                if generator._rng.getstate() != reference_rng.getstate():
                    return Mismatch("generate", "rng_state", detail)
                if got and round_number + 1 < rounds:
                    # Decay the winner's CSG edges, as greedy selection does.
                    best = max(got, key=lambda c: c.traversal_score)
                    decay_weights(
                        weights[best.cluster_id],
                        set(best.csg_edges),
                        MWU_DECAY,
                    )
                    decay_weights(
                        reference_weights[best.cluster_id],
                        set(best.csg_edges),
                        MWU_DECAY,
                    )
    return None


# ----------------------------------------------------------------------
# metamorphic oracles
# ----------------------------------------------------------------------
def canonical_oracle(workload: Workload) -> Mismatch | None:
    """Canonical certificates are vertex-ID permutation invariant."""
    for tag, graph in _all_graphs(workload):
        certificate = canonical_certificate(graph)
        for seed in (1, 2, 3):
            twin = permuted_copy(graph, seed)
            if canonical_certificate(twin) != certificate:
                return Mismatch(
                    "canonical",
                    "certificate_not_invariant",
                    {"graph": tag, "seed": seed},
                )
    return None


def ged_oracle(workload: Workload) -> Mismatch | None:
    """GED bound sandwich, identity, permutation invariance, triangle.

    ``bipartite`` and ``beam`` are excluded from the invariance sweep:
    both derive their bound from one concrete edit path (the assignment
    scipy's LP tie-breaking picks / the beam's expansion order), so the
    *value* is legitimately vertex-order dependent even though it always
    stays a sound upper bound — the fuzzer found exactly this on its
    first sweep (triaged waiver in ``docs/CORRECTNESS.md``).  The
    permuted upper bounds are still checked against the (invariant)
    lower bounds.
    """
    graphs = [g for _, g in _all_graphs(workload)][:6]
    tiny = [g for g in graphs if g.num_vertices <= EXACT_GED_MAX_VERTICES]
    for i, graph in enumerate(graphs):
        for method in ("lower", "tight_lower"):
            if ged(graph, graph, method=method) != 0:
                return Mismatch(
                    "ged", "identity_not_zero", {"graph": i, "method": method}
                )
    for i, j in itertools.combinations(range(len(graphs)), 2):
        a, b = graphs[i], graphs[j]
        lower = ged(a, b, method="lower")
        tight = ged(a, b, method="tight_lower")
        bipartite = ged(a, b, method="bipartite")
        beam = ged(a, b, method="beam")
        bounds = {
            "lower": lower,
            "tight_lower": tight,
            "bipartite": bipartite,
            "beam": beam,
        }
        if not (lower <= tight <= min(bipartite, beam)):
            return Mismatch(
                "ged", "bound_sandwich", {"pair": [i, j], **bounds}
            )
        if a in tiny and b in tiny:
            exact = ged(a, b, method="exact")
            if not (tight <= exact <= min(bipartite, beam)):
                return Mismatch(
                    "ged",
                    "exact_outside_bounds",
                    {"pair": [i, j], "exact": exact, **bounds},
                )
        for method in ("lower", "tight_lower"):
            permuted = ged(permuted_copy(a, 5), b, method=method)
            if permuted != bounds[method]:
                return Mismatch(
                    "ged",
                    "not_permutation_invariant",
                    {
                        "pair": [i, j],
                        "method": method,
                        "original": bounds[method],
                        "permuted": permuted,
                    },
                )
        # Upper bounds may move under permutation (see docstring) but
        # must remain upper bounds: never below the invariant lower
        # bounds of the same pair.
        for method in ("bipartite", "beam"):
            permuted = ged(permuted_copy(a, 5), b, method=method)
            if permuted < tight:
                return Mismatch(
                    "ged",
                    "permuted_upper_below_lower",
                    {
                        "pair": [i, j],
                        "method": method,
                        "permuted_upper": permuted,
                        "tight_lower": tight,
                    },
                )
    for a, b, c in itertools.combinations(tiny[:4], 3):
        direct = ged(a, c, method="exact")
        detour = ged(a, b, method="exact") + ged(b, c, method="exact")
        if direct > detour:
            return Mismatch(
                "ged",
                "triangle_inequality",
                {"direct": direct, "detour": detour},
            )
    return None


def scov_oracle(workload: Workload) -> Mismatch | None:
    """Insert-only covers grow, along the maintainer's successor chain.

    Each view's oracle is the previous view's
    :meth:`~repro.patterns.metrics.CoverageOracle.successor`, as in a
    maintenance round, and its covers must equal a fresh oracle's over
    the same view.  A pure-insertion batch can only enlarge each cover
    set (and hence ``set_scov``'s numerator), view over view.
    """
    views = list(workload.views())
    oracle = CoverageOracle(views[0])
    previous = [oracle.cover(p) for p in workload.patterns]
    for step, batch in enumerate(workload.batches):
        pure_insert = not batch.removed and not (
            set(batch.added) & set(views[step])
        )
        oracle = oracle.successor(views[step + 1])
        current = [oracle.cover(p) for p in workload.patterns]
        fresh = CoverageOracle(views[step + 1])
        for i, pattern in enumerate(workload.patterns):
            if current[i] != fresh.cover(pattern):
                return Mismatch(
                    "scov",
                    "carried_cover_vs_fresh",
                    {
                        "view": step + 1,
                        "pattern": i,
                        "carried": sorted(current[i]),
                        "fresh": sorted(fresh.cover(pattern)),
                    },
                )
        for i, (before, after) in enumerate(zip(previous, current)):
            if pure_insert and not before <= after:
                return Mismatch(
                    "scov",
                    "cover_shrank_on_insert",
                    {
                        "view": step + 1,
                        "pattern": i,
                        "lost": sorted(before - after),
                    },
                )
        previous = current
    return None


def _snapshot_signature(snapshot) -> tuple:
    """Everything a reader can observe through a pinned snapshot."""
    return (
        snapshot.version,
        snapshot.database_size,
        snapshot.sample_size,
        snapshot.set_scov,
        tuple(
            (entry.pattern_id, tuple(sorted(entry.cover)), entry.scov)
            for entry in snapshot.patterns
        ),
    )


def serve_oracle(workload: Workload) -> Mismatch | None:
    """Published snapshots match a fresh oracle; pinned reads never drift.

    Replays the workload as the serving layer does: each view's oracle
    is the previous view's
    :meth:`~repro.patterns.metrics.CoverageOracle.successor` (the
    maintainer's chain, covers carried across views) and publishes one
    snapshot into a :class:`~repro.serve.snapshot.SnapshotStore`, while
    a lease pinned at each version stays held across all later
    publishes.  Checks (a) each published snapshot's covers / scov /
    set_scov agree with a fresh per-view CoverageOracle, and (b) no
    pinned snapshot changes, however many rounds commit after the pin —
    the snapshot-isolation contract of ``docs/SERVING.md``.
    """
    store = SnapshotStore()
    views = list(workload.views())
    patterns = list(enumerate(workload.patterns))
    graphs = [pattern for _, pattern in patterns]
    pinned: list[tuple] = []
    oracle: CoverageOracle | None = None
    for step, view in enumerate(views):
        oracle = (
            CoverageOracle(view) if oracle is None else oracle.successor(view)
        )
        snapshot = store.publish(
            build_snapshot(
                step + 1,
                ((i, pattern, "fuzz") for i, pattern in patterns),
                oracle,
                database_size=len(view),
            )
        )
        fresh = CoverageOracle(view)
        for i, pattern in patterns:
            entry = snapshot.pattern(i)
            want = fresh.cover(pattern)
            if entry.cover != want:
                return Mismatch(
                    "serve",
                    "snapshot_cover_vs_fresh",
                    {
                        "view": step,
                        "pattern": i,
                        "snapshot": sorted(entry.cover),
                        "fresh": sorted(want),
                    },
                )
            if entry.scov != fresh.scov(pattern):
                return Mismatch(
                    "serve",
                    "snapshot_scov_vs_fresh",
                    {"view": step, "pattern": i},
                )
        if snapshot.set_scov != fresh.set_scov(graphs):
            return Mismatch(
                "serve",
                "snapshot_set_scov_vs_fresh",
                {"view": step},
            )
        pinned.append((store.pin(), step, _snapshot_signature(snapshot)))
    for lease, step, signature in pinned:
        drifted = _snapshot_signature(lease.snapshot) != signature
        lag = lease.release()
        if drifted:
            return Mismatch(
                "serve", "pinned_snapshot_drifted", {"view": step}
            )
        if lease.version != step + 1 or lag != len(views) - (step + 1):
            return Mismatch(
                "serve",
                "version_accounting",
                {"view": step, "version": lease.version, "lag": lag},
            )
    return None


def store_oracle(workload: Workload) -> Mismatch | None:
    """SQLite store trajectory vs the in-memory store, byte for byte.

    Drives both :class:`~repro.store.base.GraphStore` backends through
    the same load + batch sequence and compares, after every step: id
    allocation, the applied-update records, every stored graph's
    canonical serialisation and the SQL-aggregate statistics.  Also
    checks the shared error taxonomy (missing-deletion
    batches fail identically and atomically) and that a close/reopen of
    the SQLite file preserves the trajectory (durability).
    """
    import shutil
    import tempfile

    from ..graph.database import BatchUpdate, DatabaseError, GraphDatabase
    from ..graph.io import graph_to_dict
    from ..store.sqlite import SQLiteStore

    def signature(store) -> tuple:
        ids = store.ids()
        return (
            len(store),
            store.next_graph_id(),
            ids,
            list(store),
            tuple(graph_to_dict(store[gid])["labels"] for gid in ids),
            tuple(tuple(graph_to_dict(store[gid])["edges"]) for gid in ids),
            store.total_vertices(),
            store.total_edges(),
            sorted(store.vertex_label_alphabet()),
            sorted(store.edge_label_document_frequency().items()),
        )

    tmp = tempfile.mkdtemp(prefix="repro-store-oracle-")
    sql = None
    try:
        path = f"{tmp}/store.db"
        sql = SQLiteStore(path)
        mem = GraphDatabase()
        for gid, graph in sorted(workload.graphs.items()):
            mem.reserve_through(gid)
            sql.reserve_through(gid)
            assigned = (mem.add(graph), sql.add(graph))
            if assigned != (gid, gid):
                return Mismatch(
                    "store",
                    "id_allocation",
                    {"expected": gid, "assigned": list(assigned)},
                )
        for step, batch in enumerate(workload.batches):
            # Mirror Workload.views(): removals of absent ids are
            # dropped, insertions arrive in sorted-id order.
            update = BatchUpdate.of(
                insertions=[batch.added[g] for g in sorted(batch.added)],
                deletions=[g for g in batch.removed if g in mem],
            )
            bogus = BatchUpdate.of(deletions=[mem.next_graph_id() + 99])
            errors = []
            for backend in (mem, sql):
                try:
                    backend.apply(bogus)
                    errors.append(None)
                except DatabaseError as exc:
                    errors.append(str(exc))
            if errors[0] != errors[1] or errors[0] is None:
                return Mismatch(
                    "store", "error_taxonomy", {"step": step, "errors": errors}
                )
            records = (mem.apply(update), sql.apply(update))
            if (
                records[0].inserted_ids != records[1].inserted_ids
                or records[0].deleted_ids != records[1].deleted_ids
            ):
                return Mismatch(
                    "store",
                    "applied_record",
                    {
                        "step": step,
                        "memory": [
                            records[0].inserted_ids,
                            records[0].deleted_ids,
                        ],
                        "sqlite": [
                            records[1].inserted_ids,
                            records[1].deleted_ids,
                        ],
                    },
                )
            if signature(mem) != signature(sql):
                return Mismatch(
                    "store", "state_divergence", {"step": step}
                )
        final = signature(sql)
        sql.close()
        sql = SQLiteStore(path)
        if signature(sql) != final:
            return Mismatch("store", "reopen_divergence", {})
    finally:
        if sql is not None:
            sql.close()
        shutil.rmtree(tmp, ignore_errors=True)
    return None


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
ORACLES: dict[str, Oracle] = {
    oracle.name: oracle
    for oracle in (
        Oracle(
            "vf2",
            "VF2 containment and embedding counts vs brute-force "
            "monomorphism enumeration on small graphs",
            vf2_oracle,
            {
                "num_graphs": 3,
                "max_graph_vertices": 7,
                "num_patterns": 3,
                "max_pattern_edges": 3,
                "max_pattern_vertices": 4,
                "num_batches": 1,
            },
        ),
        Oracle(
            "index",
            "incremental FCT/FCT-IFE maintenance vs rebuild "
            "(bounded-deletion regime)",
            index_oracle,
            {
                "num_graphs": 5,
                "max_graph_vertices": 8,
                "num_batches": 2,
                "max_deletion_fraction": 0.3,
            },
        ),
        Oracle(
            "prune",
            "promising-candidate test (marginal hosts only, early "
            "exits) vs literal Definition 5.5 on fresh full covers, "
            "with and without an IndexPair",
            prune_oracle,
            {
                "num_graphs": 6,
                "max_graph_vertices": 8,
                "num_patterns": 6,
                "num_batches": 2,
            },
        ),
        Oracle(
            "swap",
            "multi-scan swap on per-panel state vs every (victim, "
            "candidate) pair evaluated from scratch: verdicts and "
            "reasons, swaps, rejection counts, final panel; adaptive "
            "kappa on and off",
            swap_oracle,
            {
                "num_graphs": 6,
                "max_graph_vertices": 8,
                "num_patterns": 8,
                "max_pattern_edges": 4,
                "num_batches": 1,
            },
        ),
        Oracle(
            "generate",
            "candidate generation (walk tables, one growth per seed, "
            "heap frontier) vs the literal choices-per-step walk and "
            "per-size sorted-frontier growth: candidates and RNG state",
            generate_oracle,
            {
                "num_graphs": 5,
                "max_graph_vertices": 10,
                "num_patterns": 4,
                "num_batches": 1,
            },
        ),
        Oracle(
            "canonical",
            "canonical certificates are vertex-ID permutation invariant",
            canonical_oracle,
            {"num_graphs": 4, "num_batches": 1},
        ),
        Oracle(
            "ged",
            "GED bound sandwich, identity, permutation invariance and "
            "exact triangle inequality on tiny graphs",
            ged_oracle,
            {
                "num_graphs": 3,
                "max_graph_vertices": 5,
                "num_patterns": 3,
                "max_pattern_edges": 3,
                "max_pattern_vertices": 4,
                "num_batches": 0,
            },
        ),
        Oracle(
            "scov",
            "successor-chain covers equal a fresh oracle's per view; "
            "covers monotone under pure insertion",
            scov_oracle,
            {"insert_only": True, "num_batches": 3},
        ),
        Oracle(
            "serve",
            "snapshots published from the successor chain vs a fresh "
            "per-view oracle; pinned snapshots never drift across later "
            "publishes",
            serve_oracle,
            {"num_graphs": 4, "num_batches": 2},
        ),
        Oracle(
            "store",
            "SQLite out-of-core store vs the in-memory store: identical "
            "id allocation, batch results, stats and reopen durability",
            store_oracle,
            {"num_graphs": 5, "num_batches": 3},
        ),
    )
}


def get_oracle(name: str) -> Oracle:
    try:
        return ORACLES[name]
    except KeyError:
        raise ValueError(
            f"unknown oracle {name!r}; choose from {sorted(ORACLES)}"
        ) from None


def oracle_names() -> list[str]:
    return sorted(ORACLES)


__all__ = [
    "EXACT_GED_MAX_VERTICES",
    "FCT_SUP_MIN",
    "GENERATE_BUDGET",
    "ORACLES",
    "Oracle",
    "SWAP_KS_ALPHA",
    "SWAP_MAX_SCANS",
    "SWAP_SETTINGS",
    "get_oracle",
    "oracle_names",
]
