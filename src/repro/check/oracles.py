"""The oracle registry: fast-path vs reference differential checks.

Every performance-bearing path in the repo promises *byte-identical*
results to a slow reference — parallel kernels vs serial, canonical-form
caches vs cold, covindex delta coverage vs full VF2 rescan, incremental
FCT/index maintenance vs rebuild.  Each :class:`Oracle` here packages
one such promise as a pure function ``(workload) -> Mismatch | None``:
it runs both sides on the same :class:`~repro.check.workload.Workload`
and reports the first disagreement.  Metamorphic oracles (``canonical``,
``ged``, ``scov``) check properties with no second implementation —
vertex-ID permutation invariance, bound sandwiches, the triangle
inequality, insert-only monotonicity.

Oracles are deterministic, isolated (each installs its own ambient
toggles and a fresh cache manager; nothing leaks between runs) and
exception-safe only by convention — the fuzzer's ``evaluate`` wrapper
converts an escaped exception into a ``Mismatch(code="exception")``, so
a crash is a finding, not a harness failure.

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
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from ..cache.keys import graph_key
from ..cache.stores import (
    CacheManager,
    cached_ged_value,
    set_caches,
    use_caching,
)
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
from ..covindex.bitset import available_substrates, use_substrate
from ..covindex.engine import use_covindex
from ..covindex.fragments import use_fragments
from ..covindex.index import CoverageIndex
from ..exceptions import InvariantViolation
from ..ged import ged
from ..graph.canonical import canonical_certificate
from ..graph.labeled_graph import LabeledGraph, edge_key
from ..index.maintenance import IndexPair
from ..isomorphism.matcher import contains, count_embeddings
from ..midas.pruning import PruningContext
from ..parallel.pool import shared_pool, use_pool
from ..patterns.budget import PatternBudget
from ..patterns.metrics import CoverageOracle
from ..serve.snapshot import SnapshotStore, build_snapshot
from ..trees.maintenance import FCTSet
from .invariants import check_coverage_index, check_engine
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


def _cover_ged_trace(workload: Workload) -> list[tuple]:
    """Per-view cover sets and pairwise GED values, via ambient knobs.

    Runs the exact production call path (plain :class:`CoverageOracle`
    per view plus :func:`cached_ged_value`), so whatever toggles the
    caller installed — caching, a kernel pool — are what's under test.
    """
    trace: list[tuple] = []
    pairs = list(itertools.combinations(workload.patterns, 2))
    for view in workload.views():
        oracle = CoverageOracle(view)
        covers = tuple(
            oracle.cover(pattern) for pattern in workload.patterns
        )
        distances = tuple(
            cached_ged_value(a, b, method)
            for method in ("lower", "tight_lower")
            for a, b in pairs
        )
        trace.append((covers, distances))
    return trace


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
    """VF2 seeded vs unseeded vs brute force on small graphs."""
    hosts = [
        (tag, graph)
        for tag, graph in _all_graphs(workload)
        if not tag.startswith("pattern")
    ]
    for tag, host in hosts:
        index = CoverageIndex.build({0: host})
        for i, pattern in enumerate(workload.patterns):
            brute = _brute_force_embeddings(host, pattern)
            plain = contains(host, pattern)
            if plain != (brute > 0):
                return Mismatch(
                    "vf2",
                    "contains_vs_brute_force",
                    {"host": tag, "pattern": i, "vf2": plain, "brute": brute},
                )
            candidates = index.candidate_bits(pattern)
            if brute > 0 and not candidates:
                return Mismatch(
                    "vf2",
                    "filter_unsound",
                    {"host": tag, "pattern": i, "brute": brute},
                )
            if candidates:
                domains = index.vertex_domains(pattern, 0, host)
                seeded = contains(host, pattern, domains=domains)
                if seeded != plain:
                    return Mismatch(
                        "vf2",
                        "seeded_vs_unseeded",
                        {
                            "host": tag,
                            "pattern": i,
                            "seeded": seeded,
                            "unseeded": plain,
                        },
                    )
            counted = count_embeddings(host, pattern)
            if counted != brute:
                return Mismatch(
                    "vf2",
                    "count_vs_brute_force",
                    {"host": tag, "pattern": i, "vf2": counted, "brute": brute},
                )
    return None


def covindex_oracle(workload: Workload) -> Mismatch | None:
    """Engine-backed delta coverage vs a full-scan oracle per view.

    Two engine-backed oracles advance in lock-step — one on the ambient
    default substrate (numpy where available), one pinned to the
    plain-int reference — and both must agree with a fresh full-scan
    oracle at every view.  Their indices and exported verdict bitsets
    must also stay identical in canonical int form, the substrate
    equivalence contract of docs/PERFORMANCE.md.
    """
    default_substrate = (
        "numpy" if "numpy" in available_substrates() else "int"
    )
    with use_substrate(default_substrate), use_covindex(True):
        fast = CoverageOracle(dict(workload.graphs))
    with use_substrate("int"), use_covindex(True):
        twin = CoverageOracle(dict(workload.graphs))
    for step, view in enumerate(workload.views()):
        if step > 0:
            batch = workload.batches[step - 1]
            fast.apply_update(batch.added, batch.removed)
            twin.apply_update(batch.added, batch.removed)
        with use_covindex(False):
            reference = CoverageOracle(view)
        for i, pattern in enumerate(workload.patterns):
            want = reference.cover(pattern)
            for label, oracle in (("engine", fast), ("int_twin", twin)):
                got = oracle.cover(pattern)
                if got != want:
                    return Mismatch(
                        "covindex",
                        "cover_mismatch",
                        {
                            "view": step,
                            "pattern": i,
                            "substrate": label,
                            "engine": sorted(got),
                            "full_scan": sorted(want),
                        },
                    )
        engine = fast._engine  # noqa: SLF001 - oracle inspects internals
        int_engine = twin._engine  # noqa: SLF001
        if engine is None or int_engine is None:
            continue
        if engine.index.snapshot() != CoverageIndex.build(view).snapshot():
            return Mismatch(
                "covindex",
                "index_snapshot_drift",
                {"view": step},
            )
        if engine.index.snapshot() != int_engine.index.snapshot():
            return Mismatch(
                "covindex",
                "substrate_snapshot_drift",
                {"view": step, "substrates": [engine.substrate, "int"]},
            )
        if engine.export_verdicts() != int_engine.export_verdicts():
            return Mismatch(
                "covindex",
                "substrate_verdict_drift",
                {"view": step, "substrates": [engine.substrate, "int"]},
            )
        for guarded in (engine, int_engine):
            try:
                check_engine(guarded)
                check_coverage_index(guarded.index, view)
            except InvariantViolation as exc:
                return Mismatch(
                    "covindex",
                    "invariant",
                    {
                        "view": step,
                        "substrate": guarded.substrate,
                        "name": exc.name,
                        "detail": exc.detail,
                    },
                )
    return None


def fragments_oracle(workload: Workload) -> Mismatch | None:
    """Fragment network on vs off: identical verdicts at every view.

    Two engine-backed oracles advance in lock-step over the batch
    trajectory — one with the shared sub-pattern match network on, one
    with it off — and both must agree with a fresh full-scan oracle at
    every view.  The exported verdict bitsets must be identical too
    (the network only prunes candidates VF2 would reject, so seen/match
    bits converge to the same values once a pattern is drained), every
    drained materialized fragment view must equal a direct VF2 sweep of
    the fragment over the view, and the fragment invariant guards
    (``covindex.frag_*``) must hold throughout.
    """
    with use_covindex(True), use_fragments(True):
        networked = CoverageOracle(dict(workload.graphs))
    with use_covindex(True), use_fragments(False):
        plain = CoverageOracle(dict(workload.graphs))
    for step, view in enumerate(workload.views()):
        if step > 0:
            batch = workload.batches[step - 1]
            networked.apply_update(batch.added, batch.removed)
            plain.apply_update(batch.added, batch.removed)
        with use_covindex(False):
            reference = CoverageOracle(view)
        for i, pattern in enumerate(workload.patterns):
            want = reference.cover(pattern)
            for label, oracle in (
                ("network_on", networked),
                ("network_off", plain),
            ):
                got = oracle.cover(pattern)
                if got != want:
                    return Mismatch(
                        "fragments",
                        "cover_mismatch",
                        {
                            "view": step,
                            "pattern": i,
                            "network": label,
                            "engine": sorted(got),
                            "full_scan": sorted(want),
                        },
                    )
        engine = networked._engine  # noqa: SLF001 - oracle inspects internals
        off_engine = plain._engine  # noqa: SLF001
        if engine is None or off_engine is None or engine.network is None:
            continue
        if engine.export_verdicts() != off_engine.export_verdicts():
            return Mismatch(
                "fragments",
                "verdict_drift",
                {"view": step},
            )
        network = engine.network
        for fragment_key in network.fragment_keys():
            state = network.fragment(fragment_key)
            if not state.materialized or state.seen_count != len(view):
                continue
            expected_bits = 0
            for graph_id, host in view.items():
                if contains(host, state.graph):
                    expected_bits |= 1 << graph_id
            if state.match_bits != expected_bits:
                return Mismatch(
                    "fragments",
                    "fragment_view_drift",
                    {
                        "view": step,
                        "fragment_edges": state.graph.num_edges,
                        "view_bits": state.match_bits,
                        "direct_bits": expected_bits,
                    },
                )
        try:
            check_engine(engine)
        except InvariantViolation as exc:
            return Mismatch(
                "fragments",
                "invariant",
                {"view": step, "name": exc.name, "detail": exc.detail},
            )
    return None


def cache_oracle(workload: Workload) -> Mismatch | None:
    """Cache-on (cold and warm) vs cache-off cover/GED traces."""
    with use_covindex(False), use_caching(False):
        baseline = _cover_ged_trace(workload)
    previous = set_caches(CacheManager())
    try:
        with use_covindex(False), use_caching(True):
            cold = _cover_ged_trace(workload)
            warm = _cover_ged_trace(workload)
    finally:
        set_caches(previous)
    for label, trace in (("cold", cold), ("warm", warm)):
        if trace != baseline:
            view = next(
                i for i, (a, b) in enumerate(zip(trace, baseline)) if a != b
            )
            return Mismatch(
                "cache",
                f"{label}_mismatch",
                {"view": view},
            )
    return None


def parallel_oracle(workload: Workload) -> Mismatch | None:
    """Kernel fan-out vs the serial loop at 2 and 4 workers, same trace.

    Runs every worker count twice: engine off (legacy host-shipping
    kernels) and engine on (persistent workers resolving hosts from a
    published view via ``contains_view_kernel``).  All traces must equal
    the covindex-off serial reference.
    """
    with use_covindex(False), use_caching(False):
        serial = _cover_ged_trace(workload)
    with use_covindex(True), use_caching(False):
        engine_serial = _cover_ged_trace(workload)
    if engine_serial != serial:
        view = next(
            i
            for i, (a, b) in enumerate(zip(engine_serial, serial))
            if a != b
        )
        return Mismatch(
            "parallel",
            "trace_mismatch",
            {"view": view, "workers": 1, "covindex": True},
        )
    for workers in (2, 4):
        for covindex in (False, True):
            with use_covindex(covindex), use_caching(False), use_pool(
                shared_pool(workers)
            ):
                fanned = _cover_ged_trace(workload)
            if fanned != serial:
                view = next(
                    i
                    for i, (a, b) in enumerate(zip(fanned, serial))
                    if a != b
                )
                return Mismatch(
                    "parallel",
                    "trace_mismatch",
                    {"view": view, "workers": workers, "covindex": covindex},
                )
    return None


def _fct_snapshot(fct_set: FCTSet) -> set[tuple]:
    return {(repr(t.key), t.support_count) for t in fct_set.fcts()}


def _index_pair_state(pair: IndexPair) -> tuple:
    rows = tuple(
        (repr(key), tuple(sorted(pair.fct.tg.row(key).items())))
        for key in sorted(pair.fct.feature_keys(), key=repr)
    )
    labels = tuple(sorted(pair.ife.edge_labels()))
    postings = tuple(
        (label, tuple(sorted(pair.ife.graphs_with_edge(label))))
        for label in labels
    )
    return (rows, labels, postings)


def index_oracle(workload: Workload) -> Mismatch | None:
    """Incremental FCT/index/covindex maintenance vs rebuild per view.

    Precondition (enforced by the generator hints): deletions per batch
    stay well under half the view, the Lemma 3.4/4.5 regime in which the
    relaxed-threshold pool provably absorbs support inflation.
    """
    views = list(workload.views())
    if not views[0]:
        return None
    incremental = FCTSet(views[0], sup_min=FCT_SUP_MIN)
    pair = IndexPair.build(incremental, views[0])
    cov = CoverageIndex.build(views[0])
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
        if _index_pair_state(pair) != _index_pair_state(fresh):
            return Mismatch(
                "index",
                "index_pair_incremental_vs_rebuild",
                {"view": step + 1},
            )
        for gid in removed:
            cov.remove_graph(gid)
        for gid, graph in batch.added.items():
            cov.add_graph(gid, graph)
        if cov.snapshot() != CoverageIndex.build(view).snapshot():
            return Mismatch(
                "index",
                "covindex_incremental_vs_rebuild",
                {"view": step + 1},
            )
        try:
            check_coverage_index(cov, view)
        except InvariantViolation as exc:
            return Mismatch(
                "index",
                "invariant",
                {"view": step + 1, "name": exc.name, "detail": exc.detail},
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
    with and without an FCT/IFE :class:`IndexPair`, with the coverage
    engine on and off, and on an engine oracle maintained across the
    batches — must decide exactly as the literal transcription on a
    fresh full-scan oracle, and must leave complete covers behind.
    """
    patterns = list(workload.patterns)
    displayed = patterns[: max(1, len(patterns) // 2)]
    with use_covindex(True):
        maintained = CoverageOracle(dict(workload.graphs))
    for step, view in enumerate(workload.views()):
        if step > 0:
            batch = workload.batches[step - 1]
            maintained.apply_update(batch.added, batch.removed)
        with use_covindex(False):
            fresh = CoverageOracle(view)
        pair = (
            IndexPair.build(FCTSet(view, sup_min=FCT_SUP_MIN), view)
            if view
            else None
        )
        variants = [("maintained_engine", maintained, None)]
        for engine in (False, True):
            for indexed in (None, pair):
                with use_covindex(engine):
                    oracle = CoverageOracle(view, index_pair=indexed)
                label = (
                    f"engine={'on' if engine else 'off'},"
                    f"index={'on' if indexed is not None else 'off'}"
                )
                variants.append((label, oracle, indexed))
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
        key = graph_key(graph)
        for seed in (1, 2, 3):
            twin = permuted_copy(graph, seed)
            if canonical_certificate(twin) != certificate:
                return Mismatch(
                    "canonical",
                    "certificate_not_invariant",
                    {"graph": tag, "seed": seed},
                )
            if graph_key(twin) != key:
                return Mismatch(
                    "canonical",
                    "graph_key_not_invariant",
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
    """Maintained covers track fresh covers; insert-only covers grow.

    Checks (a) the memoisation staleness contract — a maintained plain
    oracle must agree with a fresh one after every ``apply_update`` —
    and (b) scov monotonicity: a pure-insertion batch can only enlarge
    each cover set (and hence ``set_scov``'s numerator).
    """
    views = list(workload.views())
    with use_covindex(False):
        maintained = CoverageOracle(views[0])
        previous = [
            maintained.cover(p) for p in workload.patterns
        ]
        for step, batch in enumerate(workload.batches):
            view = views[step + 1]
            pure_insert = not batch.removed and not (
                set(batch.added) & set(views[step])
            )
            maintained.apply_update(batch.added, batch.removed)
            fresh = CoverageOracle(view)
            current = []
            for i, pattern in enumerate(workload.patterns):
                got = maintained.cover(pattern)
                want = fresh.cover(pattern)
                if got != want:
                    return Mismatch(
                        "scov",
                        "stale_memo",
                        {
                            "view": step + 1,
                            "pattern": i,
                            "maintained": sorted(got),
                            "fresh": sorted(want),
                        },
                    )
                current.append(got)
                if pure_insert and not previous[i] <= got:
                    return Mismatch(
                        "scov",
                        "cover_shrank_on_insert",
                        {
                            "view": step + 1,
                            "pattern": i,
                            "lost": sorted(previous[i] - got),
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

    Replays the workload exactly as the serving layer does: one
    *maintained* CoverageOracle advances through the views via
    ``apply_update`` and every view publishes one snapshot into a
    :class:`~repro.serve.snapshot.SnapshotStore`, while a lease pinned
    at each version stays held across all later publishes.  Checks
    (a) each published snapshot's covers / scov / set_scov agree with a
    fresh per-view CoverageOracle, and (b) no pinned snapshot changes,
    however many rounds commit after the pin — the snapshot-isolation
    contract of ``docs/SERVING.md``.
    """
    store = SnapshotStore()
    views = list(workload.views())
    patterns = list(enumerate(workload.patterns))
    graphs = [pattern for _, pattern in patterns]
    with use_covindex(False):
        maintained = CoverageOracle(views[0])
        pinned: list[tuple] = []
        for step, view in enumerate(views):
            if step > 0:
                batch = workload.batches[step - 1]
                maintained.apply_update(batch.added, batch.removed)
            snapshot = store.publish(
                build_snapshot(
                    step + 1,
                    ((i, pattern, "fuzz") for i, pattern in patterns),
                    maintained,
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
    canonical serialisation, the SQL-aggregate statistics, and the
    coverage index the SQLite backend reassembles from its persisted
    per-shard postings against a from-scratch build over the in-memory
    view.  Also checks the shared error taxonomy (missing-deletion
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
            rebuilt = CoverageIndex.build(dict(mem.items()))
            if rebuilt != sql.coverage_index():
                return Mismatch(
                    "store", "persisted_postings_vs_rebuild", {"step": step}
                )
            # The persisted postings are substrate-independent ints:
            # a plain-int rebuild must reassemble the same index too.
            if rebuilt != CoverageIndex.build(
                dict(mem.items()), substrate="int"
            ):
                return Mismatch(
                    "store",
                    "substrate_rebuild_divergence",
                    {"step": step},
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
            "VF2 (seeded and unseeded) vs brute-force monomorphism "
            "enumeration on small graphs",
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
            "covindex",
            "coverage engine (filter + delta verification) on both "
            "bitset substrates vs a fresh full-scan CoverageOracle at "
            "every view, with cross-substrate snapshot equality",
            covindex_oracle,
            {"num_graphs": 5, "num_batches": 2},
        ),
        Oracle(
            "fragments",
            "fragment network on vs off verdicts per view, drained "
            "fragment views vs direct VF2 sweeps, and the "
            "covindex.frag_* invariant guards",
            fragments_oracle,
            {
                "num_graphs": 5,
                "num_batches": 2,
                "num_patterns": 4,
                "max_pattern_edges": 6,
            },
        ),
        Oracle(
            "cache",
            "canonical-form caches on (cold and warm) vs off",
            cache_oracle,
            {"num_graphs": 4, "num_batches": 2},
        ),
        Oracle(
            "parallel",
            "2- and 4-worker kernel pools vs the serial loop, with the "
            "coverage engine off (host-shipping kernels) and on "
            "(persistent view workers)",
            parallel_oracle,
            {"num_graphs": 4, "num_batches": 1},
        ),
        Oracle(
            "index",
            "incremental FCT/FCT-IFE/covindex maintenance vs rebuild "
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
            "with and without an IndexPair and the coverage engine",
            prune_oracle,
            {
                "num_graphs": 6,
                "max_graph_vertices": 8,
                "num_patterns": 6,
                "num_batches": 2,
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
            "canonical certificates and cache keys are vertex-ID "
            "permutation invariant",
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
            "maintained oracle vs fresh oracle after updates; covers "
            "monotone under pure insertion",
            scov_oracle,
            {"insert_only": True, "num_batches": 3},
        ),
        Oracle(
            "serve",
            "published snapshots vs a fresh per-view oracle; pinned "
            "snapshots never drift across later publishes",
            serve_oracle,
            {"num_graphs": 4, "num_batches": 2},
        ),
        Oracle(
            "store",
            "SQLite out-of-core store vs the in-memory store: identical "
            "id allocation, batch results, stats, persisted postings "
            "(reassembled on either substrate) and reopen durability",
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
    "get_oracle",
    "oracle_names",
]
