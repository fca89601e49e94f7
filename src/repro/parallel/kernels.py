"""Picklable kernels for :class:`~repro.parallel.pool.KernelPool`.

Each kernel is a top-level function with the ``kernel(payload, chunk)``
contract (one result per chunk item, each a pure function of
``(payload, item)``), so results are independent of chunk boundaries and
the pool's ordered reduction reproduces the serial loop exactly.  The
three kernels mirror the hot paths a maintenance round spends its time
in (paper, Sections 5–6): pairwise GED evaluation, VF2 containment over
the database sample, and CATAPULT candidate scoring.

Heavy imports happen inside the function bodies: this module is imported
by the pool machinery and must stay cycle-free, and fork workers inherit
the parent's already-imported modules anyway.
"""

from __future__ import annotations

from ..graph.labeled_graph import LabeledGraph


def ged_pairs_kernel(payload, chunk):
    """``chunk``: list of ``(first, second)`` pairs; payload: GED method.

    Returns ``[(value, fidelity), ...]`` — the fidelity tag records any
    trip down the degradation ladder inside the worker.
    """
    from ..resilience.degrade import resilient_ged

    method = payload
    results = []
    for first, second in chunk:
        outcome = resilient_ged(first, second, method=method)
        results.append((outcome.value, outcome.fidelity))
    return results


def contains_view_kernel(payload, chunk):
    """``chunk``: graph IDs; payload: the view handle.

    Returns one containment verdict (pattern ⊆ host) per item.  The
    payload is ``(view_id, generation, pattern)`` and hosts are looked
    up in the fork-inherited :mod:`repro.parallel.shared` registry, so
    a fan-out ships only graph IDs — never the host graphs themselves.
    A worker whose inherited view is missing or at the wrong generation
    raises rather than answering from stale graphs; the pool's
    epoch-stamped refork makes that unreachable in normal operation.
    """
    from ..isomorphism.matcher import contains
    from .shared import resolve_view

    view_id, generation, pattern = payload
    graphs = resolve_view(view_id, generation).graphs
    return [contains(graphs[graph_id], pattern) for graph_id in chunk]


def mccs_kernel(payload, chunk):
    """``chunk``: list of graphs; payload: the seed graph.

    Returns the MCCS similarity of each chunk graph to the seed
    (the fine-clustering packing score).
    """
    from ..clustering.mccs import mccs_similarity

    seed = payload
    return [mccs_similarity(seed, graph) for graph in chunk]


def candidate_score_kernel(payload, chunk):
    """``chunk``: candidate graphs; payload: frozen selection context.

    Payload is ``(selected_graphs, csg_hosts, cluster_weights, oracle,
    ged_method)`` — everything :func:`repro.catapult.selection.score_candidate`
    needs.  The oracle is a pickled copy, so its memo fills per worker;
    scores are unaffected (cover sets are deterministic) but the parent
    oracle's ``isomorphism_tests`` counter only reflects parent-side work.
    """
    from ..catapult.selection import score_candidate

    selected_graphs, csg_hosts, cluster_weights, oracle, ged_method = payload
    return [
        score_candidate(
            graph, selected_graphs, csg_hosts, cluster_weights, oracle, ged_method
        )
        for graph in chunk
    ]


def pairwise_ged_matrix(
    graphs: list[LabeledGraph],
    method: str = "tight_lower",
    pool=None,
) -> dict[tuple[int, int], tuple[int, str]]:
    """All unordered pairwise GEDs of *graphs* as ``{(i, j): (value, fidelity)}``.

    Keys use index pairs with ``i < j``.  Computed through *pool* (the
    ambient pool by default) when worthwhile, serially otherwise; the
    result is identical either way.
    """
    from .pool import current_pool

    active = pool if pool is not None else current_pool()
    pairs = [
        (i, j)
        for i in range(len(graphs))
        for j in range(i + 1, len(graphs))
    ]
    if not pairs:
        return {}
    items = [(graphs[i], graphs[j]) for i, j in pairs]
    if active.worth_parallelizing(len(items)):
        values = active.map(ged_pairs_kernel, items, payload=method)
    else:
        values = ged_pairs_kernel(method, items)
    return dict(zip(pairs, values))


__all__ = [
    "candidate_score_kernel",
    "contains_view_kernel",
    "ged_pairs_kernel",
    "mccs_kernel",
    "pairwise_ged_matrix",
]
