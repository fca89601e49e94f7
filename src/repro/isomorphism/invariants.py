"""Shared cheap-invariant prefilters for subgraph containment.

Every containment path in the repository ultimately asks the same
necessary-condition questions before paying for a VF2 search: does the
host have enough vertices/edges, does its vertex-label multiset dominate
the pattern's, does its edge-label multiset dominate the pattern's?
Historically :class:`~repro.isomorphism.vf2.VF2Matcher` and the FCT/IFE
index prefilters each reimplemented these checks; this module is the one
shared implementation.

All helpers express *necessary* conditions for a monomorphism (and a
fortiori for an induced embedding): a ``False`` answer proves
non-containment, a ``True`` answer proves nothing.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import Any, TypeVar

from ..graph.labeled_graph import LabeledGraph

K = TypeVar("K")


def multiset_dominates(
    required: Mapping[K, int], available: Mapping[K, int]
) -> bool:
    """True iff ``available[k] >= required[k]`` for every required key.

    The workhorse of every label-multiset prefilter: a pattern needing
    ``required`` occurrences of each label can only embed into a host
    offering at least as many.
    """
    for key, needed in required.items():
        if available.get(key, 0) < needed:
            return False
    return True


def invariant_prefilter(pattern: LabeledGraph, host: LabeledGraph) -> bool:
    """Cheap necessary conditions for ``pattern ⊆ host`` (monomorphism).

    Checks, in increasing cost order: vertex count, edge count, vertex
    label multiset dominance, edge label multiset dominance.  This is
    the prefilter :class:`~repro.isomorphism.vf2.VF2Matcher` runs before
    every search; index layers reuse it to stay consistent with the
    matcher's notion of "obviously impossible".
    """
    if pattern.num_vertices > host.num_vertices:
        return False
    if pattern.num_edges > host.num_edges:
        return False
    pattern_views, host_views = pattern.views(), host.views()
    if not multiset_dominates(
        pattern_views.vertex_labels, host_views.vertex_labels
    ):
        return False
    return multiset_dominates(pattern_views.edge_labels, host_views.edge_labels)


def prune_by_counts(
    candidates: set[int],
    requirements: Mapping[Any, int],
    row_of: Callable[[Any], Mapping[int, int]],
) -> set[int]:
    """Drop candidates whose per-key counts fall below the requirements.

    *row_of* maps a requirement key to a ``{candidate_id: count}`` row
    (e.g. a :class:`~repro.index.sparse.SparseCountMatrix` row).  Used by
    the FCT- and IFE-index containment prefilters, which both reduce to
    exactly this count-dominance sweep.
    """
    for key, needed in requirements.items():
        if not candidates:
            break
        row = row_of(key)
        candidates = {
            candidate
            for candidate in candidates
            if row.get(candidate, 0) >= needed
        }
    return candidates


__all__ = ["invariant_prefilter", "multiset_dominates", "prune_by_counts"]
