"""Convenience wrappers around :class:`~repro.isomorphism.vf2.VF2Matcher`.

These helpers express the idioms used throughout the paper:

* ``contains(host, pattern)`` — does a data graph / query contain a
  subgraph isomorphic to a pattern?  (coverage, MP computation)
* ``count_embeddings`` — number of embeddings, used to populate the
  TG/TP/EG/EP matrices of the FCT- and IFE-indices (Section 5.1).
* ``covered_graphs`` — the set ``G_p ⊆ D`` of data graphs containing a
  pattern, the building block of subgraph coverage ``scov``.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..graph.database import GraphDatabase
from ..graph.labeled_graph import LabeledGraph
from .vf2 import Assignment, VF2Matcher


def contains(
    host: LabeledGraph,
    pattern: LabeledGraph,
    induced: bool = False,
) -> bool:
    """True iff *host* has a subgraph isomorphic to *pattern*."""
    return VF2Matcher(pattern, host, induced=induced).has_match()


def find_embedding(
    host: LabeledGraph, pattern: LabeledGraph, induced: bool = False
) -> Assignment | None:
    """Return one embedding (pattern vertex → host vertex) or None."""
    for assignment in VF2Matcher(pattern, host, induced=induced).matches():
        return assignment
    return None


def find_embeddings(
    host: LabeledGraph,
    pattern: LabeledGraph,
    induced: bool = False,
    limit: int | None = None,
) -> list[Assignment]:
    """Return up to *limit* embeddings of *pattern* in *host*."""
    result: list[Assignment] = []
    for assignment in VF2Matcher(pattern, host, induced=induced).matches():
        result.append(assignment)
        if limit is not None and len(result) >= limit:
            break
    return result


def count_embeddings(
    host: LabeledGraph,
    pattern: LabeledGraph,
    induced: bool = False,
    limit: int | None = None,
) -> int:
    """Number of embeddings of *pattern* in *host* (capped at *limit*)."""
    return VF2Matcher(pattern, host, induced=induced).count_matches(limit=limit)


def covered_graphs(
    database: GraphDatabase,
    pattern: LabeledGraph,
    candidate_ids: Iterable[int] | None = None,
) -> set[int]:
    """IDs of data graphs containing *pattern* (the paper's ``G_p``).

    *candidate_ids* restricts the scan (used with index prefilters and
    lazy sampling); default scans the whole database.
    """
    ids = database.ids() if candidate_ids is None else candidate_ids
    return {
        graph_id for graph_id in ids if contains(database[graph_id], pattern)
    }
