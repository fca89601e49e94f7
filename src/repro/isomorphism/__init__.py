"""Subgraph isomorphism substrate (VF2 with vertex labels)."""

from .invariants import invariant_prefilter, multiset_dominates, prune_by_counts
from .matcher import (
    contains,
    count_embeddings,
    covered_graphs,
    find_embedding,
    find_embeddings,
)
from .vf2 import Assignment, VF2Matcher

__all__ = [
    "Assignment",
    "VF2Matcher",
    "contains",
    "count_embeddings",
    "covered_graphs",
    "find_embedding",
    "find_embeddings",
    "invariant_prefilter",
    "multiset_dominates",
    "prune_by_counts",
]
