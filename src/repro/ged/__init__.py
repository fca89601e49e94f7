"""Graph edit distance: lower bounds, bipartite approximation, exact A*.

The package exposes a single dispatcher :func:`ged` selecting the method
by name, plus the individual implementations.  CATAPULT computes pattern
diversity with the label-count lower bound ``GED_l``; MIDAS tightens it to
``GED'_l`` (Lemma 6.1).
"""

from __future__ import annotations

from ..graph.labeled_graph import LabeledGraph
from ..obs import BoundCounter
from .beam import ged_beam_upper_bound
from .bipartite import ged_bipartite_upper_bound
from .exact import ged_exact
from .lower_bounds import (
    ged_label_lower_bound,
    ged_tight_lower_bound,
    relaxed_edge_count,
    vertex_term,
)

# Literal metric names (not f-strings) keep the catalogue in
# docs/OBSERVABILITY.md greppable; beam/bipartite count themselves.
_CALLS = BoundCounter("ged.calls")
_METHOD_CALLS = {
    "lower": BoundCounter("ged.lower.calls"),
    "tight_lower": BoundCounter("ged.tight_lower.calls"),
    "exact": BoundCounter("ged.exact.calls"),
}

GED_METHODS = {
    "lower": ged_label_lower_bound,
    "tight_lower": ged_tight_lower_bound,
    "bipartite": ged_bipartite_upper_bound,
    "beam": ged_beam_upper_bound,
    "exact": ged_exact,
}


def ged(
    first: LabeledGraph, second: LabeledGraph, method: str = "tight_lower"
) -> int:
    """Graph edit distance between two graphs using *method*.

    ``method`` is one of ``lower`` (CATAPULT's GED_l), ``tight_lower``
    (MIDAS's GED'_l, the default), ``bipartite`` (assignment-based upper
    bound) or ``exact`` (A*, tiny graphs only).
    """
    try:
        implementation = GED_METHODS[method]
    except KeyError:
        raise ValueError(
            f"unknown GED method {method!r}; choose from {sorted(GED_METHODS)}"
        ) from None
    _CALLS.add(1)
    method_calls = _METHOD_CALLS.get(method)
    if method_calls is not None:
        method_calls.add(1)
    return implementation(first, second)


__all__ = [
    "GED_METHODS",
    "ged",
    "ged_beam_upper_bound",
    "ged_bipartite_upper_bound",
    "ged_exact",
    "ged_label_lower_bound",
    "ged_tight_lower_bound",
    "relaxed_edge_count",
    "vertex_term",
]
