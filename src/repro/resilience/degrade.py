"""Graceful degradation policies for the expensive kernels.

When a budget expires mid-computation the caller usually does not want
an exception — it wants a *cheaper answer*.  This module encodes the
fallback ladders:

* **GED**: ``exact`` → ``beam`` → ``bipartite`` → ``tight_lower``.
  Each rung is cheaper and looser than the one above; the final rungs
  (the closed-form lower bounds) are tick-free and always complete, so
  :func:`resilient_ged` always returns a value.
* **Embedding counts**: full VF2 enumeration → capped/partial count
  (:func:`resilient_count` keeps the embeddings found so far when the
  budget runs out).

Every result carries the *fidelity* actually achieved next to the value,
and any step down the ladder increments the ``resilience.degradations``
counter so operators can see how often answers were approximate.

Degradation can be disabled globally (:func:`set_degradation`, the CLI's
``--degrade off``) in which case the budget exception propagates to the
caller instead — useful when a hard failure is preferable to a silently
looser answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ResilienceError
from ..graph.labeled_graph import LabeledGraph
from ..obs import get_registry
from .budget import Budget, use_budget

#: Fallback order per requested GED method.  The first entry is the
#: requested method itself; later entries are progressively cheaper.
DEGRADATION_LADDER: dict[str, tuple[str, ...]] = {
    "exact": ("exact", "beam", "bipartite", "tight_lower"),
    "beam": ("beam", "bipartite", "tight_lower"),
    "bipartite": ("bipartite", "tight_lower"),
    "tight_lower": ("tight_lower",),
    "lower": ("lower",),
}

_degradation_enabled = True


def set_degradation(enabled: bool) -> None:
    """Globally enable/disable fallback (the CLI's ``--degrade`` flag)."""
    global _degradation_enabled
    _degradation_enabled = enabled


def degradation_enabled() -> bool:
    return _degradation_enabled


@dataclass(frozen=True)
class GedResult:
    """A GED value plus the fidelity that produced it."""

    value: int
    fidelity: str
    requested: str

    @property
    def degraded(self) -> bool:
        return self.fidelity != self.requested

    @property
    def is_lower_bound(self) -> bool:
        """True when the value may under-estimate the true distance."""
        return self.fidelity in ("tight_lower", "lower")


@dataclass(frozen=True)
class CountResult:
    """An embedding count plus whether it was truncated."""

    value: int
    fidelity: str  # "full" or "capped"

    @property
    def degraded(self) -> bool:
        return self.fidelity != "full"


def resilient_ged(
    first: LabeledGraph,
    second: LabeledGraph,
    method: str = "tight_lower",
    budget: Budget | None = None,
) -> GedResult:
    """GED via *method*, stepping down the ladder under budget pressure.

    Uses the explicit *budget* if given, else the ambient one.  With
    degradation disabled the first :class:`ResilienceError` propagates.
    """
    from ..ged import ged  # lazy: repro.ged imports this package

    try:
        ladder = DEGRADATION_LADDER[method]
    except KeyError:
        raise ValueError(
            f"unknown GED method {method!r}; "
            f"choose from {sorted(DEGRADATION_LADDER)}"
        ) from None
    registry = get_registry()
    last_error: ResilienceError | None = None
    for rung in ladder:
        try:
            if budget is not None:
                with use_budget(budget):
                    value = ged(first, second, method=rung)
            else:
                value = ged(first, second, method=rung)
        except ResilienceError as exc:
            if not _degradation_enabled:
                raise
            last_error = exc
            continue
        if rung != method:
            registry.counter("resilience.degradations").add(1)
        return GedResult(value=value, fidelity=rung, requested=method)
    # Unreachable in practice: the lower-bound rungs never tick a
    # budget.  Kept for safety if the ladder table is edited.
    raise last_error if last_error else RuntimeError("empty ladder")


def resilient_count(
    pattern: LabeledGraph,
    host: LabeledGraph,
    limit: int | None = None,
    budget: Budget | None = None,
) -> CountResult:
    """Count VF2 embeddings, keeping the partial count under pressure.

    A full enumeration (possibly bounded by *limit*) has fidelity
    ``"full"``; if the budget expires mid-search the embeddings found so
    far are returned with fidelity ``"capped"``.
    """
    from ..isomorphism.vf2 import VF2Matcher  # lazy: avoid import cycle

    matcher = VF2Matcher(pattern, host)
    count = 0
    try:
        if budget is not None:
            with use_budget(budget):
                for _ in matcher.matches():
                    count += 1
                    if limit is not None and count >= limit:
                        break
        else:
            for _ in matcher.matches():
                count += 1
                if limit is not None and count >= limit:
                    break
    except ResilienceError:
        if not _degradation_enabled:
            raise
        get_registry().counter("resilience.degradations").add(1)
        return CountResult(value=count, fidelity="capped")
    return CountResult(value=count, fidelity="full")


def anytime_degradation(site: str) -> None:
    """Record that an anytime loop returned a partial result at *site*.

    Anytime loops (tree mining, greedy selection, swap scans) degrade in
    place — they keep what they have instead of re-running a cheaper
    algorithm — but the event is counted the same way.
    """
    _ = site  # the site currently only documents the call point
    get_registry().counter("resilience.degradations").add(1)


def degradation_count() -> int:
    """Current value of the ``resilience.degradations`` counter."""
    return get_registry().counter("resilience.degradations").value


__all__ = [
    "CountResult",
    "DEGRADATION_LADDER",
    "GedResult",
    "anytime_degradation",
    "degradation_count",
    "degradation_enabled",
    "resilient_count",
    "resilient_ged",
    "set_degradation",
]
