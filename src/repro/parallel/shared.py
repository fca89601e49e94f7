"""Fork-inherited read-only host views for persistent kernel workers.

The original :class:`~repro.parallel.pool.KernelPool` re-pickled every
host graph on every fan-out — the dominant cost of parallel coverage
rounds once graphs outnumber workers.  This module gives fan-outs a
zero-copy alternative on fork platforms:

1. The parent process *publishes* a view — a dict of host graphs —
   into this module's process-global registry (:func:`publish_view`).
2. Forked workers inherit the registry (copy-on-write pages, no
   pickling); a kernel resolves its graphs by ``(view_id, generation)``
   with :func:`resolve_view` and receives only graph IDs per task.
3. After a committed batch mutates the view, the owner republishes it:
   the view's **generation** counter advances and the module-wide
   **epoch** advances with it.  The pool compares the epoch it forked
   at against the current one before each fan-out and restarts its
   workers when stale, so children never compute against a superseded
   view; ``resolve_view`` double-checks the generation inside the
   worker and fails loudly rather than answer from stale state.

Views are process-local state, deliberately excluded from pickling
(publishers drop their tokens in ``__getstate__`` and republish
lazily), so pickled or deep-copied owners — e.g. the transactional
snapshots taken by ``Midas.apply_update`` — get fresh views instead of
aliasing a live one.

Metrics: ``parallel.view_publishes`` counts publishes,
``parallel.views`` gauges the live registry size (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from ..obs import get_registry


@dataclass(frozen=True)
class HostView:
    """One published read-only view of host graphs."""

    view_id: int
    generation: int
    graphs: Mapping[int, object] = field(repr=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<HostView id={self.view_id} gen={self.generation} "
            f"|D|={len(self.graphs)}>"
        )


_views: dict[int, HostView] = {}
_next_view_id = 0
_next_generation = 0
_epoch = 0


def publish_view(
    graphs: Mapping[int, object], view_id: int | None = None
) -> HostView:
    """Publish (or republish) *graphs* as a fork-inherited view.

    Passing an existing *view_id* replaces that view under a fresh
    generation — how an owner invalidates workers after a committed
    batch.  Every publish bumps the module epoch, which tells pools
    their forked children predate the current state.
    """
    global _next_view_id, _next_generation, _epoch
    if view_id is None:
        view_id = _next_view_id
        _next_view_id += 1
    _next_generation += 1
    _epoch += 1
    view = HostView(
        view_id=view_id, generation=_next_generation, graphs=graphs
    )
    _views[view_id] = view
    registry = get_registry()
    registry.counter("parallel.view_publishes").add(1)
    registry.gauge("parallel.views").set(len(_views))
    return view


def retire_view(view_id: int) -> None:
    """Drop a view from the registry (idempotent; no epoch bump).

    Retiring does not restart workers: children holding the old pages
    just never get tasks for it again, and the pages are reclaimed on
    the next epoch-triggered refork.
    """
    if _views.pop(view_id, None) is not None:
        get_registry().gauge("parallel.views").set(len(_views))


def get_view(view_id: int) -> HostView | None:
    """The currently registered view for *view_id*, if any (parent side)."""
    return _views.get(view_id)


def view_epoch() -> int:
    """Monotone counter of publishes; pools fork-stamp against this."""
    return _epoch


def resolve_view(view_id: int, generation: int) -> HostView:
    """Worker-side lookup of a view, validated against *generation*.

    Raises ``RuntimeError`` when the worker's inherited registry does
    not hold exactly the requested generation — the belt-and-braces
    guard under the pool's epoch-based restart: a stale worker must
    fail loudly, never answer from superseded graphs.
    """
    view = _views.get(view_id)
    if view is None:
        raise RuntimeError(
            f"host view {view_id} is not present in this worker "
            "(forked before it was published?)"
        )
    if view.generation != generation:
        raise RuntimeError(
            f"host view {view_id} is at generation {view.generation}, "
            f"task expects {generation} (stale worker)"
        )
    return view


__all__ = [
    "HostView",
    "get_view",
    "publish_view",
    "resolve_view",
    "retire_view",
    "view_epoch",
]
