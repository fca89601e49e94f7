"""Fork-inherited read-only host views for persistent kernel workers.

The original :class:`~repro.parallel.pool.KernelPool` re-pickled every
host graph on every fan-out — the dominant cost of parallel coverage
rounds once graphs outnumber workers.  This module gives fan-outs a
zero-copy alternative on fork platforms:

1. The parent process *publishes* a view — a dict of host graphs —
   into this module's process-global registry (:func:`publish_view`).
2. Forked workers inherit the registry (copy-on-write pages, no
   pickling); a kernel resolves its graphs by ``view_id`` with
   :func:`resolve_view` and receives only graph IDs per task.
3. A view is never mutated: a committed batch gets a new oracle, which
   publishes a new view.  Every publish advances the module-wide
   **epoch**; the pool compares the epoch it forked at against the
   current one before each fan-out and restarts its workers when
   stale, so children always hold every live view, and
   ``resolve_view`` fails loudly inside a worker that lacks one.

Views are process-local state, deliberately excluded from pickling
(publishers drop their tokens in ``__getstate__`` and publish again
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
    graphs: Mapping[int, object] = field(repr=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HostView id={self.view_id} |D|={len(self.graphs)}>"


_views: dict[int, HostView] = {}
_next_view_id = 0
_epoch = 0


def publish_view(graphs: Mapping[int, object]) -> HostView:
    """Publish *graphs* as a fork-inherited view under a new ID.

    Every publish bumps the module epoch, which tells pools their
    forked children predate the current state.
    """
    global _next_view_id, _epoch
    view_id = _next_view_id
    _next_view_id += 1
    _epoch += 1
    view = HostView(view_id=view_id, graphs=graphs)
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


def resolve_view(view_id: int) -> HostView:
    """Worker-side lookup of a view.

    Raises ``RuntimeError`` when the worker's inherited registry does
    not hold the view — the belt-and-braces guard under the pool's
    epoch-based restart: a stale worker must fail loudly, never guess.
    """
    view = _views.get(view_id)
    if view is None:
        raise RuntimeError(
            f"host view {view_id} is not present in this worker "
            "(forked before it was published?)"
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
