"""Runtime invariant guards: cheap always-on assertions, opt-in.

Production code marks structural invariants with guard calls that are
free when checking is off (one global load per call site)::

    from ..check.invariants import check_enabled
    ...
    if check_enabled():
        check_engine(self)

Checking is enabled ambiently — ``ExecutionConfig(check=True)`` /
``--check`` on the CLI, or :func:`use_check` in tests — mirroring the
cache and covindex toggles.  A failed guard raises a typed
:class:`~repro.exceptions.InvariantViolation`; inside a transactional
``Midas.apply_update`` round the resilience layer maps that to a
rolled-back round (re-raised as ``RolledBack`` with the violation
chained), so a corrupted round can never commit.

Every guard evaluation bumps ``check.assertions`` and every failure
bumps ``check.violations`` (catalogued in ``docs/OBSERVABILITY.md``);
the invariant catalogue itself lives in ``docs/CORRECTNESS.md``.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..exceptions import InvariantViolation
from ..obs import get_registry

# ----------------------------------------------------------------------
# ambient enable flag (mirrors repro.cache.stores / repro.covindex.engine)
# ----------------------------------------------------------------------
_enabled = False


def set_check(enabled: bool) -> None:
    """Globally enable/disable invariant checking (CLI ``--check``)."""
    global _enabled
    _enabled = enabled


def check_enabled() -> bool:
    return _enabled


@contextmanager
def use_check(enabled: bool = True):
    """Enable (or disable) checking for the dynamic extent of the block."""
    global _enabled
    previous = _enabled
    _enabled = enabled
    try:
        yield
    finally:
        _enabled = previous


# ----------------------------------------------------------------------
# the guard primitive
# ----------------------------------------------------------------------
def invariant(condition: bool, name: str, detail: str = "") -> None:
    """Assert *condition*; raise :class:`InvariantViolation` otherwise.

    Callers gate on :func:`check_enabled` *before* computing anything
    non-trivial for *condition*, so disabled guards cost one global
    load.  This function itself does not re-check the flag: an explicit
    call always counts and always raises on failure, which is what the
    guard helpers below and direct test use want.
    """
    registry = get_registry()
    registry.counter("check.assertions").add(1)
    if condition:
        return
    registry.counter("check.violations").add(1)
    raise InvariantViolation(name, detail)


# ----------------------------------------------------------------------
# guard helpers (the invariant catalogue, see docs/CORRECTNESS.md)
# ----------------------------------------------------------------------
def check_engine(engine) -> None:
    """Bitset consistency of a :class:`~repro.covindex.engine.CoverageEngine`.

    * ``verdict ⊆ seen`` — a graph can only match after its verdict is
      known;
    * ``seen ⊆ universe`` — no verdict bits survive for graphs outside
      the indexed view;
    * the incremental cover-set mirror agrees with the match bits;
    * every graph of the view is indexed (posting membership recorded).
    """
    universe = engine.index.universe_bits
    for key, (match, seen) in engine.export_verdicts().items():
        invariant(
            match & ~seen == 0,
            "covindex.verdict_subset_seen",
            f"pattern {key!r} has match bits outside seen bits",
        )
        invariant(
            seen & ~universe == 0,
            "covindex.seen_subset_universe",
            f"pattern {key!r} has verdict bits for unindexed graphs",
        )
        invariant(
            sum(1 << gid for gid in engine._cover_sets[key]) == match,
            "covindex.cover_mirror_agrees",
            f"pattern {key!r} cover-set mirror drifted from match bits",
        )
    for graph_id in engine.graphs:
        invariant(
            bool(universe & (1 << graph_id)),
            "covindex.graph_indexed",
            f"graph {graph_id} is in the view but not in the index universe",
        )


def check_coverage_index(index, graphs) -> None:
    """Posting-list consistency of a :class:`CoverageIndex` over *graphs*.

    Every graph of the view must be registered under exactly the posting
    keys it satisfies, and no posting list may be empty (empty lists are
    deleted eagerly by ``remove_graph``).
    """
    from ..covindex.index import graph_posting_keys

    invariant(
        set(index._keys_by_graph) == set(graphs),
        "covindex.index_view_agrees",
        f"indexed ids {sorted(index._keys_by_graph)} != view ids "
        f"{sorted(graphs)}",
    )
    for graph_id, graph in graphs.items():
        expected = graph_posting_keys(graph)
        invariant(
            index._keys_by_graph.get(graph_id) == expected,
            "covindex.posting_membership",
            f"graph {graph_id} posting keys drifted",
        )
    for key, bits in index.posting_items():
        invariant(
            bits != 0,
            "covindex.no_empty_postings",
            f"posting list {key!r} is empty but still present",
        )


def check_cache_fidelity(existing_rank: int, new_rank: int, key: str) -> None:
    """Fidelity-rank monotonicity of a cache upgrade (never downgrade)."""
    invariant(
        new_rank >= existing_rank,
        "cache.fidelity_monotone",
        f"entry {key} would downgrade fidelity rank "
        f"{existing_rank} -> {new_rank}",
    )


def check_pattern_budget(patterns, budget) -> None:
    """Pattern-set bounds after a maintenance round (Definition 3.1).

    The displayed set never exceeds γ patterns and every displayed
    pattern stays inside the ``[η_min, η_max]`` size band (the η ≤ 2
    tray is maintained separately and is not part of this set).
    """
    invariant(
        len(patterns) <= budget.gamma,
        "midas.pattern_count_bound",
        f"{len(patterns)} patterns displayed, budget gamma={budget.gamma}",
    )
    for pattern in patterns:
        invariant(
            budget.eta_min <= pattern.num_edges <= budget.eta_max,
            "midas.pattern_size_bound",
            f"pattern with {pattern.num_edges} edges outside "
            f"[{budget.eta_min}, {budget.eta_max}]",
        )


__all__ = [
    "check_cache_fidelity",
    "check_coverage_index",
    "check_enabled",
    "check_engine",
    "check_pattern_budget",
    "invariant",
    "set_check",
    "use_check",
]
