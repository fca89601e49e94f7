"""Runtime invariant guards: cheap always-on assertions, opt-in.

Production code marks structural invariants with guard calls that are
free when checking is off (one global load per call site)::

    from ..check.invariants import check_enabled
    ...
    if check_enabled():
        check_pattern_budget(patterns, budget)

Checking is enabled ambiently — ``ExecutionConfig(check=True)`` /
``--check`` on the CLI, or :func:`use_check` in tests.  A failed guard
raises a typed :class:`~repro.exceptions.InvariantViolation`; inside a
transactional ``Midas.apply_update`` round the resilience layer maps
that to a rolled-back round (re-raised as ``RolledBack`` with the
violation chained), so a corrupted round can never commit.

Every guard evaluation bumps ``check.assertions`` and every failure
bumps ``check.violations`` (catalogued in ``docs/OBSERVABILITY.md``);
the invariant catalogue itself lives in ``docs/CORRECTNESS.md``.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..exceptions import InvariantViolation
from ..obs import get_registry

# ----------------------------------------------------------------------
# ambient enable flag
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
    "check_enabled",
    "check_pattern_budget",
    "invariant",
    "set_check",
    "use_check",
]
