"""The shared execution policy: checks, deadline, degradation, store.

:class:`ExecutionConfig` is the one knob bundle that every entry point
accepts — ``repro.api.select`` / ``repro.api.maintain``, the pipeline
and maintainer configs (``CatapultConfig.execution``), and the CLI
(``--check``, ``--deadline-ms``, ``--degrade``, ``--store``).  It
replaces the per-call resilience kwargs that had accreted on individual
signatures.

:meth:`ExecutionConfig.apply` is *additive*: it installs only the
facilities the config asks for and leaves ambient state from enclosing
scopes alone otherwise.  In particular a config with ``deadline_ms=None``
does **not** clear an outer deadline (``use_budget(None)`` would), and
``degrade=True`` / ``check=False`` — the defaults — do not override an
enclosing scope that set those globals differently.  Nested ``apply``
calls therefore compose: the CLI can wrap a whole bench figure while a
maintainer config wraps each round.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class ExecutionConfig:
    """How to run the kernels, orthogonal to what they compute.

    Attributes
    ----------
    check:
        Arm the runtime invariant guards (:mod:`repro.check`):
        pattern-budget bounds after maintenance rounds.  A failed guard
        raises :class:`~repro.exceptions.InvariantViolation`, which a
        transactional round maps to a rollback.
    deadline_ms:
        Wall-clock budget for the wrapped scope; ``None`` = unbounded.
    degrade:
        Whether kernels may fall down the degradation ladder under
        budget pressure (PR 2); ``False`` lets the budget exception
        propagate instead.
    store:
        Default graph-store spec for the wrapped scope (``"memory"``,
        ``"sqlite:PATH"``, ...; see :func:`repro.store.open_store`).
        ``None`` — the default — leaves the ambient spec alone, so
        nested scopes compose like the other knobs.
    """

    check: bool = False
    deadline_ms: float | None = None
    degrade: bool = True
    store: str | None = None

    def __post_init__(self) -> None:
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")

    @contextmanager
    def apply(self):
        """Install this policy (store, checks, budget, degradation) ambiently."""
        from .check.invariants import use_check
        from .resilience.budget import Deadline, use_budget
        from .resilience.degrade import degradation_enabled, set_degradation
        from .store.base import use_default_store

        with ExitStack() as stack:
            if self.store is not None:
                stack.enter_context(use_default_store(self.store))
            if self.check:
                stack.enter_context(use_check(True))
            if not self.degrade and degradation_enabled():
                set_degradation(False)
                stack.callback(set_degradation, True)
            if self.deadline_ms is not None:
                stack.enter_context(use_budget(Deadline.from_ms(self.deadline_ms)))
            yield self


__all__ = ["ExecutionConfig"]
