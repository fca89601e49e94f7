"""A deterministic process pool for the maintenance kernels.

:class:`KernelPool` fans a list of independent work items out to worker
processes in fixed-size chunks and reduces the results *in submission
order*, so the output of :meth:`KernelPool.map` is byte-identical to the
serial loop regardless of worker count or scheduling.  The kernels it
runs (``repro.parallel.kernels``) are pure functions of their inputs —
parallelism never changes a computed value, only wall-clock time.

Design constraints, in order:

* **Determinism** — ordered reduction over deterministic chunking; a
  kernel's result for an item may not depend on its chunk neighbours.
* **Resilience** — the parent's ambient :class:`~repro.resilience.budget.Budget`
  is re-materialised inside each worker task (remaining wall-clock and
  state allowance at fan-out time), so deadlines keep firing under the
  pool.  Worker-side :class:`~repro.exceptions.ResilienceError`\\ s are
  shipped back as plain tuples (the exception classes have keyword-only
  constructors that do not survive pickling) and re-raised in the
  parent.  Worker state spends are *not* charged back to the parent
  budget — each worker polices its own copy of the remaining allowance,
  so a state budget bounds per-worker work, not the fleet total.
* **Safety in tests** — the pool silently degrades to the serial path
  inside pytest (``PYTEST_CURRENT_TEST``), unless constructed with
  ``force=True``.  On platforms without the ``fork`` start method the
  degradation is *not* silent: it bumps ``parallel.fallback`` and emits
  a one-time ``RuntimeWarning``, because losing parallelism there is a
  deployment surprise rather than a test convenience.  Serial and
  parallel paths return identical values, so callers never branch on
  which one ran.

Workers are **persistent**: forked lazily on the first parallel ``map``
and reused across fan-outs, so worker-startup cost is paid once per
configuration, not once per batch.  Fork children inherit module
globals at creation time — that is what lets fault-injection plans
(:mod:`repro.resilience.faults`) keep firing at kernel sites inside
workers, and what lets :mod:`repro.parallel.shared` hand kernels whole
host-graph views without pickling them (tasks carry only graph IDs).
Because children see a frozen copy of the parent,
the pool stamps the :func:`~repro.parallel.shared.view_epoch` it forked
at and transparently restarts its workers when a view has been
published since (``parallel.worker_restarts``) — once per committed
batch, not per fan-out.

Each task is shipped as one pre-pickled envelope and its size recorded
under ``parallel.bytes_pickled``, making "fan-out no longer re-pickles
the hosts" a measurable, regression-gated property rather than a hope
(see ``tests/test_parallel.py``).

Observability counters incremented inside workers stay in the worker's
registry copy; the parent records fan-out activity under ``parallel.*``
instead.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import os
import pickle
import warnings
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any

from ..exceptions import BudgetExhausted, DeadlineExceeded, ResilienceError
from ..obs import get_registry
from ..resilience.budget import Budget, current_budget, use_budget
from . import shared

#: Below this many items a fan-out costs more than it saves; call sites
#: consult :meth:`KernelPool.worth_parallelizing` which applies it.
MIN_PARALLEL_ITEMS = 8

#: Default chunking: enough chunks per worker to smooth skew without
#: drowning in inter-process pickling overhead.
CHUNKS_PER_WORKER = 4


def _in_pytest() -> bool:
    return "PYTEST_CURRENT_TEST" in os.environ


def _fork_context():
    """The ``fork`` multiprocessing context, or None where unsupported."""
    try:
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
    except (ValueError, RuntimeError):  # pragma: no cover - exotic platforms
        pass
    return None


_warned_no_fork = False


def _warn_no_fork_once() -> None:
    global _warned_no_fork
    if _warned_no_fork:
        return
    _warned_no_fork = True
    warnings.warn(
        "the 'fork' start method is unavailable on this platform; "
        "KernelPool degrades to the serial path (identical results, "
        "no parallel speedup)",
        RuntimeWarning,
        stacklevel=3,
    )


def _budget_spec() -> tuple[float | None, int | None] | None:
    """Snapshot the ambient budget's remaining allowance for a worker."""
    budget = current_budget()
    if budget is None:
        return None
    states_left = None
    if budget.max_states is not None:
        states_left = max(0, budget.max_states - budget.states)
    return (budget.remaining_seconds(), states_left)


def _run_chunk(
    kernel: Callable[[Any, list], list],
    payload: Any,
    chunk: list,
    budget_spec: tuple[float | None, int | None] | None,
    degrade: bool,
) -> tuple:
    """Worker-side task wrapper: install ambient state, run, ship back.

    Resilience errors are returned as ``(kind, message, site)`` tuples
    because their keyword-only constructors break default exception
    pickling; any other exception propagates through the future as-is.
    """
    from ..resilience.degrade import set_degradation

    set_degradation(degrade)
    budget = None
    if budget_spec is not None:
        remaining, states_left = budget_spec
        budget = Budget(deadline_seconds=remaining, max_states=states_left)
    try:
        if budget is not None:
            with use_budget(budget):
                return ("ok", kernel(payload, chunk))
        return ("ok", kernel(payload, chunk))
    except DeadlineExceeded as exc:
        return ("deadline", str(exc), exc.site)
    except BudgetExhausted as exc:
        return ("budget", str(exc), exc.site)
    except ResilienceError as exc:
        return ("resilience", str(exc), getattr(exc, "site", ""))


def _run_chunk_envelope(data: bytes) -> tuple:
    """Unpack one pre-pickled task envelope and run it.

    The parent pickles each task exactly once (and counts the bytes
    under ``parallel.bytes_pickled``); the worker sees a single opaque
    blob, so the per-task wire cost is observable at the call site
    instead of hidden inside the executor.
    """
    return _run_chunk(*pickle.loads(data))


class KernelPool:
    """Chunked fan-out / ordered reduction over persistent workers.

    Parameters
    ----------
    workers:
        Number of worker processes; ``1`` means the serial path.
    chunk_size:
        Items per worker task; default splits the input into
        ``workers × CHUNKS_PER_WORKER`` chunks.
    force:
        Run real worker processes even inside pytest (the parallel test
        suite uses this; everything else should leave it off).
    """

    def __init__(
        self,
        workers: int = 1,
        chunk_size: int | None = None,
        force: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.workers = workers
        self.chunk_size = chunk_size
        self.force = force
        self._executor: ProcessPoolExecutor | None = None
        self._forked_epoch = -1

    # ------------------------------------------------------------------
    @property
    def is_parallel(self) -> bool:
        """True when ``map`` will actually fan out to worker processes."""
        if self.workers <= 1:
            return False
        if not self.force and _in_pytest():
            return False
        return _fork_context() is not None

    def worth_parallelizing(self, num_items: int) -> bool:
        """Call-site gate: parallel, and enough items to amortise it."""
        if not self.is_parallel:
            return False
        return self.force or num_items >= MIN_PARALLEL_ITEMS

    # ------------------------------------------------------------------
    def _chunks(self, items: list) -> list[list]:
        size = self.chunk_size
        if size is None:
            size = max(1, math.ceil(len(items) / (self.workers * CHUNKS_PER_WORKER)))
        return [items[i : i + size] for i in range(0, len(items), size)]

    def _ensure_executor(self) -> ProcessPoolExecutor:
        """The live executor, reforked if a host view was published since.

        Children inherit :mod:`repro.parallel.shared`'s view registry at
        fork time; a publish after that leaves them stale, so the pool
        restarts them — at most once per committed batch, because each
        batch's oracle publishes one view.
        """
        if (
            self._executor is not None
            and self._forked_epoch != shared.view_epoch()
        ):
            get_registry().counter("parallel.worker_restarts").add(1)
            self.shutdown()
        if self._executor is None:
            self._forked_epoch = shared.view_epoch()
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=_fork_context()
            )
            get_registry().gauge("parallel.workers").set(self.workers)
        return self._executor

    # ------------------------------------------------------------------
    def map(
        self,
        kernel: Callable[[Any, list], list],
        items: Sequence,
        payload: Any = None,
    ) -> list:
        """Apply *kernel* to *items* in chunks; ordered, flattened results.

        The kernel contract: ``kernel(payload, chunk) -> list`` with one
        result per chunk item, each result a pure function of
        ``(payload, item)``.  The serial path calls the kernel once over
        all items, so results are identical either way.
        """
        items = list(items)
        if not items:
            return []
        registry = get_registry()
        if not self.is_parallel:
            if self.workers > 1:
                registry.counter("parallel.serial_fallbacks").add(1)
                if _fork_context() is None:
                    registry.counter("parallel.fallback").add(1)
                    _warn_no_fork_once()
            results = list(kernel(payload, items))
            if len(results) != len(items):
                raise RuntimeError(
                    f"kernel {kernel.__name__} returned {len(results)} "
                    f"results for {len(items)} items"
                )
            return results
        budget = current_budget()
        if budget is not None:
            budget.check("parallel.map")
        spec = _budget_spec()
        from ..resilience.degrade import degradation_enabled

        degrade = degradation_enabled()
        chunks = self._chunks(items)
        registry.counter("parallel.fanouts").add(1)
        registry.counter("parallel.tasks").add(len(chunks))
        executor = self._ensure_executor()
        envelopes = [
            pickle.dumps(
                (kernel, payload, chunk, spec, degrade),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            for chunk in chunks
        ]
        registry.counter("parallel.bytes_pickled").add(
            sum(len(envelope) for envelope in envelopes)
        )
        futures = [
            executor.submit(_run_chunk_envelope, envelope)
            for envelope in envelopes
        ]
        results: list = []
        failure: tuple | None = None
        for future in futures:
            outcome = future.result()
            if outcome[0] == "ok":
                if failure is None:
                    results.extend(outcome[1])
            elif failure is None:
                failure = outcome
        if failure is not None:
            kind, message, site = failure
            if kind == "deadline":
                raise DeadlineExceeded(message, site=site)
            if kind == "budget":
                raise BudgetExhausted(message, site=site)
            raise ResilienceError(message)
        if len(results) != len(items):
            raise RuntimeError(
                f"kernel {kernel.__name__} returned {len(results)} "
                f"results for {len(items)} items"
            )
        return results

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Terminate the worker processes (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "KernelPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelPool workers={self.workers} parallel={self.is_parallel}>"


# ----------------------------------------------------------------------
# ambient pool + shared registry
# ----------------------------------------------------------------------
_SERIAL_POOL = KernelPool(workers=1)

_current_pool: ContextVar[KernelPool | None] = ContextVar(
    "repro_kernel_pool", default=None
)


def current_pool() -> KernelPool:
    """The ambient pool installed by :func:`use_pool` (serial default)."""
    pool = _current_pool.get()
    return pool if pool is not None else _SERIAL_POOL


@contextmanager
def use_pool(pool: KernelPool | None):
    """Install *pool* as the ambient pool for the dynamic extent.

    ``use_pool(None)`` restores the serial default for the block.
    """
    token = _current_pool.set(pool)
    try:
        yield pool if pool is not None else _SERIAL_POOL
    finally:
        _current_pool.reset(token)


_shared_pools: dict[int, KernelPool] = {}


def shared_pool(workers: int) -> KernelPool:
    """A process-wide pool per worker count, reused across calls.

    ``ExecutionConfig.apply`` goes through here so repeated maintenance
    rounds with the same configuration share one set of forked workers.
    """
    if workers <= 1:
        return _SERIAL_POOL
    pool = _shared_pools.get(workers)
    if pool is None:
        pool = KernelPool(workers=workers)
        _shared_pools[workers] = pool
    return pool


def shutdown_shared_pools() -> None:
    """Shut down every pool created by :func:`shared_pool`."""
    for pool in _shared_pools.values():
        pool.shutdown()
    _shared_pools.clear()


atexit.register(shutdown_shared_pools)


__all__ = [
    "CHUNKS_PER_WORKER",
    "KernelPool",
    "MIN_PARALLEL_ITEMS",
    "current_pool",
    "shared_pool",
    "shutdown_shared_pools",
    "use_pool",
]
