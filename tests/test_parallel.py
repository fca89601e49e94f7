"""The deterministic kernel pool: identity, fallbacks, budgets, faults.

The contract under test (docs/PERFORMANCE.md): ``KernelPool.map`` is
byte-identical to the serial loop at every worker count and chunking,
the ambient budget keeps firing inside workers, and fault-injection
plans inherited over ``fork`` still trip at kernel sites.  Tests that
fan out to real processes construct pools with ``force=True`` (the pool
otherwise degrades to the serial path under pytest by design).
"""

from __future__ import annotations

import pickle
import warnings

import pytest

from repro.datasets import pubchem_like
from repro.exceptions import BudgetExhausted
from repro.isomorphism import contains
from repro.obs import get_registry
from repro.parallel import (
    MIN_PARALLEL_ITEMS,
    KernelPool,
    contains_view_kernel,
    current_pool,
    get_view,
    pairwise_ged_matrix,
    publish_view,
    resolve_view,
    retire_view,
    use_pool,
    view_epoch,
)
from repro.resilience import (
    Budget,
    Fault,
    FaultInjected,
    budget_check,
    current_budget,
    inject_faults,
    use_budget,
)

from .conftest import make_graph


def square_kernel(payload, chunk):
    """Toy kernel: payload is an offset, one squared value per item."""
    return [payload + item * item for item in chunk]


def short_kernel(payload, chunk):
    """A broken kernel that drops results (violates the contract)."""
    return [item for item in chunk][:-1]


def spending_kernel(payload, chunk):
    """Spends one budget state per item (exercises worker budgets)."""
    results = []
    for item in chunk:
        budget = current_budget()
        if budget is not None:
            budget.spend(1)
        budget_check("test.spending_kernel")
        results.append(item)
    return results


@pytest.fixture
def graphs():
    return [
        make_graph("COS", [(0, 1), (0, 2)]),
        make_graph("CON", [(0, 1), (0, 2)]),
        make_graph("CO", [(0, 1)]),
        make_graph("COO", [(0, 1), (0, 2)]),
        make_graph("CN", [(0, 1)]),
        make_graph("COOS", [(0, 1), (0, 2), (0, 3)]),
    ]


class TestSerialPath:
    def test_pool_falls_back_to_serial_under_pytest(self):
        pool = KernelPool(workers=4)
        assert not pool.is_parallel
        before = get_registry().counter("parallel.serial_fallbacks").value
        assert pool.map(square_kernel, [1, 2, 3], payload=10) == [11, 14, 19]
        after = get_registry().counter("parallel.serial_fallbacks").value
        assert after == before + 1

    def test_single_worker_pool_is_serial_without_fallback_counter(self):
        before = get_registry().counter("parallel.serial_fallbacks").value
        assert KernelPool(workers=1).map(square_kernel, [2], payload=0) == [4]
        assert (
            get_registry().counter("parallel.serial_fallbacks").value == before
        )

    def test_empty_items(self):
        assert KernelPool(workers=1).map(square_kernel, []) == []

    def test_result_length_is_validated(self):
        with pytest.raises(RuntimeError, match="short_kernel"):
            KernelPool(workers=1).map(short_kernel, [1, 2, 3])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            KernelPool(workers=0)
        with pytest.raises(ValueError):
            KernelPool(workers=2, chunk_size=0)

    def test_worth_parallelizing_thresholds(self):
        serial = KernelPool(workers=1)
        assert not serial.worth_parallelizing(10_000)
        forced = KernelPool(workers=2, force=True)
        if forced.is_parallel:
            assert forced.worth_parallelizing(1)  # force bypasses the floor
        unforced_floor = MIN_PARALLEL_ITEMS
        assert unforced_floor >= 1

    def test_ambient_pool_default_and_override(self):
        assert current_pool().workers == 1
        pool = KernelPool(workers=3)
        with use_pool(pool):
            assert current_pool() is pool
        assert current_pool().workers == 1


needs_fork = pytest.mark.skipif(
    not KernelPool(workers=2, force=True).is_parallel,
    reason="fork start method unavailable",
)


@needs_fork
class TestParallelDeterminism:
    def test_map_matches_serial_at_every_worker_count(self):
        items = list(range(40))
        expected = square_kernel(7, items)
        for workers in (2, 4):
            with KernelPool(workers=workers, force=True) as pool:
                assert pool.map(square_kernel, items, payload=7) == expected

    def test_map_is_chunking_invariant(self):
        items = list(range(23))
        expected = square_kernel(0, items)
        for chunk_size in (1, 3, 23):
            with KernelPool(2, chunk_size=chunk_size, force=True) as pool:
                assert pool.map(square_kernel, items, payload=0) == expected

    def test_ged_matrix_identical_across_worker_counts(self, graphs):
        serial = pairwise_ged_matrix(graphs, method="tight_lower")
        assert len(serial) == len(graphs) * (len(graphs) - 1) // 2
        for workers in (2, 4):
            with KernelPool(workers, force=True) as pool:
                parallel = pairwise_ged_matrix(
                    graphs, method="tight_lower", pool=pool
                )
            assert parallel == serial

    def test_ged_matrix_on_generated_molecules(self):
        molecules = list(dict(pubchem_like(10, seed=3).items()).values())
        serial = pairwise_ged_matrix(molecules, method="lower")
        with KernelPool(2, force=True) as pool:
            assert (
                pairwise_ged_matrix(molecules, method="lower", pool=pool)
                == serial
            )

    def test_fanout_counters(self):
        registry = get_registry()
        fanouts = registry.counter("parallel.fanouts").value
        with KernelPool(2, force=True) as pool:
            pool.map(square_kernel, list(range(16)), payload=0)
        assert registry.counter("parallel.fanouts").value == fanouts + 1


@needs_fork
class TestWorkerBudgets:
    def test_state_budget_fires_inside_worker(self):
        # One oversized chunk: the worker's re-materialised budget sees
        # 5 remaining states and the kernel spends 20.
        budget = Budget(max_states=5)
        with use_budget(budget):
            with KernelPool(2, chunk_size=20, force=True) as pool:
                with pytest.raises(BudgetExhausted):
                    pool.map(spending_kernel, list(range(20)))

    def test_parent_spends_shrink_worker_allowance(self):
        budget = Budget(max_states=30)
        budget.spend(26)  # 4 left: workers inherit the remainder
        with use_budget(budget):
            with KernelPool(2, chunk_size=20, force=True) as pool:
                with pytest.raises(BudgetExhausted):
                    pool.map(spending_kernel, list(range(20)))

    def test_roomy_budget_passes_through(self):
        with use_budget(Budget(max_states=1000)):
            with KernelPool(2, force=True) as pool:
                assert pool.map(spending_kernel, list(range(16))) == list(
                    range(16)
                )

    def test_no_budget_means_unbounded(self):
        assert current_budget() is None
        with KernelPool(2, force=True) as pool:
            assert pool.map(spending_kernel, list(range(16))) == list(
                range(16)
            )


def tripping_kernel(payload, chunk):
    """Hits the ``test.parallel.site`` fault site once per item."""
    from repro.resilience import trip

    results = []
    for item in chunk:
        trip("test.parallel.site")
        results.append(item)
    return results


@needs_fork
class TestFaultsUnderPool:
    def test_fault_plan_fires_inside_forked_worker(self):
        plan = {"test.parallel.site": Fault(kind="error")}
        with inject_faults(plan):
            # The pool forks lazily on first map, so the workers inherit
            # the active plan and the fault trips worker-side.
            with KernelPool(2, force=True) as pool:
                with pytest.raises(FaultInjected):
                    pool.map(tripping_kernel, list(range(16)))

    def test_no_plan_no_fault(self):
        with KernelPool(2, force=True) as pool:
            assert pool.map(tripping_kernel, list(range(16))) == list(
                range(16)
            )


class TestPoolLifecycle:
    def test_shutdown_is_idempotent(self):
        pool = KernelPool(workers=2, force=True)
        if pool.is_parallel:
            pool.map(square_kernel, list(range(4)), payload=0)
        pool.shutdown()
        pool.shutdown()

    def test_context_manager_shuts_down(self):
        with KernelPool(workers=2, force=True) as pool:
            pass
        assert pool._executor is None


class TestNoForkDegradation:
    def test_no_fork_counts_and_warns_once(self, monkeypatch):
        """Platforms without ``fork``: serial degradation bumps
        ``parallel.fallback`` every time but warns exactly once."""
        import multiprocessing

        from repro.parallel import pool as pool_module

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        monkeypatch.setattr(pool_module, "_warned_no_fork", False)
        pool = KernelPool(workers=2, force=True)
        assert not pool.is_parallel
        registry = get_registry()
        before = registry.counter("parallel.fallback").value
        items = list(range(MIN_PARALLEL_ITEMS + 2))
        with pytest.warns(RuntimeWarning, match="fork"):
            assert pool.map(square_kernel, items, payload=3) == square_kernel(
                3, items
            )
        assert registry.counter("parallel.fallback").value == before + 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pool.map(square_kernel, items, payload=3)
        assert registry.counter("parallel.fallback").value == before + 2

    def test_fork_platforms_never_touch_fallback_counter(self):
        registry = get_registry()
        before = registry.counter("parallel.fallback").value
        KernelPool(workers=4).map(square_kernel, [1, 2], payload=0)
        assert registry.counter("parallel.fallback").value == before


class TestHostViews:
    def test_resolve_view_validates_generation(self):
        view = publish_view({0: make_graph("C", [])})
        try:
            assert resolve_view(view.view_id, view.generation) is view
            with pytest.raises(RuntimeError, match="generation"):
                resolve_view(view.view_id, view.generation + 1)
        finally:
            retire_view(view.view_id)
        with pytest.raises(RuntimeError, match="not present"):
            resolve_view(view.view_id, view.generation)

    def test_republish_bumps_generation_and_epoch(self):
        view = publish_view({0: make_graph("C", [])})
        try:
            epoch = view_epoch()
            fresh = publish_view(
                {0: make_graph("N", [])}, view_id=view.view_id
            )
            assert fresh.view_id == view.view_id
            assert fresh.generation > view.generation
            assert view_epoch() == epoch + 1
            assert get_view(view.view_id) is fresh
        finally:
            retire_view(view.view_id)

    def test_retire_is_idempotent(self):
        view = publish_view({0: make_graph("C", [])})
        retire_view(view.view_id)
        retire_view(view.view_id)
        assert get_view(view.view_id) is None


@needs_fork
class TestPersistentViewWorkers:
    @pytest.fixture
    def hosts(self):
        return dict(pubchem_like(24, seed=5).items())

    def test_view_kernel_matches_serial_and_ships_fewer_bytes(self, hosts):
        pattern = make_graph("CC", [(0, 1)])
        ids = sorted(hosts)
        registry = get_registry()
        view = publish_view(hosts)
        try:
            with KernelPool(2, force=True) as pool:
                before = registry.counter("parallel.bytes_pickled").value
                view_verdicts = pool.map(
                    contains_view_kernel,
                    ids,
                    payload=(view.view_id, view.generation, pattern),
                )
                view_bytes = (
                    registry.counter("parallel.bytes_pickled").value - before
                )
        finally:
            retire_view(view.view_id)
        assert view_verdicts == [contains(hosts[i], pattern) for i in ids]
        assert 0 < view_bytes < len(pickle.dumps([hosts[i] for i in ids]))

    def test_workers_restart_once_per_republish(self, hosts):
        pattern = make_graph("CC", [(0, 1)])
        items = sorted(hosts)
        registry = get_registry()
        view = publish_view(hosts)
        try:
            with KernelPool(2, force=True) as pool:
                payload = (view.view_id, view.generation, pattern)
                first = pool.map(contains_view_kernel, items, payload=payload)
                restarts = registry.counter("parallel.worker_restarts").value
                # Same epoch: the executor is reused, no restart.
                assert (
                    pool.map(contains_view_kernel, items, payload=payload)
                    == first
                )
                assert (
                    registry.counter("parallel.worker_restarts").value
                    == restarts
                )
                view = publish_view(hosts, view_id=view.view_id)
                payload = (view.view_id, view.generation, pattern)
                assert (
                    pool.map(contains_view_kernel, items, payload=payload)
                    == first
                )
                assert (
                    registry.counter("parallel.worker_restarts").value
                    == restarts + 1
                )
        finally:
            retire_view(view.view_id)

    def test_stale_generation_fails_loudly_in_worker(self, hosts):
        pattern = make_graph("CC", [(0, 1)])
        items = sorted(hosts)
        view = publish_view(hosts)
        try:
            with KernelPool(2, force=True) as pool:
                stale_payload = (view.view_id, view.generation, pattern)
                view = publish_view(hosts, view_id=view.view_id)
                # Workers refork at the new epoch and see the new
                # generation; the stale task must raise, not answer.
                with pytest.raises(RuntimeError, match="generation"):
                    pool.map(
                        contains_view_kernel, items, payload=stale_payload
                    )
        finally:
            retire_view(view.view_id)

    def test_oracle_fanout_restarts_once_per_committed_batch(self):
        """End to end: CoverageOracle publishes its view once, the
        oracle a committed batch builds over the new view publishes its
        own, and its first fan-out restarts the workers exactly once —
        with covers matching a fresh serial oracle over that view."""
        from repro.datasets import aids_like
        from repro.patterns.metrics import CoverageOracle

        hosts = dict(aids_like(20, seed=11).items())
        pattern = make_graph("CC", [(0, 1)])
        oracle = CoverageOracle(hosts)
        registry = get_registry()
        with KernelPool(2, force=True) as pool, use_pool(pool):
            first = oracle.cover(pattern)
            restarts = registry.counter("parallel.worker_restarts").value
            extra = dict(aids_like(20, seed=12).items())
            final_view = dict(hosts)
            final_view.update(
                (max(hosts) + 1 + i, graph)
                for i, graph in enumerate(extra.values())
            )
            second = CoverageOracle(final_view).cover(pattern)
            assert (
                registry.counter("parallel.worker_restarts").value
                == restarts + 1
            )
        serial = CoverageOracle(final_view)
        assert second == serial.cover(pattern)
        assert first <= second
