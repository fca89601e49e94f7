"""Resilience layer: budgets, the degradation ladder, faults, rollback.

Covers the guarantees documented in docs/ROBUSTNESS.md:

* cooperative :class:`Budget`/:class:`Deadline` semantics (fake clock,
  state allowances, forced exhaustion, ambient propagation);
* the GED fidelity ladder — each rung a valid, monotonically looser
  bound, with the reported fidelity tag matching the path taken;
* deterministic fault injection at named sites;
* transactional maintenance rounds: a fault at *every* named site inside
  ``Midas.apply_update`` leaves the maintainer identical to its
  pre-round snapshot (``pytest -m faults`` selects these).
"""

import pickle

import pytest

from repro.datasets import aids_like, family_injection
from repro.exceptions import (
    BudgetExhausted,
    ConfigurationError,
    DeadlineExceeded,
    MaintenanceError,
    ReproError,
    ResilienceError,
    RolledBack,
)
from repro.ged import ged
from repro.graph import BatchUpdate
from repro.graph.io import graph_to_dict
from repro.graph.labeled_graph import LabeledGraph
from repro.midas import Midas, MidasConfig
from repro.obs import get_registry
from repro.patterns import PatternBudget
from repro.resilience import (
    MAINTENANCE_SITES,
    Budget,
    Deadline,
    Fault,
    FaultInjected,
    budget_check,
    current_budget,
    degradation_enabled,
    faults_active,
    inject_faults,
    resilient_count,
    resilient_ged,
    set_degradation,
    trip,
    use_budget,
)
from repro.store.sqlite import SQLiteStore

from .conftest import make_graph


class FakeClock:
    """Deterministic monotonic clock for deadline tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def counter_value(name: str) -> int:
    return get_registry().counter(name).value


# ----------------------------------------------------------------------
# Budget / Deadline
# ----------------------------------------------------------------------
class TestBudget:
    def test_unlimited_budget_never_raises(self):
        budget = Budget()
        for _ in range(10):
            budget.spend(1_000_000)
        budget.check("anywhere")
        assert not budget.expired

    def test_deadline_raises_after_clock_passes(self):
        clock = FakeClock()
        budget = Budget(deadline_seconds=5.0, clock=clock)
        budget.check("before")
        clock.advance(4.999)
        budget.check("still fine")
        assert not budget.expired
        clock.advance(0.001)
        assert budget.expired
        with pytest.raises(DeadlineExceeded) as err:
            budget.check("vf2.search")
        assert "vf2.search" in str(err.value)
        assert isinstance(err.value, ResilienceError)

    def test_state_budget_exhausts(self):
        budget = Budget(max_states=10)
        budget.spend(9)
        with pytest.raises(BudgetExhausted):
            budget.spend(1, site="ged.exact")
        assert budget.states == 10
        assert budget.expired

    def test_exhaust_forces_every_check(self):
        budget = Budget()
        budget.exhaust("injected")
        assert budget.expired
        with pytest.raises(BudgetExhausted, match="injected"):
            budget.check()

    def test_expired_property_does_not_raise(self):
        budget = Budget(max_states=0)
        assert budget.expired  # no exception

    def test_negative_allowances_rejected(self):
        with pytest.raises(ValueError):
            Budget(deadline_seconds=-1.0)
        with pytest.raises(ValueError):
            Budget(max_states=-1)

    def test_deadline_counters_increment(self):
        clock = FakeClock()
        budget = Budget(deadline_seconds=0.0, clock=clock)
        before = counter_value("resilience.deadline_hits")
        with pytest.raises(DeadlineExceeded):
            budget.check()
        assert counter_value("resilience.deadline_hits") == before + 1

    def test_deadline_from_ms(self):
        deadline = Deadline.from_ms(1500.0)
        assert deadline.deadline_seconds == pytest.approx(1.5)
        assert deadline.remaining_seconds() <= 1.5

    def test_elapsed_tracks_clock(self):
        clock = FakeClock()
        budget = Budget(clock=clock)
        clock.advance(2.5)
        assert budget.elapsed() == pytest.approx(2.5)


class TestAmbientBudget:
    def test_use_budget_installs_and_restores(self):
        assert current_budget() is None
        budget = Budget()
        with use_budget(budget):
            assert current_budget() is budget
        assert current_budget() is None

    def test_inner_scope_overrides_outer(self):
        outer, inner = Budget(), Budget()
        with use_budget(outer):
            with use_budget(inner):
                assert current_budget() is inner
            assert current_budget() is outer

    def test_use_budget_none_clears_outer(self):
        outer = Budget(max_states=0)
        with use_budget(outer):
            with use_budget(None):
                assert current_budget() is None
                budget_check("unbounded scope")  # must not raise

    def test_budget_check_raises_for_ambient_budget(self):
        with use_budget(Budget(max_states=0)):
            with pytest.raises(BudgetExhausted):
                budget_check("midas.detect")

    def test_budget_check_noop_without_budget(self):
        budget_check("nothing installed")


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
@pytest.fixture
def pairs():
    triangle = make_graph("CCC", [(0, 1), (1, 2), (0, 2)])
    path4 = make_graph("CCCO", [(0, 1), (1, 2), (2, 3)])
    star = make_graph("NCCC", [(0, 1), (0, 2), (0, 3)])
    return [(triangle, path4), (triangle, star), (path4, star)]


class TestDegradationLadder:
    def test_full_budget_keeps_requested_fidelity(self, pairs):
        for first, second in pairs:
            result = resilient_ged(first, second, method="exact")
            assert result.fidelity == "exact"
            assert result.requested == "exact"
            assert not result.degraded
            assert not result.is_lower_bound
            assert result.value == ged(first, second, method="exact")

    def test_rungs_are_valid_monotonically_looser_bounds(self, pairs):
        # Descending the ladder exact -> beam -> bipartite -> tight_lower
        # the answers stay *valid*: the upper-bound rungs never drop
        # below the exact distance and the lower bounds never exceed it.
        for first, second in pairs:
            exact = ged(first, second, method="exact")
            beam = ged(first, second, method="beam")
            bipartite = ged(first, second, method="bipartite")
            tight_lower = ged(first, second, method="tight_lower")
            lower = ged(first, second, method="lower")
            assert lower <= tight_lower <= exact <= beam
            assert exact <= bipartite

    @pytest.mark.faults
    @pytest.mark.parametrize(
        "failing_sites, expected_fidelity",
        [
            (("ged.exact",), "beam"),
            (("ged.exact", "ged.beam"), "bipartite"),
            (("ged.exact", "ged.beam", "ged.bipartite"), "tight_lower"),
        ],
    )
    def test_fidelity_tag_matches_path_taken(
        self, pairs, failing_sites, expected_fidelity
    ):
        first, second = pairs[0]
        exact = ged(first, second, method="exact")
        plan = {site: Fault(kind="exhaust") for site in failing_sites}
        before = counter_value("resilience.degradations")
        with inject_faults(plan):
            result = resilient_ged(first, second, method="exact")
        assert result.fidelity == expected_fidelity
        assert result.degraded
        assert counter_value("resilience.degradations") == before + 1
        if result.is_lower_bound:
            assert result.value <= exact
        else:
            assert result.value >= exact

    def test_state_budget_descends_to_tick_free_rung(self, pairs):
        # A zero-state budget kills exact and beam (both spend states);
        # the assignment bound is tick-free, so the ladder lands there.
        first, second = pairs[1]
        result = resilient_ged(
            first, second, method="exact", budget=Budget(max_states=0)
        )
        assert result.degraded
        assert result.fidelity == "bipartite"
        assert result.value >= ged(first, second, method="exact")

    def test_lower_bound_requests_never_degrade(self, pairs):
        first, second = pairs[0]
        result = resilient_ged(
            first, second, method="tight_lower", budget=Budget(max_states=0)
        )
        assert not result.degraded
        assert result.is_lower_bound

    @pytest.mark.faults
    def test_degrade_off_reraises(self, pairs):
        first, second = pairs[0]
        assert degradation_enabled()
        set_degradation(False)
        try:
            with inject_faults({"ged.exact": Fault(kind="exhaust")}):
                with pytest.raises(BudgetExhausted):
                    resilient_ged(first, second, method="exact")
        finally:
            set_degradation(True)

    def test_unknown_method_rejected(self, pairs):
        first, second = pairs[0]
        with pytest.raises(ValueError, match="unknown GED method"):
            resilient_ged(first, second, method="psychic")


class TestResilientCount:
    def test_full_enumeration(self):
        pattern = make_graph("CC", [(0, 1)])
        host = make_graph("CCC", [(0, 1), (1, 2)])
        result = resilient_count(pattern, host)
        assert result.fidelity == "full"
        assert not result.degraded
        assert result.value == 4  # 2 edges x 2 orientations

    def test_limit_respected(self):
        pattern = make_graph("CC", [(0, 1)])
        host = make_graph("CCC", [(0, 1), (1, 2)])
        result = resilient_count(pattern, host, limit=2)
        assert result.fidelity == "full"
        assert result.value == 2

    @pytest.mark.faults
    def test_budget_pressure_caps_the_count(self):
        pattern = make_graph("CC", [(0, 1)])
        host = make_graph("CCC", [(0, 1), (1, 2)])
        before = counter_value("resilience.degradations")
        with inject_faults({"vf2.search": Fault(kind="exhaust")}):
            result = resilient_count(pattern, host)
        assert result.fidelity == "capped"
        assert result.degraded
        assert result.value >= 0
        assert counter_value("resilience.degradations") == before + 1


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
@pytest.mark.faults
class TestFaultInjection:
    def test_trip_is_noop_without_a_plan(self):
        assert not faults_active()
        trip("midas.swap")  # must not raise

    def test_error_fault_fires_once_by_default(self):
        with inject_faults({"site.a": Fault(kind="error")}):
            assert faults_active()
            with pytest.raises(FaultInjected, match="site.a"):
                trip("site.a")
            trip("site.a")  # times=1: second hit passes
            trip("site.b")  # unplanned sites always pass

    def test_after_skips_initial_hits(self):
        with inject_faults({"s": Fault(kind="error", after=2)}):
            trip("s")
            trip("s")
            with pytest.raises(FaultInjected):
                trip("s")

    def test_custom_exception_class(self):
        class Boom(ReproError):
            pass

        with inject_faults({"s": Fault(kind="error", exc=Boom)}):
            with pytest.raises(Boom):
                trip("s")

    def test_custom_exception_instance(self):
        boom = KeyError("prebuilt")
        with inject_faults({"s": Fault(kind="error", exc=boom)}):
            with pytest.raises(KeyError) as err:
                trip("s")
        assert err.value is boom

    def test_latency_fault_sleeps_then_returns(self):
        with inject_faults({"s": Fault(kind="latency", delay=0.001)}):
            trip("s")  # returns normally after the sleep

    def test_exhaust_fault_poisons_the_ambient_budget(self):
        budget = Budget()
        with use_budget(budget):
            with inject_faults({"s": Fault(kind="exhaust")}):
                with pytest.raises(BudgetExhausted):
                    trip("s")
        assert budget.expired  # later checks keep failing

    def test_exhaust_fault_raises_without_ambient_budget(self):
        with inject_faults({"s": Fault(kind="exhaust")}):
            with pytest.raises(BudgetExhausted, match="s"):
                trip("s")

    def test_plans_do_not_nest(self):
        with inject_faults({"s": Fault()}):
            with pytest.raises(RuntimeError, match="do not nest"):
                with inject_faults({"t": Fault()}):
                    pass  # pragma: no cover

    def test_probability_schedule_reproduces_from_seed(self):
        def fired_pattern(seed: int) -> list[bool]:
            fault = Fault(kind="error", probability=0.5, times=None)
            pattern = []
            with inject_faults({"s": fault}, seed=seed):
                for _ in range(20):
                    try:
                        trip("s")
                        pattern.append(False)
                    except FaultInjected:
                        pattern.append(True)
            return pattern

        first, second = fired_pattern(7), fired_pattern(7)
        assert first == second
        assert any(first) and not all(first)

    def test_plan_reuse_resets_firing_state(self):
        fault = Fault(kind="error")
        for _ in range(2):
            with inject_faults({"s": fault}):
                with pytest.raises(FaultInjected):
                    trip("s")

    def test_counter_tracks_injections(self):
        before = counter_value("resilience.faults_injected")
        with inject_faults({"s": Fault(kind="latency", delay=0.0)}):
            trip("s")
        assert counter_value("resilience.faults_injected") == before + 1


# ----------------------------------------------------------------------
# Transactional maintenance rounds
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def resilience_midas():
    # epsilon=0 forces every round major, so all nine maintenance sites
    # (including candidates/swap) are on the execution path.
    config = MidasConfig(
        budget=PatternBudget(3, 6, 6),
        sup_min=0.5,
        num_clusters=3,
        sample_cap=40,
        seed=3,
        epsilon=0.0,
    )
    return Midas.bootstrap(aids_like(30, seed=9), config)


def _canon(obj, memo=None):
    """Canonical, order-independent projection of an object graph.

    Raw ``pickle.dumps`` is not a usable digest here: a restored state
    rebuilds sets with a different insertion history, and unpickling
    turns equal strings into one shared object that the pickle memo
    then writes differently, so two identical states can serialize to
    different bytes.  This walks the object graph and sorts every set;
    projections are compared by value, so they depend only on
    *content*.  Aliasing is checked separately
    (:func:`assert_state_aliasing`).
    """
    import enum
    import random
    import types

    import numpy as np

    if memo is None:
        memo = set()
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, enum.Enum):
        return repr(obj)
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (type, types.FunctionType, types.MethodType)):
        return getattr(obj, "__qualname__", repr(obj))
    if isinstance(obj, random.Random):
        return ("random", obj.getstate())
    if id(obj) in memo:
        return "<cycle>"
    memo = memo | {id(obj)}
    if isinstance(obj, (set, frozenset)):
        return ("set", *sorted((_canon(x, memo) for x in obj), key=repr))
    if isinstance(obj, dict):
        return (
            "dict",
            *sorted(
                ((repr(k), _canon(v, memo)) for k, v in obj.items()),
            ),
        )
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, *(_canon(x, memo) for x in obj))
    state = getattr(obj, "__dict__", None)
    if state is None and hasattr(type(obj), "__slots__"):
        state = {
            name: getattr(obj, name)
            for klass in type(obj).__mro__
            for name in getattr(klass, "__slots__", ())
            if hasattr(obj, name)
        }
    if state is not None:
        return (type(obj).__qualname__, _canon(state, memo))
    return repr(obj)


def state_digest(midas: Midas) -> tuple:
    """Value projection of the pickled part of a round snapshot.

    Going through the snapshot drops derived caches (graph views, view
    tokens) exactly as a rollback does; a store held by reference is
    left out and checked by the caller.
    """
    _, blob = midas._snapshot_state()
    return _canon(pickle.loads(blob))


def assert_state_aliasing(midas: Midas) -> None:
    """The references a restore must keep shared stay shared."""
    assert midas.oracle._index_pair is midas.index_pair
    assert midas.oracle._graphs
    for graph_id, graph in midas.oracle._graphs.items():
        assert graph is midas.database[graph_id]


@pytest.mark.faults
class TestTransactionalRollback:
    def test_error_fault_rolls_back_at_every_site(self, resilience_midas):
        midas = resilience_midas
        update = family_injection(8, seed=4)
        for site in MAINTENANCE_SITES:
            before = state_digest(midas)
            rollbacks = counter_value("resilience.rollbacks")
            with inject_faults({site: Fault(kind="error")}):
                with pytest.raises(RolledBack) as err:
                    midas.apply_update(update)
            assert isinstance(err.value, MaintenanceError)
            assert isinstance(err.value.__cause__, FaultInjected)
            assert site in str(err.value.__cause__)
            assert state_digest(midas) == before, f"state leaked at {site}"
            assert_state_aliasing(midas)
            assert counter_value("resilience.rollbacks") == rollbacks + 1

    def test_budget_fault_aborts_round_at_every_site(self, resilience_midas):
        midas = resilience_midas
        update = family_injection(8, seed=4)
        for site in MAINTENANCE_SITES:
            before = state_digest(midas)
            aborted = counter_value("resilience.aborted_rounds")
            with inject_faults({site: Fault(kind="exhaust")}):
                report = midas.apply_update(update)
            assert report.aborted
            assert site in (report.abort_reason or "")
            assert not report.is_major
            assert report.num_swaps == 0
            assert state_digest(midas) == before, f"state leaked at {site}"
            assert_state_aliasing(midas)
            assert counter_value("resilience.aborted_rounds") == aborted + 1

    def test_tight_ambient_deadline_aborts_and_rolls_back(
        self, resilience_midas
    ):
        midas = resilience_midas
        clock = FakeClock()
        expired = Budget(deadline_seconds=1.0, clock=clock)
        clock.advance(2.0)
        before = state_digest(midas)
        with use_budget(expired):
            report = midas.apply_update(family_injection(8, seed=4))
        assert report.aborted
        assert "DeadlineExceeded" in (report.abort_reason or "")
        assert state_digest(midas) == before
        assert_state_aliasing(midas)

    def test_clean_round_still_commits(self, resilience_midas):
        midas = resilience_midas
        before = state_digest(midas)
        report = midas.apply_update(family_injection(8, seed=4))
        assert not report.aborted
        assert report.is_major  # epsilon=0 forces major
        assert state_digest(midas) != before  # the round really mutates

    def test_sqlite_store_rolls_back_by_reference_at_every_site(
        self, tmp_path
    ):
        """The store stays outside the pickled snapshot: its own round
        hooks undo the batch, the same instance stays attached, and the
        in-memory state rolls back by value and by aliasing."""
        source = SQLiteStore(tmp_path / "catalog.db")
        source.apply_batch(
            BatchUpdate.of(insertions=list(aids_like(24, seed=9).graphs()))
        )
        config = MidasConfig(
            budget=PatternBudget(3, 6, 6),
            sup_min=0.5,
            num_clusters=3,
            sample_cap=40,
            seed=3,
            epsilon=0.0,
        )
        midas = Midas.bootstrap(source, config)
        store = midas.database
        assert isinstance(store, SQLiteStore)

        def store_content():
            return (
                [(gid, graph_to_dict(g)) for gid, g in store.items()],
                store.next_graph_id(),
            )

        update = family_injection(6, seed=4)
        try:
            for site in MAINTENANCE_SITES:
                before_memory = state_digest(midas)
                before_store = store_content()
                with inject_faults({site: Fault(kind="error")}):
                    with pytest.raises(RolledBack):
                        midas.apply_update(update)
                assert midas.database is store, site
                assert store_content() == before_store, site
                assert state_digest(midas) == before_memory, site
                assert midas.oracle._index_pair is midas.index_pair
            report = midas.apply_update(update)
            assert not report.aborted
            assert len(store) == len(before_store[0]) + 6
        finally:
            store.close()
            source.close()


# ----------------------------------------------------------------------
# Batch validation at the apply_update boundary
# ----------------------------------------------------------------------
class TestBatchValidation:
    @pytest.fixture(scope="class")
    def midas(self):
        config = MidasConfig(
            budget=PatternBudget(3, 6, 6),
            sup_min=0.5,
            num_clusters=3,
            sample_cap=40,
            seed=3,
        )
        return Midas.bootstrap(aids_like(20, seed=11), config)

    def test_empty_batch_rejected(self, midas):
        with pytest.raises(ConfigurationError, match="empty batch"):
            midas.apply_update(BatchUpdate())

    def test_duplicate_deletions_rejected(self, midas):
        gid = next(iter(midas.database.ids()))
        with pytest.raises(ConfigurationError, match="duplicate deletion"):
            midas.apply_update(BatchUpdate(deletions=(gid, gid)))

    def test_unknown_deletion_id_rejected(self, midas):
        with pytest.raises(ConfigurationError, match="not in database"):
            midas.apply_update(BatchUpdate(deletions=(10_000_000,)))

    def test_empty_graph_insertion_rejected(self, midas):
        with pytest.raises(ConfigurationError, match="empty graph"):
            midas.apply_update(BatchUpdate(insertions=(LabeledGraph(),)))

    def test_edge_to_missing_vertex_rejected(self, midas):
        broken = make_graph("CC", [(0, 1)])
        # Corrupt the adjacency directly: an edge to a vertex that was
        # never labelled (no public API can build this).
        broken._adj[1].add(99)
        broken._adj[99] = {1}
        with pytest.raises(ConfigurationError, match="missing vertex"):
            midas.apply_update(BatchUpdate(insertions=(broken,)))

    def test_validation_failures_leave_state_untouched(self, midas):
        before = state_digest(midas)
        with pytest.raises(ConfigurationError):
            midas.apply_update(BatchUpdate())
        assert state_digest(midas) == before


# ----------------------------------------------------------------------
# bench --all per-figure deadline
# ----------------------------------------------------------------------
class TestBenchDeadline:
    def test_per_figure_timeout_reported_in_summary(
        self, monkeypatch, capsys
    ):
        from repro import cli

        class FakeTable:
            def show(self):
                print("fake table")

        def runaway(scale):
            budget = current_budget()
            assert budget is not None  # --all installs a fresh deadline
            while True:
                budget.check("test.runaway")

        def quick(scale):
            return FakeTable()

        monkeypatch.setattr(
            cli,
            "FIGURES",
            {
                "slowfig": ("a runaway figure", runaway),
                "quickfig": ("a well-behaved figure", quick),
            },
        )
        rc = cli.main(["bench", "--all", "--deadline-ms", "50"])
        captured = capsys.readouterr()
        assert rc == 1  # a timed-out figure fails the run
        assert "TIMEOUT" in captured.err
        assert "slowfig" in captured.err
        # The summary lists both outcomes and the run continued past
        # the timeout to the healthy figure.
        assert "ok" in captured.out
        assert "1/2 experiments succeeded" in captured.out

    def test_explicit_deadline_applies_to_single_figure(
        self, monkeypatch, capsys
    ):
        from repro import cli

        def runaway(scale):
            while True:
                budget_check("test.runaway")

        monkeypatch.setattr(
            cli, "FIGURES", {"slowfig": ("a runaway figure", runaway)}
        )
        rc = cli.main(
            ["bench", "--figure", "slowfig", "--deadline-ms", "50"]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "TIMEOUT" in captured.err
