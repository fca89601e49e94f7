"""The observability layer: registry, spans, report phases, wiring."""

import threading

import pytest

from repro import api
from repro.datasets import aids_like, family_injection, random_insertions
from repro.midas import Midas, MidasConfig
from repro.obs import (
    BoundCounter,
    MetricsRegistry,
    Tracer,
    capture,
    get_registry,
    get_tracer,
    metrics_snapshot,
    render_metrics_report,
    reset_all,
    set_registry,
    set_tracer,
    span,
)
from repro.patterns import PatternBudget


@pytest.fixture(autouse=True)
def clean_observability():
    """Each test sees an empty default tracer tree and zeroed metrics."""
    reset_all()
    yield
    reset_all()


class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("c").add(2)
        registry.counter("c").add(3)
        assert registry.counter("c").value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").add(-1)

    def test_gauge_last_value_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(3)
        registry.gauge("g").set(1.5)
        assert registry.gauge("g").value == 1.5

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError):
            registry.gauge("m")

    def test_histogram_aggregates(self):
        histogram = MetricsRegistry().histogram("h")
        for value in (1.0, 2.0, 3.0, 10.0):
            histogram.record(value)
        assert histogram.count == 4
        assert histogram.total == 16.0
        assert histogram.mean == 4.0
        assert histogram.min == 1.0
        assert histogram.max == 10.0
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 10.0

    def test_histogram_empty_percentile(self):
        assert MetricsRegistry().histogram("h").percentile(50) is None

    def test_counter_is_thread_safe(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(5000):
                registry.counter("threads").add(1)

        workers = [threading.Thread(target=work) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert registry.counter("threads").value == 20000

    def test_counter_deltas(self):
        registry = MetricsRegistry()
        registry.counter("a").add(2)
        before = registry.counter_values()
        registry.counter("a").add(3)
        registry.counter("b").add(1)
        assert registry.counter_deltas(before) == {"a": 3, "b": 1}

    def test_reset_keeps_registrations(self):
        registry = MetricsRegistry()
        registry.counter("a").add(7)
        registry.reset()
        assert registry.counter("a").value == 0
        assert registry.names() == ["a"]

    def test_snapshot_groups_by_kind(self):
        registry = MetricsRegistry()
        registry.counter("c").add(1)
        registry.gauge("g").set(2)
        registry.histogram("h").record(3)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 1}
        assert snapshot["gauges"] == {"g": 2.0}
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_set_registry_swaps_default(self):
        isolated = MetricsRegistry()
        previous = set_registry(isolated)
        try:
            get_registry().counter("x").add(1)
            assert isolated.counter("x").value == 1
            assert previous.get("x") is None
        finally:
            set_registry(previous)


class TestBoundCounters:
    #: Totals of the hot-path counters on :meth:`_workload`, measured
    #: with by-name lookups on every event (before VF2 and swap bound
    #: or batched them).  The ``vf2.*`` totals were re-pinned when FCT
    #: mining stopped calling VF2 (growth by embedding extension, Δ⁺
    #: covers and TG counts read from that mine), and again when the
    #: workload dropped the coverage engine: they are the full-scan
    #: totals, equal to the engine-off run before the engine's removal.
    #: ``swap.ged_cache_hits`` fell from 91 to 6 when swap checks began
    #: reading per-panel distance rows: the memo is consulted once per
    #: panel and pair, no longer once per (victim, candidate) check.
    #: The ``vf2.*`` totals fell again when the prefilter began reading
    #: a displayed pattern's TP column instead of recounting it (calls
    #: 2011 → 1867, prefilter_cutoffs 859 → 742, searches 1152 → 1125,
    #: states_explored 15936 → 15753, backtracks 9801 → 9677).  They
    #: fell again when cluster vectors began reading feature covers and
    #: bootstrap TG cells the mine's counts (calls 1867 → 1262,
    #: prefilter_cutoffs 742 → 711, searches 1125 → 551,
    #: states_explored 15753 → 4993, backtracks 9677 → 2688).
    EXPECTED = {
        "vf2.calls": 1262,
        "vf2.prefilter_cutoffs": 711,
        "vf2.searches": 551,
        "vf2.states_explored": 4993,
        "vf2.backtracks": 2688,
        "swap.ged_cache_hits": 6,
        "swap.ged_cache_misses": 21,
    }

    @staticmethod
    def _workload() -> dict[str, int | None]:
        config = MidasConfig(
            budget=PatternBudget(3, 5, 6),
            num_clusters=3,
            sample_cap=40,
            seed=5,
            epsilon=0.0,
        )
        midas = api.bootstrap(aids_like(24, seed=11), config=config)
        api.maintain(midas, family_injection(8, seed=3))
        registry = get_registry()
        return {
            name: getattr(registry.get(name), "value", None)
            for name in TestBoundCounters.EXPECTED
        }

    def test_follows_swapped_and_cleared_registry(self):
        bound = BoundCounter("bound.test")
        bound.add(2)
        assert get_registry().counter("bound.test").value == 2
        isolated = MetricsRegistry()
        previous = set_registry(isolated)
        try:
            bound.add(3)
            assert isolated.counter("bound.test").value == 3
            isolated.clear()
            bound.add(4)
            assert isolated.counter("bound.test").value == 4
        finally:
            set_registry(previous)
        bound.add(1)
        assert get_registry().counter("bound.test").value == 3

    def test_workload_totals_survive_reset_and_clear(self):
        assert self._workload() == self.EXPECTED
        reset_all()
        assert self._workload() == self.EXPECTED
        get_registry().clear()
        assert self._workload() == self.EXPECTED


class TestSpans:
    def test_nesting_builds_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner = tracer.root.find("outer/inner")
        assert inner is not None
        assert inner.calls == 1
        outer = tracer.root.find("outer")
        assert outer.seconds >= inner.seconds

    def test_reentry_aggregates_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("phase"):
                pass
        assert tracer.root.find("phase").calls == 3
        assert len(tracer.root.children) == 1

    def test_exception_safety(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.root.find("boom").calls == 1
        assert tracer.current is tracer.root  # stack restored

    def test_capture_yields_fresh_subtree_and_merges(self):
        tracer = Tracer()
        rounds = []
        for _ in range(2):
            with tracer.capture("round") as fresh:
                with tracer.span("step"):
                    pass
            rounds.append(fresh)
        # Each capture saw only its own entry...
        assert all(r.calls == 1 for r in rounds)
        assert all(r.find("step").calls == 1 for r in rounds)
        assert rounds[0] is not rounds[1]
        # ...while the global tree aggregated both.
        merged = tracer.root.find("round")
        assert merged.calls == 2
        assert merged.find("step").calls == 2

    def test_last_seconds_tracks_most_recent_entry(self):
        tracer = Tracer()
        with tracer.span("timed") as node:
            pass
        assert node.last_seconds >= 0.0
        assert node.last_seconds <= node.seconds

    def test_to_dict_round_trip(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        tree = tracer.to_dict()
        assert tree["name"] == "root"
        assert tree["children"][0]["name"] == "a"
        assert tree["children"][0]["children"][0]["name"] == "b"

    def test_render_shows_counts(self):
        tracer = Tracer()
        with tracer.span("phase"):
            pass
        assert "phase" in tracer.render()
        assert "x1" in tracer.render()

    def test_module_level_span_uses_default_tracer(self):
        with span("toplevel"):
            pass
        assert get_tracer().root.find("toplevel") is not None

    def test_set_tracer_swaps_default(self):
        isolated = Tracer()
        previous = set_tracer(isolated)
        try:
            with span("only-here"):
                pass
            assert isolated.root.find("only-here") is not None
            assert previous.root.find("only-here") is None
        finally:
            set_tracer(previous)

    def test_memory_tracing_records_peak(self):
        tracer = Tracer(trace_memory=True)
        with tracer.span("alloc"):
            _ = [0] * 50_000
        assert tracer.root.find("alloc").memory_peak_bytes > 0


class TestExport:
    def test_snapshot_schema(self):
        with span("something"):
            get_registry().counter("demo.counter").add(1)
        snapshot = metrics_snapshot()
        assert snapshot["schema"] == "repro.obs/1"
        assert snapshot["counters"]["demo.counter"] == 1
        names = [c["name"] for c in snapshot["spans"]["children"]]
        assert "something" in names

    def test_report_renders_all_sections(self):
        get_registry().counter("demo.counter").add(1)
        get_registry().gauge("demo.gauge").set(2)
        get_registry().histogram("demo.histogram").record(3)
        report = render_metrics_report()
        assert "== counters ==" in report
        assert "== gauges ==" in report
        assert "== histograms ==" in report
        assert "demo.counter" in report


class TestMaintainerIntegration:
    @pytest.fixture(scope="class")
    def midas(self):
        config = MidasConfig(
            budget=PatternBudget(3, 7, 8),
            sup_min=0.5,
            num_clusters=3,
            sample_cap=60,
            seed=3,
            epsilon=0.0,  # every batch classifies as major
        )
        return Midas.bootstrap(aids_like(50, seed=9), config)

    def test_apply_update_emits_documented_spans(self, midas):
        update = random_insertions(midas.database, 10, seed=4)
        report = midas.apply_update(update)
        tree = get_tracer().root.find("midas.apply_update")
        assert tree is not None
        phases = {child.name for child in tree.children}
        assert {"detect", "clusters", "fct", "csg", "sample"} <= phases
        assert report.is_major  # epsilon=0 forces the pattern phases
        assert {"candidates", "swap"} <= phases
        nested = {c.name for c in tree.find("candidates").children}
        assert nested == {"generate", "filter"}

    def test_report_metrics_snapshot(self, midas):
        update = random_insertions(midas.database, 10, seed=5)
        report = midas.apply_update(update)
        assert report.metrics["spans"]["name"] == "midas.apply_update"
        counters = report.metrics["counters"]
        assert counters["midas.updates"] == 1
        assert counters["clustering.assignments"] == len(report.inserted_ids)
        assert report.phases["detect"] > 0.0
        assert (
            report.pattern_maintenance_seconds
            >= report.pattern_generation_seconds
        )

    def test_report_phases_mirror_round_span(self, midas):
        update = random_insertions(midas.database, 10, seed=6)
        report = midas.apply_update(update)
        children = report.metrics["spans"]["children"]
        assert report.phases == {c["name"]: c["seconds"] for c in children}
        assert report.pattern_maintenance_seconds == sum(
            report.phases.values()
        )
        assert report.pattern_generation_seconds == (
            report.phases["candidates"] + report.phases["swap"]
        )
