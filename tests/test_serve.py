"""The pattern-serving layer: snapshots, the service, HTTP, the oracle.

The load-bearing claims under test (see docs/SERVING.md):

* snapshot isolation — a reader pinned at version *v* observes exactly
  the version-*v* pattern set, bit for bit, no matter how many
  maintenance rounds commit after the pin;
* failure atomicity — a rolled-back round publishes nothing, so the
  served head is untouched (the serving half of the PR-2 transactional
  guarantee);
* observability — the serve.* metric namespace is populated and
  exposed through ``GET /metricz``.
"""

from __future__ import annotations

import asyncio
import re

import pytest

from repro import api
from repro.check import run_oracle
from repro.datasets import aids_like, family_injection
from repro.midas import MidasConfig
from repro.obs import get_registry
from repro.patterns import PatternBudget
from repro.patterns.metrics import CoverageOracle
from repro.resilience import Fault, inject_faults
from repro.serve import SnapshotStore, build_snapshot
from repro.serve.http import ROUTES, PatternServer, endpoints
from repro.serve.service import PatternService
from repro.serve.bench import HttpClient, run_smoke


def make_midas(seed: int = 5):
    """A cheap bootstrapped maintainer (~1s) for service-level tests."""
    return api.bootstrap(
        aids_like(24, seed=11),
        config=MidasConfig(
            budget=PatternBudget(3, 6, 6),
            num_clusters=3,
            sample_cap=40,
            seed=seed,
        ),
    )


def signature(snapshot) -> tuple:
    """Everything a reader can observe through a snapshot."""
    return (
        snapshot.version,
        snapshot.database_size,
        snapshot.sample_size,
        snapshot.set_scov,
        tuple(
            (entry.pattern_id, tuple(sorted(entry.cover)), entry.scov)
            for entry in snapshot.patterns
        ),
    )


@pytest.fixture(scope="module")
def frozen_midas():
    """Shared read-only maintainer; tests must not apply updates to it."""
    return make_midas()


# ----------------------------------------------------------------------
# SnapshotStore unit behaviour
# ----------------------------------------------------------------------
def empty_snapshot(version: int):
    return build_snapshot(version, [], CoverageOracle({}), database_size=0)


class TestSnapshotStore:
    def test_versions_increase_by_one(self):
        store = SnapshotStore()
        assert store.version == 0
        with pytest.raises(RuntimeError):
            store.current()
        store.publish(empty_snapshot(1))
        assert store.version == 1
        with pytest.raises(ValueError):
            store.publish(empty_snapshot(3))
        with pytest.raises(ValueError):
            store.publish(empty_snapshot(1))
        store.publish(empty_snapshot(2))
        assert store.current().version == 2

    def test_release_reports_version_lag(self):
        registry = get_registry()
        stale_before = registry.counter("serve.stale_reads").value
        store = SnapshotStore()
        store.publish(empty_snapshot(1))
        lease = store.pin()
        store.publish(empty_snapshot(2))
        store.publish(empty_snapshot(3))
        assert lease.version == 1
        assert lease.release() == 2
        assert registry.gauge("serve.staleness").value == 2
        assert registry.counter("serve.stale_reads").value == stale_before + 1
        # releasing twice is a no-op
        assert lease.release() == 0

    def test_fresh_release_is_not_stale(self):
        registry = get_registry()
        stale_before = registry.counter("serve.stale_reads").value
        store = SnapshotStore()
        store.publish(empty_snapshot(1))
        with store.pin() as lease:
            assert lease.snapshot.version == 1
        assert registry.gauge("serve.staleness").value == 0
        assert registry.counter("serve.stale_reads").value == stale_before


class TestBuildSnapshot:
    def test_freezes_covers_and_scov(self, frozen_midas):
        midas = frozen_midas
        snapshot = build_snapshot(
            1,
            ((p.pattern_id, p.graph, p.provenance) for p in midas.patterns),
            midas.oracle,
            database_size=len(midas.database),
        )
        assert snapshot.pattern_ids() == [
            p.pattern_id for p in midas.patterns
        ]
        assert snapshot.sample_size == midas.oracle.universe_size
        for entry in snapshot.patterns:
            assert entry.cover == midas.oracle.cover(entry.graph)
            assert entry.scov == midas.oracle.scov(entry.graph)
        assert snapshot.set_scov == midas.oracle.set_scov(
            [entry.graph for entry in snapshot.patterns]
        )
        assert snapshot.pattern(10**9) is None

    def test_to_dict_shapes(self, frozen_midas):
        snapshot = build_snapshot(
            1,
            (
                (p.pattern_id, p.graph, p.provenance)
                for p in frozen_midas.patterns
            ),
            frozen_midas.oracle,
            database_size=len(frozen_midas.database),
        )
        payload = snapshot.to_dict()
        assert payload["version"] == 1
        assert {"id", "provenance", "scov", "cover_size", "graph"} <= set(
            payload["patterns"][0]
        )
        meta = snapshot.to_dict(include_graphs=False)
        assert "graph" not in meta["patterns"][0]


# ----------------------------------------------------------------------
# service-level snapshot isolation
# ----------------------------------------------------------------------
class TestPatternService:
    def test_pinned_reader_never_sees_a_committed_round(self):
        async def scenario():
            service = PatternService(make_midas())
            await service.start()
            try:
                lease = service.store.pin()
                before = signature(lease.snapshot)
                status = await service.submit(family_injection(6, seed=3))
                assert status.state == "queued"
                final = await service.wait_for(status.update_id)
                assert final.state == "applied"
                assert final.version == 2
                assert final.inserted_ids
                # The pinned reader still observes version 1, bit for
                # bit, even though the head moved on.
                assert lease.snapshot.version == 1
                assert signature(lease.snapshot) == before
                assert service.store.version == 2
                assert lease.release() == 1
                with service.store.pin() as fresh:
                    assert fresh.snapshot.version == 2
                    assert fresh.snapshot.database_size == len(
                        service.midas.database
                    )
            finally:
                await service.close()

        asyncio.run(scenario())

    def test_rollback_leaves_published_snapshot_untouched(self):
        async def scenario():
            service = PatternService(make_midas())
            await service.start()
            try:
                before = signature(service.store.current())
                with inject_faults({"midas.detect": Fault(times=None)}):
                    status = await service.submit(family_injection(6, seed=3))
                    final = await service.wait_for(status.update_id)
                assert final.state == "rolled_back"
                assert final.version is None
                assert service.store.version == 1
                assert signature(service.store.current()) == before
                # The service stays healthy: the next round commits.
                status = await service.submit(family_injection(6, seed=4))
                final = await service.wait_for(status.update_id)
                assert final.state == "applied"
                assert final.version == 2
            finally:
                await service.close()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# HTTP end to end (real TCP, real parsing)
# ----------------------------------------------------------------------
class TestHttpServer:
    def test_endpoints_and_errors(self):
        async def scenario():
            server = PatternServer(PatternService(make_midas()), port=0)
            host, port = await server.start()
            client = await HttpClient.connect(host, port)
            try:
                status, body = await client.request("GET", "/patterns")
                assert status == 200
                assert body["version"] == 1
                assert body["patterns"]
                first = body["patterns"][0]
                assert {"id", "provenance", "scov", "cover_size", "graph"} \
                    <= set(first)

                status, body = await client.request(
                    "GET", "/patterns?meta_only=1"
                )
                assert status == 200
                assert "graph" not in body["patterns"][0]

                pattern_id = first["id"]
                status, body = await client.request(
                    "GET", f"/cover?pattern={pattern_id}"
                )
                assert status == 200
                assert len(body["cover"]) == first["cover_size"]
                assert body["version"] == 1

                status, body = await client.request("GET", "/scov")
                assert status == 200
                assert 0.0 <= body["set_scov"] <= 1.0

                status, body = await client.request("GET", "/healthz")
                assert status == 200
                assert body["status"] == "ok"

                # the error surface, as documented in docs/SERVING.md
                status, body = await client.request("GET", "/cover")
                assert (status, body["error"]["code"]) == (400, "bad_request")
                status, body = await client.request(
                    "GET", "/cover?pattern=abc"
                )
                assert (status, body["error"]["code"]) == (400, "bad_request")
                status, body = await client.request(
                    "GET", "/cover?pattern=999999"
                )
                assert (status, body["error"]["code"]) == (
                    404,
                    "unknown_pattern",
                )
                status, body = await client.request("GET", "/nope")
                assert (status, body["error"]["code"]) == (404, "not_found")
                status, body = await client.request("POST", "/patterns")
                assert (status, body["error"]["code"]) == (
                    405,
                    "method_not_allowed",
                )
                status, body = await client.request(
                    "POST", "/updates", payload={"insertions": [{"bad": 1}]}
                )
                assert (status, body["error"]["code"]) == (400, "bad_update")
            finally:
                await client.close()
                await server.close()

        asyncio.run(scenario())

    def test_update_commit_and_metricz(self):
        async def scenario():
            from repro.graph.io import graph_to_dict

            server = PatternServer(PatternService(make_midas()), port=0)
            host, port = await server.start()
            client = await HttpClient.connect(host, port)
            try:
                update = family_injection(5, seed=7)
                payload = {
                    "insertions": [
                        graph_to_dict(g) for g in update.insertions
                    ],
                    "deletions": [],
                }
                status, body = await client.request(
                    "POST", "/updates?wait=1", payload=payload
                )
                assert status == 200
                assert body["status"] == "applied"
                assert body["version"] == 2
                assert len(body["inserted_ids"]) == 5

                status, body = await client.request("GET", "/patterns")
                assert body["version"] == 2

                status, body = await client.request("GET", "/metricz")
                assert status == 200
                counters = body["counters"]
                assert counters["serve.requests"] >= 3
                assert counters["serve.updates_applied"] >= 1
                assert counters["serve.snapshots_published"] >= 2
                assert body["gauges"]["serve.version"] >= 2
                assert "serve.request_ms" in body["histograms"]
            finally:
                await client.close()
                await server.close()

        asyncio.run(scenario())

    def test_fire_and_forget_update_is_accepted(self):
        async def scenario():
            server = PatternServer(PatternService(make_midas()), port=0)
            host, port = await server.start()
            client = await HttpClient.connect(host, port)
            try:
                status, body = await client.request(
                    "POST", "/updates", payload={"insertions": []}
                )
                assert status == 202
                assert body["status"] == "queued"
                assert body["update_id"] >= 1
            finally:
                await client.close()
                await server.close()

        asyncio.run(scenario())


class TestSmokeGate:
    def test_run_smoke_passes(self, capsys):
        assert run_smoke(make_midas()) == 0
        assert "serve smoke ok" in capsys.readouterr().out


class TestServeOracle:
    def test_seeded_fuzz_budget_is_clean(self):
        report = run_oracle("serve", seed=0, budget=10)
        assert report.ok, report.summary()


class TestRouteTable:
    def test_endpoints_mirror_routes(self):
        listed = endpoints()
        assert len(listed) == len(ROUTES)
        for method, path in ROUTES:
            assert f"{method} {path}" in listed
            assert re.fullmatch(r"(GET|POST)", method)
            assert path.startswith("/")


# ----------------------------------------------------------------------
# overload protection, the supervised writer and the health states
# ----------------------------------------------------------------------
class TestOverloadProtection:
    def test_full_queue_sheds_with_retry_after(self, frozen_midas):
        from repro.exceptions import ServiceOverloaded

        async def scenario():
            registry = get_registry()
            shed_before = registry.counter("serve.updates_shed").value
            service = PatternService(frozen_midas, queue_limit=2)
            # Writer never started: the queue only fills.
            await service.submit(family_injection(1, seed=1))
            await service.submit(family_injection(1, seed=2))
            with pytest.raises(ServiceOverloaded) as excinfo:
                await service.submit(family_injection(1, seed=3))
            assert 1.0 <= excinfo.value.retry_after <= 30.0
            assert (
                registry.counter("serve.updates_shed").value
                == shed_before + 1
            )
            # 2/2 queued is past the high watermark: health degrades.
            assert service.health_state == "degraded"

        asyncio.run(scenario())

    def test_close_with_full_admission_queue_shuts_down_cleanly(self):
        """The drain sentinel must always fit, even at the admission
        bound (regression: a maxsize-bounded queue made close() raise
        asyncio.QueueFull exactly in the overloaded drain=False case)."""
        import threading

        midas = make_midas()
        gate = threading.Event()
        original = midas.apply_update
        midas.apply_update = lambda update: (
            gate.wait(10),
            original(update),
        )[1]

        async def scenario():
            service = PatternService(midas, queue_limit=1)
            await service.start()
            first = await service.submit(family_injection(1, seed=1))
            # Let the writer dequeue the first update; it now blocks on
            # the gate inside the round while the queue is empty again.
            while service.queue_depth:
                await asyncio.sleep(0.01)
            second = await service.submit(family_injection(1, seed=2))
            assert service.queue_depth == service.queue_limit
            gate.set()
            await service.close(drain=False)
            assert (await service.wait_for(first.update_id)).state == (
                "applied"
            )
            assert (await service.wait_for(second.update_id)).state == (
                "applied"
            )

        try:
            asyncio.run(scenario())
        finally:
            midas.apply_update = original

    def test_peek_next_id_does_not_consume(self, frozen_midas):
        """Checkpoints peek at the id counter from a worker thread;
        peeking must never burn or reorder ids for concurrent submits."""

        async def scenario():
            service = PatternService(frozen_midas, queue_limit=4)
            peeked = service._peek_next_id()
            assert service._peek_next_id() == peeked
            status = await service.submit(family_injection(1, seed=1))
            assert status.update_id == peeked
            assert service._peek_next_id() == peeked + 1

        asyncio.run(scenario())

    def test_draining_and_dead_reject_submits(self, frozen_midas):
        from repro.exceptions import ServiceUnavailable

        async def scenario():
            service = PatternService(frozen_midas)
            service._draining = True
            assert service.health_state == "draining"
            with pytest.raises(ServiceUnavailable) as excinfo:
                await service.submit(family_injection(1, seed=1))
            assert excinfo.value.reason == "draining"
            service._draining = False
            service._declare_dead("test")
            assert service.health_state == "dead"
            with pytest.raises(ServiceUnavailable) as excinfo:
                await service.submit(family_injection(1, seed=1))
            assert excinfo.value.reason == "writer_dead"

        asyncio.run(scenario())

    def test_run_overload_sheds_and_resolves(self):
        from repro.serve.bench import run_overload

        # Hold every round for 50 ms so the writers outpace the
        # maintainer by construction, not by how slow a round happens
        # to be on this machine.
        slow_rounds = {
            "serve.round.pre_apply": Fault(
                kind="latency", delay=0.05, times=None
            )
        }
        with inject_faults(slow_rounds):
            figure = run_overload(
                make_midas(), queue_limit=2, writers=2, bursts=4, seed=3
            )
        outcomes = figure["outcomes"]
        assert outcomes["shed"] > 0
        assert figure["queue_bounded"]
        assert figure["retry_after"]["present_on_all_429s"]
        assert figure["accepted_resolved"] == outcomes["accepted"]


class TestWriterResilience:
    def test_unexpected_round_exception_yields_failed_status(self):
        midas = make_midas()

        async def scenario():
            registry = get_registry()
            failed_before = registry.counter("serve.updates_failed").value
            service = PatternService(midas)
            await service.start()
            original = midas.apply_update
            midas.apply_update = lambda update: (_ for _ in ()).throw(
                RuntimeError("surprise outside the transactional wrapper")
            )
            try:
                status = await service.submit(family_injection(1, seed=4))
                status = await service.wait_for(status.update_id)
                assert status.state == "failed"
                assert "surprise" in status.detail
                assert (
                    registry.counter("serve.updates_failed").value
                    == failed_before + 1
                )
                # The writer survived: a good update still applies.
                midas.apply_update = original
                status = await service.submit(family_injection(1, seed=5))
                status = await service.wait_for(status.update_id)
                assert status.state == "applied"
            finally:
                midas.apply_update = original
                await service.close()

        asyncio.run(scenario())

    def test_breaker_opens_after_consecutive_failures(self):
        from repro.exceptions import ServiceUnavailable

        midas = make_midas()

        async def scenario():
            service = PatternService(
                midas,
                breaker_threshold=2,
                breaker_cooldown_seconds=60.0,
            )
            await service.start()
            original = midas.apply_update
            midas.apply_update = lambda update: (_ for _ in ()).throw(
                RuntimeError("round failure")
            )
            try:
                for seed in (6, 7):
                    status = await service.submit(family_injection(1, seed=seed))
                    status = await service.wait_for(status.update_id)
                    assert status.state == "failed"
                assert service._breaker_state == "open"
                assert service.health_state == "degraded"
                with pytest.raises(ServiceUnavailable) as excinfo:
                    await service.submit(family_injection(1, seed=8))
                assert excinfo.value.reason == "circuit_open"
            finally:
                midas.apply_update = original
                await service.close()

        asyncio.run(scenario())

    def test_breaker_recloses_after_cooldown_probe(self):
        midas = make_midas()

        async def scenario():
            service = PatternService(
                midas,
                breaker_threshold=1,
                breaker_cooldown_seconds=0.05,
            )
            await service.start()
            original = midas.apply_update
            midas.apply_update = lambda update: (_ for _ in ()).throw(
                RuntimeError("round failure")
            )
            status = await service.submit(family_injection(1, seed=9))
            status = await service.wait_for(status.update_id)
            assert status.state == "failed"
            assert service._breaker_state == "open"
            # Repair the maintainer; after the cooldown the next round is
            # the half-open probe and its success recloses the breaker.
            midas.apply_update = original
            await asyncio.sleep(0.06)
            status = await service.submit(family_injection(1, seed=10))
            status = await service.wait_for(status.update_id)
            assert status.state == "applied"
            assert service._breaker_state == "closed"
            assert service.health_state == "ok"
            await service.close()

        asyncio.run(scenario())


class TestBacklogTrim:
    def test_unresolved_statuses_survive_trimming(self, frozen_midas):
        import repro.serve.service as service_module

        async def scenario(monkey_backlog: int):
            service = PatternService(frozen_midas, queue_limit=512)
            original = service_module.STATUS_BACKLOG
            service_module.STATUS_BACKLOG = monkey_backlog
            try:
                first = await service.submit(family_injection(1, seed=1))
                # Resolve a stream of later updates; the queued first
                # update must never be evicted however many resolve.
                for i in range(monkey_backlog * 3):
                    status = await service.submit(family_injection(1, seed=i))
                    service._resolve(
                        status.update_id,
                        service_module.UpdateStatus(
                            status.update_id, "rejected", detail="x"
                        ),
                    )
                    service._queue.get_nowait()
                    service._trim_backlog()
                assert service.status_of(first.update_id) is not None
                assert (
                    service.status_of(first.update_id).state == "queued"
                )
            finally:
                service_module.STATUS_BACKLOG = original

        asyncio.run(scenario(8))

    def test_wait_for_survives_eviction_race(self, frozen_midas):
        """A waiter must get its outcome even if the status was trimmed
        between resolution and the waiter waking."""

        async def scenario():
            service = PatternService(frozen_midas)
            status = await service.submit(family_injection(1, seed=2))
            update_id = status.update_id
            waiter = asyncio.create_task(service.wait_for(update_id))
            await asyncio.sleep(0)  # the waiter parks on the event
            from repro.serve.service import UpdateStatus

            service._resolve(
                update_id, UpdateStatus(update_id, "applied", version=99)
            )
            # Simulate the trim racing in before the waiter wakes.
            del service._statuses[update_id]
            resolved = await waiter
            assert resolved.state == "applied"
            assert resolved.version == 99

        asyncio.run(scenario())


class TestHttpOverloadSurface:
    def test_429_with_retry_after_header(self, frozen_midas):
        async def scenario():
            service = PatternService(frozen_midas, queue_limit=1)

            async def parked_writer() -> None:  # deterministic shedding:
                pass  # the queue can only fill, never drain

            service.start = parked_writer
            server = PatternServer(service, port=0)
            host, port = await server.start()
            client = await HttpClient.connect(host, port)
            try:
                status, body = await client.request(
                    "POST", "/updates", payload={"insertions": []}
                )
                assert status == 202
                status, body = await client.request(
                    "POST", "/updates", payload={"insertions": []}
                )
                assert status == 429
                assert body["error"]["code"] == "overloaded"
                retry_after = client.last_headers.get("retry-after")
                assert retry_after is not None and int(retry_after) >= 1
            finally:
                await client.close()
                await server.close()

        asyncio.run(scenario())

    def test_healthz_503_when_draining(self, frozen_midas):
        async def scenario():
            service = PatternService(frozen_midas)
            server = PatternServer(service, port=0)
            host, port = await server.start()
            client = await HttpClient.connect(host, port)
            try:
                status, body = await client.request("GET", "/healthz")
                assert status == 200
                assert body["status"] == "ok"
                assert body["breaker"] == "closed"
                service._draining = True
                status, body = await client.request("GET", "/healthz")
                assert status == 503
                assert body["status"] == "draining"
            finally:
                service._draining = False
                await client.close()
                await server.close()

        asyncio.run(scenario())

    def test_503_when_dead(self, frozen_midas):
        async def scenario():
            service = PatternService(frozen_midas)
            server = PatternServer(service, port=0)
            host, port = await server.start()
            service._declare_dead("writer crashed in test")
            client = await HttpClient.connect(host, port)
            try:
                status, body = await client.request(
                    "POST", "/updates", payload={"insertions": []}
                )
                assert status == 503
                assert body["error"]["code"] == "unavailable"
                status, body = await client.request("GET", "/healthz")
                assert status == 503
                assert body["status"] == "dead"
            finally:
                await client.close()
                await server.close()

        asyncio.run(scenario())


class TestHttpClientDeadlines:
    def test_request_times_out_instead_of_hanging(self):
        async def scenario():
            async def black_hole(reader, writer):
                await asyncio.sleep(30)

            server = await asyncio.start_server(
                black_hole, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            client = await HttpClient.connect(
                "127.0.0.1", port, timeout=0.2
            )
            try:
                with pytest.raises(TimeoutError):
                    await client.request("GET", "/patterns")
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_retry_reconnects_after_transport_failure(self, frozen_midas):
        async def scenario():
            service = PatternService(frozen_midas)
            server = PatternServer(service, port=0)
            host, port = await server.start()
            client = await HttpClient.connect(host, port)
            try:
                # Poison the connection, then prove the retry path
                # transparently reconnects.
                await client.close()
                status, body = await client.request_with_retry(
                    "GET", "/healthz"
                )
                assert status == 200
            finally:
                await client.close()
                await server.close()

        asyncio.run(scenario())
