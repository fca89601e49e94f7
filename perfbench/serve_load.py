"""The serve workload: an open-loop load process against ``repro serve``.

The server runs in its own process (``serve_main.py``: the ``serve``
CLI with a write-ahead journal, ``fsync=always`` and every other flag
at its default).  It is started ``SETUPS`` times; ``setup_s`` is the
median time from the end of its imports to the first ``/healthz`` that
answers ``ok``.  The last server then takes the load: panel sessions
(``GET /patterns``, then ``/cover`` and ``/scov`` for one panel
pattern) at a fixed rate, and update batches POSTed without ``wait`` on
a fixed schedule, all over two keep-alive connections.  Each read is
timed from its due time; ``visible_s`` is the mean time from an
update's 202 to the first read that returns its version.

Run through ``perfbench/run.py``, which sets the hash seed and threads.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import queue
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from types import SimpleNamespace

from repro import api
from repro.graph.database import BatchUpdate
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.patterns.metrics import CoverageOracle, pattern_set_quality

import common
import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
CONNECTIONS = 2
#: How long after the window the load keeps reading until every
#: acknowledged update is visible.
DRAIN_TIMEOUT_S = 60.0
START_TIMEOUT_S = 90.0
READ_KINDS = ("patterns", "cover", "scov")
#: Reads a run makes at least, so ten samples lie beyond p99.
MIN_READS = 1000
#: /metricz counters that must stay zero: every update reaches applied.
BAD_OUTCOMES = (
    "serve.updates_rejected",
    "serve.updates_rolled_back",
    "serve.updates_aborted",
    "serve.updates_failed",
    "serve.updates_shed",
)


class ServerProcess:
    """One ``repro serve`` child with a fresh journal directory."""

    def __init__(self, journal_dir: str, hash_seed: str, trace_out: str | None = None) -> None:
        shutil.rmtree(journal_dir, ignore_errors=True)
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        if trace_out:
            env["PERFBENCH_TRACE_OUT"] = trace_out
        self.lines: queue.Queue = queue.Queue()
        self.process = subprocess.Popen(
            [
                sys.executable,
                os.path.join(HERE, "serve_main.py"),
                "serve",
                "--port", "0",
                "--journal", journal_dir,
                "--fsync", "always",
            ],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        try:
            self.imported_at = float(self._expect("imported ").split()[1])
            url = self._expect("serving on ").split()[2]
            self.host, port = url.removeprefix("http://").rsplit(":", 1)
            self.port = int(port)
            self.ready_at = self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _pump(self) -> None:
        for line in self.process.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def _expect(self, prefix: str) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                raise RuntimeError(f"server never printed {prefix!r}")
            if line.startswith(prefix):
                return line

    def _wait_healthy(self) -> float:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                status, payload = self.get("/healthz")
            except OSError:
                status, payload = 0, {}
            if status == 200 and payload.get("status") == "ok":
                return time.monotonic()
            time.sleep(0.005)
        raise RuntimeError("server never reported healthy")

    def get(self, path: str) -> tuple[int, dict]:
        url = f"http://{self.host}:{self.port}{path}"
        try:
            with urllib.request.urlopen(url, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read() or b"{}")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=10)


# ----------------------------------------------------------------------
# the open-loop load
# ----------------------------------------------------------------------
class Connection:
    """A keep-alive HTTP/1.1 connection speaking just enough protocol."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n"
        )
        self.writer.write(head.encode("ascii") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            await self.writer.wait_closed()


class Load:
    """Schedules sessions and updates; records every request's outcome."""

    def __init__(self, server: ServerProcess, bodies: list[bytes], seconds: float) -> None:
        self.server = server
        self.bodies = bodies
        self.seconds = seconds
        self.reads: list[dict] = []
        self.acks: list[dict] = []
        self.lags: list[float] = []
        self.errors: list[str] = []
        self.max_version = 0

    def target_version(self) -> int:
        return 1 + len(self.bodies)

    async def run(self) -> None:
        jobs: asyncio.Queue = asyncio.Queue()
        connections = [Connection(self.server.host, self.server.port) for _ in range(CONNECTIONS)]
        for connection in connections:
            await connection.open()
        workers = [asyncio.create_task(self._worker(c, jobs)) for c in connections]
        try:
            await self._generate(jobs)
            for _ in workers:
                jobs.put_nowait(None)
            await asyncio.gather(*workers)
        finally:
            for worker in workers:
                worker.cancel()
            for connection in connections:
                await connection.close()

    async def _generate(self, jobs: asyncio.Queue) -> None:
        rate = inputs.SERVE_SESSION_RATE
        interval = self.seconds / len(self.bodies)
        start = time.monotonic() + 0.1
        window_end = start + self.seconds
        schedule = [(start + i / rate, "session", i) for i in range(int(self.seconds * rate))]
        schedule += [
            (start + (k + 0.5) * interval, "update", k) for k in range(len(self.bodies))
        ]
        schedule.sort()
        for due, kind, index in schedule:
            await self._sleep_until(due)
            self.lags.append(time.monotonic() - due)
            jobs.put_nowait((due, kind, index, True))
        # Keep reading, uncounted, until every update is visible.
        index = len(schedule)
        due = window_end
        while self.max_version < self.target_version():
            if due > window_end + DRAIN_TIMEOUT_S:
                self.errors.append("updates not visible before the drain timeout")
                break
            await self._sleep_until(due)
            await jobs.join()
            jobs.put_nowait((due, "session", index, False))
            index += 1
            due += 1.0 / rate

    @staticmethod
    async def _sleep_until(due: float) -> None:
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)

    async def _worker(self, connection: Connection, jobs: asyncio.Queue) -> None:
        while True:
            job = await jobs.get()
            try:
                if job is None:
                    return
                due, kind, index, counted = job
                if kind == "update":
                    await self._update(connection, due, index)
                else:
                    await self._session(connection, due, index, counted)
            except (OSError, ConnectionError, asyncio.IncompleteReadError, ValueError) as exc:
                self.errors.append(f"transport: {type(exc).__name__}: {exc}")
                await connection.close()
                await connection.open()
            finally:
                jobs.task_done()

    async def _read(self, connection, kind, path, due, counted, panel_version=0) -> dict:
        status, body = await connection.request("GET", path)
        done = time.monotonic()
        payload = json.loads(body)
        version = payload.get("version", 0)
        # A pattern swapped out between a session's panel and its cover
        # read is answered 404 at a later version: a correct answer.
        gone_at = swapped_out_at(payload, panel_version) if status == 404 else None
        gone = gone_at is not None
        if gone:
            version = gone_at
        self.max_version = max(self.max_version, version)
        self.reads.append(
            {"kind": kind, "status": status, "latency": done - due, "done": done,
             "version": version, "counted": counted, "gone": gone}
        )
        if status != 200 and not gone:
            self.errors.append(f"GET {path} answered {status}")
        return payload

    async def _session(self, connection, due, index, counted) -> None:
        panel = await self._read(connection, "patterns", "/patterns", due, counted)
        ids = [entry["id"] for entry in panel.get("patterns", [])]
        if not ids:
            self.errors.append("empty panel")
            return
        pattern = ids[index % len(ids)]
        for kind in ("cover", "scov"):
            path = f"/{kind}?pattern={pattern}"
            answer = await self._read(
                connection, kind, path, time.monotonic(), counted, panel["version"]
            )
            if "error" in answer:
                return

    async def _update(self, connection, due, index) -> None:
        sent = time.monotonic()
        status, body = await connection.request("POST", "/updates", self.bodies[index])
        done = time.monotonic()
        self.acks.append({"index": index, "status": status, "ack": done,
                          "ack_latency": done - sent, "lateness": sent - due})
        if status != 202:
            self.errors.append(f"POST /updates answered {status}: {body[:200]!r}")

    # ------------------------------------------------------------------
    def visibility(self) -> list[float]:
        """Per update: 202 acknowledgement → first read of its version."""
        delays = []
        for ack in sorted(self.acks, key=lambda a: a["index"]):
            target = 2 + ack["index"]
            seen = [r["done"] for r in self.reads
                    if r["version"] >= target and r["done"] >= ack["ack"]]
            if seen:
                delays.append(min(seen) - ack["ack"])
        return delays


def swapped_out_at(payload: dict, panel_version: int) -> int | None:
    """The version after the panel's at which a 404 says the pattern is
    gone, or None when the 404 means anything else."""
    error = payload.get("error", {})
    if error.get("code") != "unknown_pattern":
        return None
    match = re.search(r"at version (\d+)", error.get("message", ""))
    if match is None or int(match.group(1)) <= panel_version:
        return None
    return int(match.group(1))


# ----------------------------------------------------------------------
def session(out_dir: str, tag: str, bodies, seconds, hash_seed, trace_out=None) -> dict:
    """Start a server, drive the load window, collect everything, stop it."""
    server = ServerProcess(os.path.join(out_dir, f"journal-{tag}"), hash_seed, trace_out)
    try:
        load = Load(server, bodies, seconds)
        asyncio.run(load.run())
        _, health = server.get("/healthz")
        _, metricz = server.get("/metricz")
        _, panel = server.get("/patterns")
        _, whole = server.get("/scov")
        covers = {}
        for entry in panel["patterns"]:
            status, cover = server.get(f"/cover?pattern={entry['id']}")
            covers[entry["id"]] = cover.get("cover") if status == 200 else None
    finally:
        server.stop()
    # Peak RSS over the servers this process has waited for; the loaded
    # server, started last, holds the largest state.
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    shutil.rmtree(os.path.join(out_dir, f"journal-{tag}"), ignore_errors=True)
    return {
        "setup_s": server.ready_at - server.imported_at,
        "load": load,
        "health": health,
        "metricz": metricz,
        "panel": panel,
        "whole": whole,
        "covers": covers,
        "rss": rss,
        "exit_code": server.process.returncode,
    }


def replay(base, updates):
    """The final database: the base with every update applied in order."""
    database = base.copy()
    for insertions, deletions in updates:
        database.apply(BatchUpdate.of(insertions=insertions, deletions=deletions))
    return database


def check(result: dict, updates, base) -> tuple[list[str], dict, str]:
    """Correctness of one session; returns (problems, quality, digest)."""
    load: Load = result["load"]
    problems = list(load.errors)
    counters = result["metricz"]["counters"]
    if len(load.acks) != len(updates) or any(a["status"] != 202 for a in load.acks):
        problems.append("not every update was acknowledged with 202")
    if counters.get("serve.updates_applied", 0) != len(updates):
        problems.append(f"{counters.get('serve.updates_applied')} of {len(updates)} updates applied")
    for name in BAD_OUTCOMES:
        if counters.get(name, 0):
            problems.append(f"{name} = {counters[name]}")
    if result["health"].get("version") != 1 + len(updates):
        problems.append(f"head version {result['health'].get('version')} != {1 + len(updates)}")
    if any(r["status"] >= 500 for r in load.reads):
        problems.append("a route answered 5xx")
    if result["exit_code"] not in (0, None):
        problems.append(f"server exited with {result['exit_code']}")

    database = replay(base, updates)
    graphs = [graph_from_dict(entry["graph"]) for entry in result["panel"]["patterns"]]
    problems += common.budget_violations(graphs, inputs.serve_config().budget)
    if result["whole"].get("sample_size") != len(database):
        problems.append("served sample is not the whole database; cannot rescan it")
    fresh = CoverageOracle(dict(database.items()))
    for entry, graph in zip(result["panel"]["patterns"], graphs):
        if result["covers"].get(entry["id"]) != sorted(fresh.cover(graph)):
            problems.append(f"served cover of pattern {entry['id']} differs from a full scan")
    if result["whole"].get("set_scov") != fresh.set_scov(graphs):
        problems.append("served scov differs from a full scan")
    quality = pattern_set_quality([SimpleNamespace(graph=g) for g in graphs], fresh)
    return problems, quality, common.panel_digest(graphs)


def round_mean_s(metricz: dict) -> float:
    summary = metricz["histograms"]["midas.update_seconds"]
    return summary["total"] / summary["count"]


def read_ms(load: Load, kind: str | None = None) -> list[float]:
    return [r["latency"] * 1000.0 for r in load.reads
            if r["counted"] and (kind is None or r["kind"] == kind)]


def failures(loads: list[Load]) -> tuple[int, int]:
    """Operations attempted and failed: non-2xx answers (429s included,
    swapped-out 404s not) and transport errors."""
    attempted = failed = 0
    for load in loads:
        attempted += len(load.reads) + len(load.acks)
        failed += sum(r["status"] != 200 and not r["gone"] for r in load.reads)
        failed += sum(a["status"] != 202 for a in load.acks)
        failed += sum(e.startswith("transport") for e in load.errors)
    return max(1, attempted), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("serve",), default="serve")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    updates = inputs.serve_updates(args.seed, args.seconds)
    bodies = [
        json.dumps({"insertions": [graph_to_dict(g) for g in ins], "deletions": dels}).encode()
        for ins, dels in updates
    ]
    base = inputs.serve_base()
    os.makedirs(args.out, exist_ok=True)
    record = {
        "workload": "serve",
        "seed": args.seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "base_graphs": len(base),
        "updates": len(updates),
        "family_per_update": inputs.SERVE_FAMILY,
        "session_rate": inputs.SERVE_SESSION_RATE,
        "update_interval_s": args.seconds / len(updates),
        "connections": CONNECTIONS,
        "execution": common.execution_record(inputs.serve_config()),
        "trace": args.trace,
    }

    # Each server start has its own hash seed; the loaded server (and, in
    # a traced run, both its passes) uses the last one.
    seeds = [common.hash_seed("serve", args.seed, i) for i in range(common.SETUPS)]
    record["server_hash_seeds"] = seeds
    if not args.trace:
        setups = []
        for index in range(common.SETUPS - 1):
            journal = os.path.join(args.out, f"journal-setup{index}")
            server = ServerProcess(journal, seeds[index])
            server.stop()
            shutil.rmtree(journal, ignore_errors=True)
            setups.append(server.ready_at - server.imported_at)
        result = session(args.out, "load", bodies, args.seconds, seeds[-1])
        setups.append(result["setup_s"])
        problems, quality, digest = check(result, updates, base)
        load = result["load"]
        loads = [load]
        reads = read_ms(load)
        if len(reads) < MIN_READS:
            problems.append(f"only {len(reads)} reads in the window")
        visible = load.visibility()
        if len(visible) != len(updates):
            problems.append("some updates never became visible")
        metrics = {
            "setup_s": statistics.median(setups),
            "round_s": round_mean_s(result["metricz"]),
            "peak_rss_mb": result["rss"],
            "panel_scov": quality["scov"],
            "panel_score": quality["score"],
            "visible_s": statistics.fmean(visible) if visible else 0.0,
        }
        record.update(setup_s=setups, visible_s=visible, reads=len(reads),
                      server_rounds=result["metricz"]["histograms"]["midas.update_seconds"])
    else:
        plain = session(args.out, "plain", bodies, args.seconds, seeds[-1])
        problems, quality, digest = check(plain, updates, base)
        plain_round = round_mean_s(plain["metricz"])
        started = time.perf_counter()
        api.select(replay(base, updates), config=inputs.serve_config())
        scratch_s = time.perf_counter() - started

        trace_out = os.path.join(args.out, "server-layers.json")
        result = session(args.out, "traced", bodies, args.seconds, seeds[-1], trace_out)
        more, quality, digest = check(result, updates, base)
        problems += more
        with open(trace_out, encoding="utf-8") as handle:
            layers = json.load(handle)
        if layers["unfired"]:
            problems.append(f"wrappers never fired: {layers['unfired']}")
        load = result["load"]
        loads = [plain["load"], load]
        metrics = tracing.empty_metrics()
        metrics.update(layers["metrics"])
        metrics.update(tracing.obs_metrics(result["metricz"]["counters"]))
        traced_round = round_mean_s(result["metricz"])
        for kind in READ_KINDS:
            metrics[f"serve.{kind}_p50_ms"] = common.percentile(read_ms(load, kind), 50)
        metrics["serve.read_p99_ms"] = common.percentile(read_ms(load), 99)
        metrics["serve.generator_lag_ms"] = common.percentile(load.lags, 50) * 1000.0
        metrics["serve.round_s"] = traced_round
        metrics["journal.ack_p50_ms"] = common.percentile(
            [a["ack_latency"] * 1000.0 for a in load.acks], 50)
        metrics["journal.fsyncs"] = float(result["metricz"]["counters"].get("journal.fsyncs", 0))
        metrics["obs.trace_overhead"] = traced_round / plain_round
        metrics["midas.pmt_speedup"] = scratch_s / plain_round
        common.write_json(args.out, "layers.json", {
            "workload": "serve",
            "server": layers,
            "layer_map": tracing.LAYER_MAP,
            "metrics": metrics,
            "untraced_round_mean_s": plain_round,
            "traced_round_mean_s": traced_round,
            "catapult_from_scratch_s": scratch_s,
            "generator_lag_max_ms": max(load.lags) * 1000.0,
        })
        common.write_json(args.out, "metricz.json", result["metricz"])

    attempted, failed = failures(loads)
    record.update(panel_digest=digest, quality=quality, problems=problems,
                  attempted=attempted, failed=failed)
    common.write_json(args.out, "run.json", record)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    common.emit(not problems and failed == 0, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
