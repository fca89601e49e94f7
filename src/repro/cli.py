"""Command-line interface for the MIDAS reproduction.

Usage::

    python -m repro demo                      # the quickstart walkthrough
    python -m repro bench --figure fig12      # regenerate one paper figure
    python -m repro bench --all               # regenerate every figure
    python -m repro dataset --profile aids --count 100 --out db.json
    python -m repro check --oracle prune --seed 7 --budget 50
    python -m repro check --replay artifact.json
    python -m repro serve --port 8373         # the pattern-serving service
    python -m repro serve --smoke             # CI gate: hit every endpoint
    python -m repro serve --journal wal/      # durable, crash-recoverable
    python -m repro serve-bench --out BENCH_serve.json
    python -m repro serve-bench --overload    # admission-control probe
    python -m repro crashtest --smoke         # CI gate: crash + recover
    python -m repro crashtest                 # the full crash-site matrix
    python -m repro info                      # version + experiment index

The ``bench`` subcommand drives exactly the same experiment code the
``benchmarks/`` pytest suite uses (:mod:`repro.bench.experiments`), so
console runs and benchmark runs always agree.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .bench import ExperimentScale
from .exceptions import ResilienceError
from .obs import (
    render_metrics_report,
    set_trace_memory,
    span,
    write_metrics_json,
)
from .execution import ExecutionConfig
from .bench.experiments import (
    ablations,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    store as store_experiment,
)

FIGURES = {
    "fig09": ("Fig 9 — user study (PubChem-like)", fig09.run),
    "fig10": ("Fig 10 — user-specified queries", fig10.run),
    "fig11": ("Fig 11 — threshold sweeps", fig11.run),
    "fig12": ("Fig 12 — FCT & index costs", fig12.run),
    "fig13": ("Fig 13 — MIDAS vs NoMaintain", fig13.run),
    "fig14": ("Fig 14 — baselines (AIDS-like)", fig14.run),
    "fig15": ("Fig 15 — baselines (PubChem-like)", fig15.run),
    "fig16": ("Fig 16 — scalability", fig16.run),
    "abl1": ("Ablation 1 — FCT vs FS", ablations.run_fct_vs_fs),
    "abl2": ("Ablation 2 — pruning on/off", ablations.run_pruning),
    "abl3": ("Ablation 3 — GFD distances", ablations.run_distance_measures),
    "abl4": ("Ablation 4 — walks vs FSM", ablations.run_walks_vs_fsm),
    "store": (
        "Store — out-of-core SQLite backend vs in-memory",
        store_experiment.run,
    ),
}

#: Per-figure wall-clock guard for ``bench --all`` when no explicit
#: ``--deadline-ms`` is given: one runaway figure cannot hang the whole
#: harness (15 minutes dwarfs every figure's normal small-scale runtime).
DEFAULT_FIGURE_DEADLINE_MS = 15 * 60 * 1000

SCALES = {
    "small": ExperimentScale(
        base_graphs=80,
        family_batch=30,
        queries=60,
        gamma=10,
        eta_max=7,
        sample_cap=100,
        num_clusters=4,
    ),
    "medium": ExperimentScale(),
    "large": ExperimentScale(
        base_graphs=400,
        family_batch=120,
        queries=300,
        gamma=24,
        eta_max=10,
        sample_cap=300,
        num_clusters=10,
    ),
}


def _show_tables(result) -> None:
    tables = result if isinstance(result, tuple) else (result,)
    for table in tables:
        print()
        table.show()


def _check_metrics_path(args: argparse.Namespace) -> bool:
    """Fail fast on an unwritable ``--metrics-out`` before a long run."""
    target = getattr(args, "metrics_out", None)
    if not target:
        return True
    from pathlib import Path

    parent = Path(target).resolve().parent
    if not parent.is_dir():
        print(
            f"--metrics-out: directory {parent} does not exist",
            file=sys.stderr,
        )
        return False
    return True


def _export_metrics(args: argparse.Namespace) -> None:
    """Honour ``--metrics-out`` / ``--show-metrics`` after a run."""
    if getattr(args, "metrics_out", None):
        write_metrics_json(args.metrics_out)
        print(f"\nmetrics written to {args.metrics_out}")
    if getattr(args, "show_metrics", False):
        print()
        print(render_metrics_report())


def _execution_from_args(
    args: argparse.Namespace, deadline_ms: float | None = None
) -> ExecutionConfig:
    """Build the shared execution policy from the normalized CLI flags.

    The flag spellings mirror the :class:`~repro.execution.ExecutionConfig`
    field names one-to-one (``--check``, ``--deadline-ms``, ``--degrade``,
    ``--store``) so the CLI and the ``repro.api`` facade stay in sync.
    """
    if deadline_ms is None:
        deadline_ms = getattr(args, "deadline_ms", None)
    return ExecutionConfig(
        check=getattr(args, "check", "off") == "on",
        deadline_ms=deadline_ms,
        degrade=getattr(args, "degrade", "on") != "off",
        store=getattr(args, "store", None),
    )


def cmd_demo(args: argparse.Namespace) -> int:
    # Defer the import: examples/ is not a package, so load by path.
    import runpy
    from pathlib import Path

    quickstart = (
        Path(__file__).resolve().parent.parent.parent
        / "examples"
        / "quickstart.py"
    )
    if not quickstart.exists():
        print("examples/quickstart.py not found", file=sys.stderr)
        return 1
    if not _check_metrics_path(args):
        return 2
    try:
        with _execution_from_args(args).apply():
            runpy.run_path(str(quickstart), run_name="__main__")
    except ResilienceError as exc:
        # The walkthrough overran the demo deadline; everything up to
        # here already printed, and the metrics still get exported.
        print(f"\n[demo stopped by deadline: {exc}]")
    _export_metrics(args)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    scale = SCALES[args.scale]
    targets = list(FIGURES) if args.all else [args.figure]
    if not targets or targets == [None]:
        print("specify --figure <name> or --all", file=sys.stderr)
        return 2
    if not _check_metrics_path(args):
        return 2
    if getattr(args, "trace_memory", False):
        set_trace_memory(True)
    deadline_ms = getattr(args, "deadline_ms", None)
    if deadline_ms is None and args.all:
        deadline_ms = DEFAULT_FIGURE_DEADLINE_MS
    execution = _execution_from_args(args, deadline_ms=deadline_ms)
    outcomes: list[tuple[str, float, str]] = []
    for name in targets:
        title, runner = FIGURES[name]
        print(f"\n### {name}: {title} (scale={args.scale})")
        start = time.perf_counter()
        try:
            # ``apply()`` arms a fresh per-figure deadline: one runaway
            # figure times out on its own instead of starving the rest.
            with execution.apply(), span(f"bench.{name}"):
                result = runner(scale)
        except ResilienceError as exc:
            elapsed = time.perf_counter() - start
            outcomes.append((name, elapsed, "TIMEOUT"))
            print(
                f"  [{name} TIMEOUT after {elapsed:.1f}s: "
                f"{type(exc).__name__}: {exc}]",
                file=sys.stderr,
            )
            continue
        except Exception as exc:  # noqa: BLE001 - collect, report, go on
            elapsed = time.perf_counter() - start
            outcomes.append((name, elapsed, "FAILED"))
            print(
                f"  [{name} FAILED after {elapsed:.1f}s: "
                f"{type(exc).__name__}: {exc}]",
                file=sys.stderr,
            )
            continue
        elapsed = time.perf_counter() - start
        outcomes.append((name, elapsed, "ok"))
        _show_tables(result)
        print(f"  [{name} completed in {elapsed:.1f}s]")
    failures = [name for name, _, status in outcomes if status != "ok"]
    if len(outcomes) > 1:
        print(f"\n### summary ({args.scale} scale)")
        for name, elapsed, status in outcomes:
            print(f"  {name:<6} {status:<7} {elapsed:8.1f}s")
        print(
            f"  {len(outcomes) - len(failures)}/{len(outcomes)} experiments "
            f"succeeded in {sum(e for _, e, _ in outcomes):.1f}s total"
        )
    _export_metrics(args)
    return 1 if failures else 0


def cmd_dataset(args: argparse.Namespace) -> int:
    from .bench.common import dataset
    from .graph.io import write_database

    database = dataset(args.profile, args.count, args.seed)
    write_database(args.out, database)
    summary = database.summary()
    print(
        f"wrote {summary['graphs']} graphs "
        f"(avg |V|={summary['avg_vertices']:.1f}, "
        f"avg |E|={summary['avg_edges']:.1f}) to {args.out}"
    )
    return 0


def _bootstrap_service(args: argparse.Namespace):
    """Load or generate a database, then bootstrap the maintainer for it.

    Shared by ``serve`` and ``serve-bench`` so both commands serve an
    identically configured pattern set.
    """
    from . import api
    from .bench.common import dataset
    from .graph.io import FormatError, read_database
    from .midas.config import MidasConfig
    from .patterns.budget import PatternBudget

    if args.db:
        try:
            database = read_database(args.db)
        except (OSError, FormatError, ValueError) as exc:
            print(f"cannot load {args.db}: {exc}", file=sys.stderr)
            return None
        source = args.db
    else:
        database = dataset(args.profile, args.count, args.seed)
        source = f"synthetic {args.profile} x{args.count} (seed {args.seed})"
    store_spec = getattr(args, "store", None)
    if store_spec:
        # Ingest the dataset into the requested backend so the whole
        # serve/maintenance path runs against it (docs/STORAGE.md).
        from .store import open_store

        try:
            backing = open_store(store_spec)
        except (OSError, ValueError) as exc:
            print(f"cannot open store {store_spec!r}: {exc}", file=sys.stderr)
            return None
        backing.ingest(dict(database.items()))
        database = backing
        source = f"{source} via {store_spec}"
    config = MidasConfig(
        budget=PatternBudget(args.eta_min, args.eta_max, args.gamma),
        num_clusters=args.clusters,
        sample_cap=args.sample_cap,
        seed=args.seed,
    )
    started = time.perf_counter()
    midas = api.bootstrap(
        database, config=config, execution=_execution_from_args(args)
    )
    print(
        f"bootstrapped {len(midas.patterns)} patterns over "
        f"{len(database)} graphs ({source}) "
        f"in {time.perf_counter() - started:.1f}s"
    )
    return midas


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .resilience.faults import arm_crash_from_env
    from .serve.http import PatternServer, endpoints
    from .serve.service import PatternService
    from .serve.bench import run_smoke

    if not _check_metrics_path(args):
        return 2
    # The crashtest harness plants a hard crash in this process through
    # the environment; a normal run arms nothing (empty variable).
    armed = arm_crash_from_env()
    if armed:
        print(f"crash site armed: {armed}", flush=True)

    journal_dir = getattr(args, "journal", None)
    service_kwargs = {
        "fsync": args.fsync,
        "queue_limit": args.queue_limit,
        "checkpoint_every": args.checkpoint_every,
    }
    if args.segment_bytes:
        service_kwargs["segment_max_bytes"] = args.segment_bytes

    recoverable = False
    if journal_dir:
        from .journal import load_latest_checkpoint

        recoverable = load_latest_checkpoint(journal_dir) is not None
    if recoverable:
        # The journal already holds a checkpoint: recover the previous
        # incarnation instead of bootstrapping a fresh maintainer.
        started = time.perf_counter()
        service = PatternService(
            None, journal_dir=journal_dir, **service_kwargs
        )
        recovery = service.last_recovery
        print(
            f"recovered version {recovery.head_version} "
            f"({recovery.replayed_commits} commits replayed, "
            f"{len(recovery.pending)} updates re-queued) from "
            f"{journal_dir} in {time.perf_counter() - started:.2f}s",
            flush=True,
        )
    else:
        midas = _bootstrap_service(args)
        if midas is None:
            return 2
        if args.smoke:
            code = run_smoke(midas)
            _export_metrics(args)
            return code
        service = PatternService(
            midas, journal_dir=journal_dir, **service_kwargs
        )

    server = PatternServer(service, host=args.host, port=args.port)

    async def _run() -> None:
        host, port = await server.start()
        print(f"serving on http://{host}:{port} (Ctrl-C to stop)", flush=True)
        for line in endpoints():
            print(f"  {line}")
        sys.stdout.flush()
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("\nshutting down")
    _export_metrics(args)
    return 0


def cmd_serve_bench(args: argparse.Namespace) -> int:
    import json

    from .serve.bench import run_bench, run_overload

    if not _check_metrics_path(args):
        return 2
    midas = _bootstrap_service(args)
    if midas is None:
        return 2
    if args.overload:
        figure = run_overload(
            midas,
            queue_limit=args.queue_limit,
            seed=args.seed,
        )
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(figure, handle, indent=2, sort_keys=True)
            handle.write("\n")
        outcomes = figure["outcomes"]
        print(
            f"\noverload: {outcomes['accepted']} accepted, "
            f"{outcomes['shed']} shed with 429, queue bounded: "
            f"{figure['queue_bounded']}, degraded health observed: "
            f"{figure['degraded_health_observed']}"
        )
        print(f"wrote {args.out}")
        _export_metrics(args)
        ok = (
            figure["queue_bounded"]
            and outcomes["shed"] > 0
            and figure["retry_after"]["present_on_all_429s"]
            and figure["accepted_resolved"] == outcomes["accepted"]
        )
        return 0 if ok else 1
    figure = run_bench(
        midas,
        duration_seconds=args.duration,
        clients=args.clients,
        update_interval_seconds=args.update_interval,
        update_batch_size=args.update_batch,
        seed=args.seed,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(figure, handle, indent=2, sort_keys=True)
        handle.write("\n")

    throughput = figure["throughput"]
    staleness = figure["staleness"]
    updates = figure["updates"]
    print(
        f"\nserve-bench: {throughput['total_requests']} requests in "
        f"{throughput['elapsed_seconds']:.1f}s — "
        f"{throughput['sustained_qps']:.0f} QPS sustained, "
        f"{throughput['errors']} errors"
    )
    for endpoint, stats in figure["latency_ms"].items():
        print(
            f"  {endpoint:<14} p50 {stats['p50_ms']:7.2f} ms   "
            f"p99 {stats['p99_ms']:7.2f} ms   ({stats['count']} samples)"
        )
    print(
        f"  staleness window: max {staleness['window_ms_max']:.2f} ms, "
        f"mean {staleness['window_ms_mean']:.2f} ms across "
        f"{staleness['snapshots_published']} snapshots"
    )
    outcome_parts = ", ".join(
        f"{state} {count}"
        for state, count in sorted(updates.items())
        if state != "submitted"
    )
    print(f"  updates: {updates['submitted']} submitted ({outcome_parts})")
    print(f"wrote {args.out}")
    _export_metrics(args)
    unapplied = sum(
        count
        for state, count in updates.items()
        if state not in ("submitted", "applied")
    )
    return 1 if throughput["errors"] or unapplied else 0


def cmd_crashtest(args: argparse.Namespace) -> int:
    from .serve.crashtest import run_crashtest

    return run_crashtest(
        tuple(args.site) if args.site else None,
        smoke=args.smoke,
        out=args.out,
        seed=args.seed,
        store=getattr(args, "store", None),
    )


def cmd_check(args: argparse.Namespace) -> int:
    from .check import (
        ORACLES,
        load_artifact,
        oracle_names,
        recorded_mismatch,
        replay,
        run_oracle,
        write_artifact,
    )

    if args.list:
        print("Available oracles (see docs/CORRECTNESS.md):")
        for name in oracle_names():
            print(f"  {name:<10} {ORACLES[name].description}")
        return 0

    if args.replay:
        try:
            artifact = load_artifact(args.replay)
        except (OSError, ValueError) as exc:
            print(f"cannot load {args.replay}: {exc}", file=sys.stderr)
            return 2
        mismatch = replay(artifact)
        recorded = recorded_mismatch(artifact)
        if mismatch is None:
            print(
                f"replay of {args.replay}: clean — recorded mismatch "
                f"[{recorded.oracle}] {recorded.code} no longer reproduces"
            )
            return 0
        print(f"replay of {args.replay}: still failing")
        print(mismatch)
        return 1

    if args.all_oracles:
        targets = oracle_names()
    elif args.oracle:
        targets = [args.oracle]
    else:
        print(
            "specify --oracle NAME, --all-oracles, --replay PATH or --list",
            file=sys.stderr,
        )
        return 2

    failures = 0
    for name in targets:
        report = run_oracle(
            name,
            seed=args.seed,
            budget=args.budget,
            shrink_failures=not args.no_shrink,
        )
        print(report.summary())
        if not report.ok:
            failures += 1
            path = write_artifact(
                f"{args.artifact_dir}/{name}-seed{args.seed}.json", report
            )
            print(f"  artifact written to {path}")
    if len(targets) > 1:
        print(
            f"\n{len(targets) - failures}/{len(targets)} oracles clean "
            f"(seed {args.seed}, budget {args.budget})"
        )
    return 1 if failures else 0


def cmd_info(_: argparse.Namespace) -> int:
    print(f"repro {__version__} — MIDAS (SIGMOD 2021) reproduction")
    print("\nExperiment index (see DESIGN.md):")
    for name, (title, _) in FIGURES.items():
        print(f"  {name:<6} {title}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MIDAS canned-pattern maintenance — reproduction CLI",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_metrics_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--metrics-out",
            metavar="PATH",
            help="write a JSON metrics snapshot (spans + counters) to PATH",
        )
        sub.add_argument(
            "--show-metrics",
            action="store_true",
            help="print the span-tree/metrics report after the run",
        )

    def add_execution_flags(sub: argparse.ArgumentParser) -> None:
        # One flag per ExecutionConfig field, matched exactly: with
        # prefix matching on, the removed --deadline would still
        # resolve to --deadline-ms.
        sub.allow_abbrev = False
        sub.add_argument(
            "--deadline-ms",
            type=float,
            metavar="MS",
            help="wall-clock deadline: per figure for bench, whole run "
            "for demo; expensive kernels degrade to cheaper bounds "
            "instead of overrunning (see docs/ROBUSTNESS.md)",
        )
        sub.add_argument(
            "--degrade",
            choices=("on", "off"),
            default="on",
            help="'on' (default) falls down the fidelity ladder under "
            "deadline pressure; 'off' fails hard instead",
        )
        sub.add_argument(
            "--check",
            choices=("on", "off"),
            default="off",
            help="'on' arms the runtime invariant guards (repro.check): "
            "a violated invariant raises and rolls the maintenance "
            "round back (see docs/CORRECTNESS.md)",
        )
        sub.add_argument(
            "--store",
            metavar="SPEC",
            default=None,
            help="graph-store backend spec: 'memory' (default), "
            "'sqlite:PATH' or a .db/.sqlite path for the out-of-core "
            "backend (see docs/STORAGE.md)",
        )

    demo = subparsers.add_parser("demo", help="run the quickstart demo")
    add_metrics_flags(demo)
    add_execution_flags(demo)
    demo.set_defaults(func=cmd_demo)

    bench = subparsers.add_parser(
        "bench", help="regenerate paper figures/tables"
    )
    bench.add_argument(
        "--figure", choices=sorted(FIGURES), help="one experiment to run"
    )
    bench.add_argument(
        "--all", action="store_true", help="run every experiment"
    )
    bench.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="small",
        help="dataset scale (default: small)",
    )
    add_metrics_flags(bench)
    add_execution_flags(bench)
    bench.add_argument(
        "--trace-memory",
        action="store_true",
        help="capture tracemalloc peak memory per span (slower)",
    )
    bench.set_defaults(func=cmd_bench)

    dataset_cmd = subparsers.add_parser(
        "dataset", help="generate a synthetic dataset file"
    )
    dataset_cmd.add_argument(
        "--profile", choices=("aids", "pubchem", "emol"), default="pubchem"
    )
    dataset_cmd.add_argument("--count", type=int, default=100)
    dataset_cmd.add_argument("--seed", type=int, default=0)
    dataset_cmd.add_argument("--out", default="dataset.json")
    dataset_cmd.set_defaults(func=cmd_dataset)

    def add_serve_dataset_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--db",
            metavar="PATH",
            help="serve a dataset file written by 'repro dataset' "
            "instead of generating one",
        )
        sub.add_argument(
            "--profile",
            choices=("aids", "pubchem", "emol"),
            default="aids",
            help="synthetic dataset profile when no --db is given "
            "(default: aids)",
        )
        sub.add_argument(
            "--count",
            type=int,
            default=80,
            metavar="N",
            help="graphs to generate when no --db is given (default 80)",
        )
        sub.add_argument(
            "--seed",
            type=int,
            default=0,
            help="seed for dataset generation, bootstrap and load "
            "generation (default 0)",
        )
        sub.add_argument(
            "--eta-min",
            type=int,
            default=3,
            metavar="N",
            help="minimum pattern size η_min (default 3)",
        )
        sub.add_argument(
            "--eta-max",
            type=int,
            default=7,
            metavar="N",
            help="maximum pattern size η_max (default 7)",
        )
        sub.add_argument(
            "--gamma",
            type=int,
            default=10,
            metavar="N",
            help="pattern-set size γ (default 10)",
        )
        sub.add_argument(
            "--clusters",
            type=int,
            default=4,
            metavar="N",
            help="clusters for the CATAPULT++ bootstrap (default 4)",
        )
        sub.add_argument(
            "--sample-cap",
            type=int,
            default=100,
            metavar="N",
            help="maintained sample view size cap |D_s| (default 100)",
        )

    serve = subparsers.add_parser(
        "serve",
        help="run the pattern-serving HTTP service (see docs/SERVING.md)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8373,
        help="TCP port; 0 picks a free one (default 8373)",
    )
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="exercise every endpoint once against an ephemeral server "
        "and exit (the CI serve gate)",
    )
    serve.add_argument(
        "--journal",
        metavar="DIR",
        help="write-ahead journal directory; if DIR already holds a "
        "checkpoint the service recovers from it instead of "
        "bootstrapping (see docs/ROBUSTNESS.md, 'Durability')",
    )
    serve.add_argument(
        "--fsync",
        choices=("always", "interval", "never"),
        default="always",
        help="journal fsync policy (default 'always': an acknowledged "
        "update survives a machine crash)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        metavar="N",
        help="bounded update-queue admission limit; a full queue sheds "
        "writes with HTTP 429 + Retry-After (default 256)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=8,
        metavar="N",
        help="committed rounds between snapshot checkpoints (default 8)",
    )
    serve.add_argument(
        "--segment-bytes",
        type=int,
        default=0,
        metavar="N",
        help="journal segment rotation threshold in bytes "
        "(default: the journal's 4 MiB)",
    )
    add_serve_dataset_flags(serve)
    add_metrics_flags(serve)
    add_execution_flags(serve)
    serve.set_defaults(func=cmd_serve)

    serve_bench = subparsers.add_parser(
        "serve-bench",
        help="load-test the serving service; writes BENCH_serve.json",
    )
    add_serve_dataset_flags(serve_bench)
    serve_bench.add_argument(
        "--duration",
        type=float,
        default=5.0,
        metavar="S",
        help="load-generation window in seconds (default 5)",
    )
    serve_bench.add_argument(
        "--clients",
        type=int,
        default=8,
        metavar="N",
        help="concurrent simulated users (default 8)",
    )
    serve_bench.add_argument(
        "--update-interval",
        type=float,
        default=0.5,
        metavar="S",
        help="seconds between background update batches (default 0.5)",
    )
    serve_bench.add_argument(
        "--update-batch",
        type=int,
        default=3,
        metavar="N",
        help="insertions per background update batch (default 3)",
    )
    serve_bench.add_argument(
        "--out",
        default="BENCH_serve.json",
        metavar="PATH",
        help="where the figure JSON is written (default BENCH_serve.json)",
    )
    serve_bench.add_argument(
        "--overload",
        action="store_true",
        help="run the admission-control overload probe instead of the "
        "load test: hammer POST /updates past the queue limit and "
        "assert shedding (429 + Retry-After), a bounded queue and "
        "degraded /healthz",
    )
    serve_bench.add_argument(
        "--queue-limit",
        type=int,
        default=4,
        metavar="N",
        help="admission limit for --overload (small by design; default 4)",
    )
    add_metrics_flags(serve_bench)
    add_execution_flags(serve_bench)
    serve_bench.set_defaults(func=cmd_serve_bench)

    crashtest = subparsers.add_parser(
        "crashtest",
        help="kill a live serve process at every journal/publish crash "
        "site and assert oracle-clean recovery (docs/ROBUSTNESS.md)",
    )
    crashtest.add_argument(
        "--smoke",
        action="store_true",
        help="run the three-site PR-gate subset instead of the full "
        "crash-site matrix",
    )
    crashtest.add_argument(
        "--site",
        action="append",
        metavar="NAME",
        help="run only this crash site (repeatable; see "
        "repro.resilience.faults.SERVE_SITES)",
    )
    crashtest.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the bootstrap dataset and update stream (default 0)",
    )
    crashtest.add_argument(
        "--out",
        default="BENCH_recovery.json",
        metavar="PATH",
        help="recovery-time figure output (default BENCH_recovery.json)",
    )
    crashtest.add_argument(
        "--store",
        metavar="SPEC",
        default=None,
        help="graph-store backend the crashed service runs against "
        "('memory' default, 'sqlite:PATH'...; the full matrix also "
        "exercises one SQLite-backed site on its own)",
    )
    crashtest.set_defaults(func=cmd_crashtest)

    check = subparsers.add_parser(
        "check",
        help="fuzz the differential-correctness oracles / replay artifacts",
    )
    check.add_argument(
        "--oracle",
        metavar="NAME",
        help="one oracle to fuzz (see --list)",
    )
    check.add_argument(
        "--all-oracles",
        action="store_true",
        help="fuzz every registered oracle in turn",
    )
    check.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed; each case derives its own RNG from (seed, case)",
    )
    check.add_argument(
        "--budget",
        type=int,
        default=100,
        metavar="N",
        help="random workloads per oracle (default 100)",
    )
    check.add_argument(
        "--replay",
        metavar="PATH",
        help="re-evaluate a shrunk failure artifact instead of fuzzing",
    )
    check.add_argument(
        "--list",
        action="store_true",
        help="list the registered oracles and exit",
    )
    check.add_argument(
        "--artifact-dir",
        default="check-artifacts",
        metavar="DIR",
        help="where shrunk failure artifacts are written (default "
        "check-artifacts/)",
    )
    check.add_argument(
        "--no-shrink",
        action="store_true",
        help="report the first failing workload without minimising it",
    )
    check.set_defaults(func=cmd_check)

    info = subparsers.add_parser("info", help="version and experiment index")
    info.set_defaults(func=cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
