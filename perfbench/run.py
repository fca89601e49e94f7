"""End-to-end benchmark of the MIDAS reproduction (see perfbench/README.md).

Usage, from the repository root::

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 32 --trace 0

Workloads: ``evolve`` drives ``repro.api`` in process; ``serve`` drives
the HTTP routes of a ``repro serve`` process.  This
launcher does not import the program: it prepares the environment,
runs the measured processes and relays the result.  Each measured
process gets ``PYTHONHASHSEED`` derived from the workload seed and
single-threaded BLAS, so two commits given the same seed run the same
path.  The last line of standard output is the JSON result; with
``--trace 1`` per-layer files land in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import common

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRIPTS = {"evolve": "evolve.py", "serve": "serve_load.py"}
#: Hard cap on one run, under the 180 s a run may take.
RUN_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def metric_units(trace: int) -> dict[str, str]:
    """Name → unit of the metrics a run must report, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_child(command: list[str], env: dict, deadline: float) -> dict | None:
    """Run one measured process; its last stdout line is its JSON output."""
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        stdout = ""
    finally:
        # The serve workload's servers run in the child's process group;
        # nothing of the run may outlive it.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if child.returncode != 0 or not lines:
        print(f"perfbench: {os.path.basename(command[1])} exited with "
              f"{child.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        print(f"perfbench: no result line: {lines[-1]!r}", file=sys.stderr)
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="MIDAS end-to-end benchmark")
    parser.add_argument("--workload", choices=sorted(SCRIPTS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    source = os.path.join(ROOT, "src", "repro", "__init__.py")
    if not os.path.isfile(source):
        print(f"perfbench: program source not found at {source}", file=sys.stderr)
        return 2
    try:
        units = metric_units(args.trace)
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    out_dir = os.path.join(
        ROOT, ".perfbench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    for name in THREAD_VARS:
        env[name] = "1"
    command = [
        sys.executable,
        os.path.join(HERE, SCRIPTS[args.workload]),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", out_dir,
    ]
    # An untraced evolve run is SETUPS parts, each a process with its own
    # hash seed; every other run is one process.
    split = args.workload == "evolve" and not args.trace
    outputs = []
    for part in range(common.SETUPS if split else 1):
        env["PYTHONHASHSEED"] = common.hash_seed(args.workload, args.seed, part)
        extra = ["--part", str(part)] if split else []
        output = run_child(command + extra, env, deadline)
        if output is None:
            return 1
        outputs.append(output)
    result = common.combine_parts(outputs) if split else outputs[0]

    values = result.get("metrics", {})
    if set(values) != set(units):
        differ = sorted(set(units) ^ set(values))
        print(f"perfbench: metric names differ from BENCHMARK.json: {differ}", file=sys.stderr)
        return 1
    result["metrics"] = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items()
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
