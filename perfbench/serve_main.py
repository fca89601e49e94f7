"""Server process of the serve workload: ``repro serve`` after timed imports.

Imports everything the ``serve`` command uses, prints
``imported <CLOCK_MONOTONIC seconds>`` so the load process can start
``setup_s`` after imports, then runs the public CLI unchanged with the
arguments it was given.  With ``PERFBENCH_TRACE_OUT`` set it installs
the layer wrappers first and writes their table there on shutdown.
"""

from __future__ import annotations

import json
import os
import sys
import time

import repro.api
import repro.bench.common
import repro.cli
import repro.graph.io
import repro.journal
import repro.serve
import repro.serve.bench


def main() -> int:
    print(f"imported {time.monotonic()!r}", flush=True)
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    clock = None
    if trace_out:
        import tracing

        clock = tracing.LayerClock()
        clock.install()
    code = repro.cli.main(sys.argv[1:])
    if clock is not None:
        clock.uninstall()
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "metrics": clock.metrics(),
                    "per_layer": clock.table(),
                    "bindings": dict(clock.binding_calls),
                    "unfired": clock.unfired(),
                },
                handle,
                indent=2,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
