"""Observability: metrics registry, hierarchical spans, export surface.

The operator guide — metric catalogue, span hierarchy, report format,
worked ``--metrics-out`` example — is ``docs/OBSERVABILITY.md``.

Layer map:

* :mod:`repro.obs.registry` — process-wide counters/gauges/histograms;
* :mod:`repro.obs.spans` — hierarchical wall-clock spans with optional
  tracemalloc peak-memory capture;
* :mod:`repro.obs.export` — JSON snapshot + human-readable tree report.
"""

from .export import (
    SNAPSHOT_SCHEMA,
    metrics_snapshot,
    render_metrics_report,
    reset_all,
    write_metrics_json,
)
from .registry import (
    BoundCounter,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    get_registry,
    histogram,
    set_registry,
)
from .spans import (
    Span,
    Tracer,
    capture,
    get_tracer,
    set_trace_memory,
    set_tracer,
    span,
)

__all__ = [
    "BoundCounter",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SNAPSHOT_SCHEMA",
    "Span",
    "Tracer",
    "capture",
    "counter",
    "gauge",
    "get_registry",
    "get_tracer",
    "histogram",
    "metrics_snapshot",
    "render_metrics_report",
    "reset_all",
    "set_registry",
    "set_trace_memory",
    "set_tracer",
    "span",
    "write_metrics_json",
]
