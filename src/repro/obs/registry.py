"""Process-wide metrics registry: counters, gauges and histograms.

The paper's claims are performance claims — PMT/PGT maintenance times,
index maintenance cost, classifier behaviour — so the hot paths (VF2,
GED, FCT mining, clustering, CSG integration, index maintenance, the
swap) report what they did through a small, dependency-free metrics
layer:

* :class:`Counter` — a monotonically increasing count (states explored,
  backtracks, trees mined, …);
* :class:`Gauge` — a point-in-time value (pool size, pattern count);
* :class:`Histogram` — a value distribution with count/total/min/max and
  a bounded reservoir for percentiles (update latencies, batch sizes).

All three live in a :class:`MetricsRegistry`.  A thread-safe process
default is reachable through :func:`get_registry` and the module-level
:func:`counter` / :func:`gauge` / :func:`histogram` helpers, which is
what the instrumented subsystems use; tests may install an isolated
registry with :func:`set_registry`.  Paths too hot for a name lookup
per event hold a :class:`BoundCounter` instead.

Every metric name in use is catalogued in ``docs/OBSERVABILITY.md``
(enforced by ``tests/test_docs.py``).
"""

from __future__ import annotations

import threading

#: Cap on values kept per histogram for percentile estimation; beyond it
#: only the running aggregates (count/total/min/max) stay exact.
RESERVOIR_CAP = 4096


class Counter:
    """A monotonically increasing integer metric."""

    kind = "counter"
    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        return self._value

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge")
        with self._lock:
            self._value += amount

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A point-in-time numeric metric (last value wins)."""

    kind = "gauge"
    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """A value distribution: exact aggregates + a bounded reservoir."""

    kind = "histogram"
    __slots__ = ("name", "_count", "_total", "_min", "_max", "_values", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._reset_locked()

    def _reset_locked(self) -> None:
        self._count = 0
        self._total = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._values: list[float] = []

    def record(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._total += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)
            if len(self._values) < RESERVOIR_CAP:
                self._values.append(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def min(self) -> float | None:
        return self._min

    @property
    def max(self) -> float | None:
        return self._max

    def percentile(self, q: float) -> float | None:
        """Nearest-rank percentile over the reservoir (None when empty)."""
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            if not self._values:
                return None
            ordered = sorted(self._values)
        rank = round((q / 100.0) * (len(ordered) - 1))
        return ordered[rank]

    def summary(self) -> dict[str, float | int | None]:
        return {
            "count": self._count,
            "total": self._total,
            "mean": self.mean,
            "min": self._min,
            "max": self._max,
        }

    def reset(self) -> None:
        with self._lock:
            self._reset_locked()


class MetricsRegistry:
    """A named collection of metrics with get-or-create semantics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        # Bumped by clear(): metric objects handed out before it are
        # no longer registered, so bound references must re-resolve.
        self.generation = 0

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, cls):
        # Lock-free fast path: dict reads are atomic under the GIL and
        # metrics are never replaced once registered, so the hot
        # instrumentation paths (one lookup per filter query) skip the
        # lock entirely after first use.
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        with self._lock:
            return self._metrics.get(name)

    def counter_values(self) -> dict[str, int]:
        """Current value of every counter (for delta computation)."""
        with self._lock:
            return {
                name: metric.value
                for name, metric in self._metrics.items()
                if isinstance(metric, Counter)
            }

    def counter_deltas(self, before: dict[str, int]) -> dict[str, int]:
        """Counter increases since a :meth:`counter_values` snapshot."""
        deltas = {}
        for name, value in self.counter_values().items():
            change = value - before.get(name, 0)
            if change:
                deltas[name] = change
        return deltas

    def snapshot(self) -> dict[str, dict]:
        """A JSON-ready view of every metric, grouped by kind."""
        with self._lock:
            metrics = dict(self._metrics)
        return {
            "counters": {
                name: m.value
                for name, m in sorted(metrics.items())
                if isinstance(m, Counter)
            },
            "gauges": {
                name: m.value
                for name, m in sorted(metrics.items())
                if isinstance(m, Gauge)
            },
            "histograms": {
                name: m.summary()
                for name, m in sorted(metrics.items())
                if isinstance(m, Histogram)
            },
        }

    def reset(self) -> None:
        """Zero every metric, keeping registrations."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()

    def clear(self) -> None:
        """Drop every metric registration."""
        with self._lock:
            self._metrics.clear()
            self.generation += 1


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install *registry* as the default; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


class BoundCounter:
    """A default-registry counter resolved once, not once per event.

    Re-resolves when the default registry is swapped
    (:func:`set_registry`) or cleared (:meth:`MetricsRegistry.clear`),
    so it always counts into the counter a by-name lookup would return.
    Module-level instances suit hot loops (VF2, covindex filtering).
    """

    __slots__ = ("name", "_registry", "_generation", "_counter")

    def __init__(self, name: str) -> None:
        self.name = name
        self._registry: MetricsRegistry | None = None
        self._generation = -1
        self._counter: Counter | None = None

    def add(self, amount: int = 1) -> None:
        registry = _default_registry
        if (
            registry is not self._registry
            or registry.generation != self._generation
        ):
            # Counter first: a reader that sees the new registry and
            # generation also sees the counter resolved against them.
            self._counter = registry.counter(self.name)
            self._generation = registry.generation
            self._registry = registry
        self._counter.add(amount)


def counter(name: str) -> Counter:
    """Get-or-create a counter on the default registry."""
    return _default_registry.counter(name)


def gauge(name: str) -> Gauge:
    """Get-or-create a gauge on the default registry."""
    return _default_registry.gauge(name)


def histogram(name: str) -> Histogram:
    """Get-or-create a histogram on the default registry."""
    return _default_registry.histogram(name)
