"""Unified metrics registry: counters, gauges, fixed-bucket histograms.

The HTTP service keeps every counter and latency histogram in one
:class:`MetricsRegistry`; both the JSON ``/v1/metrics`` payload and the
Prometheus exposition (:func:`repro.obs.sinks.render_prometheus`) read it.

Metrics are identified by ``(name, labels)``; labels are an optional
mapping of string key/value pairs. All instruments are thread-safe and
cheap enough for per-request use (one lock acquisition per update).
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from typing import Iterable, Mapping

#: Default histogram buckets for request/stage latencies, in seconds.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (``q`` in [0, 1]).

    Uses the ceil-based nearest-rank definition ``rank = ceil(q * n)``
    (1-indexed, clamped). A banker's ``round(q * (n - 1))`` rank would
    round half-to-even and under-report upper percentiles for some
    window sizes — e.g. the p95 of 31 sorted values would land on rank
    29 instead of the true nearest rank 30.
    """
    if not sorted_values:
        return 0.0
    n = len(sorted_values)
    rank = min(max(math.ceil(q * n), 1), n)
    return sorted_values[rank - 1]


def _labels_key(labels: Mapping[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically non-decreasing count.

    ``_observer`` (set via :meth:`MetricsRegistry.set_delta_observer`)
    is called as ``observer(name, labels, by)`` after each increment,
    outside the counter's lock — this is how the flight recorder sees
    metric deltas as events. The observer must not raise and must not
    increment counters on the same registry (it would recurse).
    """

    kind = "counter"
    __slots__ = ("name", "labels", "_value", "_lock", "_observer")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()
        self._observer = None

    def inc(self, by: float = 1.0) -> None:
        if by < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (by={by})")
        with self._lock:
            self._value += by
        observer = self._observer
        if observer is not None:
            try:
                observer(self.name, self.labels, by)
            except Exception:  # observers must never break the counted work
                pass

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, by: float = 1.0) -> None:
        with self._lock:
            self._value += by

    def dec(self, by: float = 1.0) -> None:
        with self._lock:
            self._value -= by

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` (inclusive) semantics.

    ``buckets`` are ascending upper bounds; one implicit ``+Inf``
    overflow bucket is always appended. Percentiles are answered from
    the cumulative bucket counts: the reported quantile is the upper
    bound of the bucket containing the ceil-based nearest rank (the
    maximum observed value for the overflow bucket), so reported
    percentiles never under-state the true ones by more than one bucket
    width.
    """

    kind = "histogram"
    __slots__ = (
        "name", "labels", "buckets", "_counts", "_count", "_sum",
        "_min", "_max", "_lock",
    )

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...] = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket bounds must be distinct")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        # bisect_left: first bound >= value, i.e. the smallest bucket
        # whose inclusive upper edge contains the observation.
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile (upper bound of the target bucket)."""
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = min(max(math.ceil(q * self._count), 1), self._count)
            seen = 0
            for idx, bucket_count in enumerate(self._counts):
                seen += bucket_count
                if seen >= rank:
                    if idx < len(self.buckets):
                        return self.buckets[idx]
                    return self._max  # overflow bucket
            return self._max  # pragma: no cover - unreachable

    def cumulative_counts(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at ``+Inf``."""
        with self._lock:
            pairs = []
            running = 0
            for bound, bucket_count in zip(self.buckets, self._counts):
                running += bucket_count
                pairs.append((bound, running))
            pairs.append((math.inf, running + self._counts[-1]))
            return pairs

    def snapshot(self) -> dict:
        with self._lock:
            count, total = self._count, self._sum
        return {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else 0.0,
            "min": self._min if count else 0.0,
            "max": self._max if count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Get-or-create registry of named, optionally labelled instruments."""

    def __init__(self) -> None:
        self.created_at = time.time()
        self._metrics: dict[tuple[str, tuple], Counter | Gauge | Histogram] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}
        self._lock = threading.Lock()
        self._delta_observer = None

    def set_delta_observer(self, observer) -> None:
        """Observe counter increments: ``observer(name, labels, by)``.

        Applied to existing and future counters. Pass ``None`` to
        detach. The observer runs on the incrementing thread and must
        be cheap; the flight recorder's ``metric_delta`` is the
        intended consumer.
        """
        with self._lock:
            self._delta_observer = observer
            for metric in self._metrics.values():
                if isinstance(metric, Counter):
                    metric._observer = observer

    def _get_or_create(self, cls, name: str, labels, help: str | None, **kwargs):
        key = (name, _labels_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                declared = self._kinds.get(name)
                if declared is not None and declared != cls.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as a {declared}"
                    )
                metric = cls(name, key[1], **kwargs)
                if cls is Counter:
                    metric._observer = self._delta_observer
                self._metrics[key] = metric
                self._kinds[name] = cls.kind
                if help:
                    self._help[name] = help
            elif not isinstance(metric, cls):
                raise ValueError(f"metric {name!r} is a {metric.kind}, not a {cls.kind}")
            return metric

    def counter(self, name: str, labels: Mapping[str, str] | None = None,
                help: str | None = None) -> Counter:
        return self._get_or_create(Counter, name, labels, help)

    def gauge(self, name: str, labels: Mapping[str, str] | None = None,
              help: str | None = None) -> Gauge:
        return self._get_or_create(Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        help: str | None = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, help, buckets=buckets)

    def collect(self) -> list[tuple[str, str, str | None, list]]:
        """Grouped view for exposition: ``(name, kind, help, [metrics])``.

        Metric families are sorted by name; instances within a family by
        label tuple, so exposition output is deterministic.
        """
        with self._lock:
            by_name: dict[str, list] = {}
            for (name, _), metric in self._metrics.items():
                by_name.setdefault(name, []).append(metric)
            families = []
            for name in sorted(by_name):
                metrics = sorted(by_name[name], key=lambda m: m.labels)
                families.append((name, self._kinds[name], self._help.get(name), metrics))
            return families

    def counter_values(self) -> dict[str, float]:
        """Unlabelled counter values by name (JSON metrics payload)."""
        with self._lock:
            return {
                name: metric.value
                for (name, labels), metric in self._metrics.items()
                if isinstance(metric, Counter) and not labels
            }

    def snapshot(self) -> dict:
        """JSON-friendly dump of every registered instrument."""
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, kind, _help, metrics in self.collect():
            for metric in metrics:
                label = name if not metric.labels else (
                    name + "{" + ",".join(f"{k}={v}" for k, v in metric.labels) + "}"
                )
                if kind == "counter":
                    out["counters"][label] = metric.value
                elif kind == "gauge":
                    out["gauges"][label] = metric.value
                else:
                    out["histograms"][label] = metric.snapshot()
        return out


#: Process-global default registry. Subsystems without an explicitly
#: wired registry (notably :mod:`repro.parallel`) record here, so their
#: metrics are observable even outside the service; the service keeps
#: its own per-instance registry and passes it down explicitly.
_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default :class:`MetricsRegistry`."""
    return _GLOBAL_REGISTRY
