"""`repro.obs`: end-to-end observability for the FDX pipeline and service.

Three stdlib-only pieces:

* :mod:`~repro.obs.trace` — span-based tracer (context-manager /
  decorator API, monotonic timings, nested spans, per-span attributes)
  whose current span and trace id travel in :mod:`contextvars`, so
  service worker threads inherit the request's trace id;
* :mod:`~repro.obs.registry` — unified metrics registry with counters,
  gauges and fixed-bucket histograms (p50/p95/p99), where every service
  counter and request-latency histogram lives;
* :mod:`~repro.obs.sinks` — pluggable event sinks (in-memory ring,
  JSONL file) plus the Prometheus text exposition served at
  ``GET /v1/metrics?format=prometheus``;
* :mod:`~repro.obs.profile` — sampling wall-clock profiler
  (collapsed-stack output for flamegraph tooling),
  ``tracemalloc``-based per-stage peak-memory accounting, and the
  :class:`~repro.obs.profile.StageClock` that times every pipeline
  stage once for spans, ``stage_seconds`` and ``stage_bytes``;
* :mod:`~repro.obs.bench` — the benchmark regression ledger behind
  ``python -m repro bench`` (``BENCH_<suite>.json`` trajectory,
  median+MAD regression detector);
* :mod:`~repro.obs.flight` — always-on flight recorder: a bounded ring
  of recent events (spans, requests, metric deltas, state transitions)
  dumped atomically to disk when a trigger fires (5xx, SLO burn,
  fallback, worker crash, drift alert);
* :mod:`~repro.obs.export` — Chrome trace-event (Perfetto-loadable)
  exporter for traces and flight dumps (``python -m repro
  trace-export``);
* :mod:`~repro.obs.explain` — the per-FD evidence ledger: structured
  evidence (precision entries, partial correlations, threshold margins,
  λ provenance, ranked near-misses) behind every emit/suppress decision;
* :mod:`~repro.obs.health` — solver-health telemetry: per-λ run records
  folded into ``solver_*`` metrics, flight triggers and the
  ``/v1/statusz`` readiness verdict.

The disabled tracer is a near-free no-op, so the pipeline
instrumentation in :meth:`repro.FDX.discover` stays within a measured
<=5% overhead budget (``benchmarks/test_bench_obs.py``).
"""

from .explain import (
    DEFAULT_NEAR_MISS_CAP,
    EvidenceLedger,
    annotate_evidence,
    build_evidence,
    evidence_for_fd,
    render_evidence_table,
)
from .export import chrome_trace_events, load_events, write_chrome_trace
from .flight import FlightEvent, FlightRecorder, read_dump
from .health import SolverHealthMonitor
from .profile import MemoryTracker, SamplingProfiler, StageClock
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    percentile,
)
from .sinks import (
    PROMETHEUS_CONTENT_TYPE,
    InMemorySink,
    JsonlSink,
    ListSink,
    NullSink,
    render_prometheus,
)
from .trace import (
    NULL_SPAN,
    Span,
    Tracer,
    current_span,
    current_trace_context,
    current_trace_id,
    get_tracer,
    new_trace_id,
    render_tree,
    reset_trace_id,
    set_global_tracer,
    set_trace_context,
    set_trace_id,
    spans_from_dicts,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_NEAR_MISS_CAP",
    "PROMETHEUS_CONTENT_TYPE",
    "Counter",
    "EvidenceLedger",
    "FlightEvent",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "ListSink",
    "MemoryTracker",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullSink",
    "SamplingProfiler",
    "SolverHealthMonitor",
    "Span",
    "StageClock",
    "Tracer",
    "annotate_evidence",
    "build_evidence",
    "chrome_trace_events",
    "current_span",
    "current_trace_context",
    "current_trace_id",
    "evidence_for_fd",
    "get_registry",
    "get_tracer",
    "load_events",
    "new_trace_id",
    "percentile",
    "read_dump",
    "render_evidence_table",
    "render_prometheus",
    "render_tree",
    "reset_trace_id",
    "set_global_tracer",
    "set_trace_context",
    "set_trace_id",
    "spans_from_dicts",
    "write_chrome_trace",
]
