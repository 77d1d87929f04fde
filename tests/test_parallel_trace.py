"""Trace stitching across threads and processes: one trace id.

A thread map or a supervised ``run_in_process`` job started under an
open span yields a *single* trace: worker-side spans share the
request's trace id and are parent-linked back to the submitting span,
whether they closed on a pool thread or in a child process.
"""

import os

import pytest

from repro.obs import ListSink, Tracer, set_trace_id, write_chrome_trace
from repro.parallel import ThreadExecutor
from repro.parallel.worker import run_in_process


def _square(x):
    return x * x


def _traced_child():
    """Module-level (picklable) job body that opens its own span."""
    from repro.obs import get_tracer

    with get_tracer().span("inner.stage"):
        return os.getpid()


def _span_events(sink):
    return [e for e in sink.events if e.get("type") == "span"]


@pytest.mark.parametrize("backend", ["thread"])
def test_map_single_trace_across_backends(backend):
    sink = ListSink()
    tracer = Tracer(enabled=True, sinks=[sink])
    token = set_trace_id("feedface00000001")
    try:
        with ThreadExecutor(2, tracer=tracer) as executor:
            with tracer.span("request.root"):
                results = executor.map(_square, [1, 2, 3])
    finally:
        set_trace_id(None)
    assert results == [1, 4, 9]

    spans = _span_events(sink)
    # Exactly one trace id across handler-side and worker-side spans.
    assert {s["trace_id"] for s in spans} == {"feedface00000001"}
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    assert len(by_name["parallel.map"]) == 1
    assert len(by_name["parallel.task"]) == 3
    map_span = by_name["parallel.map"][0]
    assert map_span["attributes"]["backend"] == backend
    # Every task span is parent-linked to the map span, although it
    # closed on a pool thread.
    assert all(t["parent_id"] == map_span["span_id"] for t in by_name["parallel.task"])
    assert map_span["parent_id"] == by_name["request.root"][0]["span_id"]
    del token


def test_run_in_process_stitches_worker_spans():
    sink = ListSink()
    tracer = Tracer(enabled=True, sinks=[sink])
    with tracer.span("service.job") as root:
        child_pid = run_in_process(_traced_child, tracer=tracer)
    assert child_pid != os.getpid()

    spans = {e["name"]: e for e in _span_events(sink)}
    assert set(spans) == {"service.job", "worker.job", "inner.stage"}
    assert len({e["trace_id"] for e in spans.values()}) == 1
    assert spans["worker.job"]["parent_id"] == root.span_id
    assert spans["inner.stage"]["parent_id"] == spans["worker.job"]["span_id"]
    assert spans["worker.job"]["attributes"]["worker_pid"] == child_pid
    # The in-memory tree was grafted too, not just the flat events.
    names = [s.name for s in root.walk()]
    assert names == ["service.job", "worker.job", "inner.stage"]


def test_stitched_trace_exports_to_perfetto(tmp_path):
    sink = ListSink()
    tracer = Tracer(enabled=True, sinks=[sink])
    with tracer.span("request.root"):
        run_in_process(_traced_child, tracer=tracer)
    out = tmp_path / "trace.perfetto.json"
    summary = write_chrome_trace(sink.events, str(out))
    assert summary["traces"] == 1
    assert summary["spans"] == 3  # root + worker.job + inner.stage
    import json

    doc = json.loads(out.read_text())
    events = doc["traceEvents"]
    assert all(e["ph"] in ("X", "M", "i") for e in events)
    # Worker-side spans land on their own named Perfetto threads.
    thread_names = {
        e["args"]["name"] for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert any(name.startswith("worker ") for name in thread_names)
    assert "handler" in {n.split(" #")[0] for n in thread_names}
