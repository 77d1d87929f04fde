"""Trace stitching across threads and processes: one trace id.

Pool lanes that run in a copy of the submitting context, and supervised
``run_in_process`` jobs started under an open span, yield a *single*
trace: their spans share the request's trace id and are parent-linked
back to the submitting span, whether they closed on a pool thread or in
a child process. (A catalog sweep's tables are covered in
``test_catalog_sweep.py``.)
"""

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import ListSink, Tracer, set_trace_id, write_chrome_trace
from repro.parallel.worker import run_in_process


def _traced_child():
    """Module-level (picklable) job body that opens its own span."""
    from repro.obs import get_tracer

    with get_tracer().span("inner.stage"):
        return os.getpid()


def _span_events(sink):
    return [e for e in sink.events if e.get("type") == "span"]


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_map_single_trace_across_backends(backend):
    """Each lane works on its pool thread (``thread``) or supervises a
    ``run_in_process`` child from it (``process``), the way a sweep with
    workers > 1 does."""
    sink = ListSink()
    tracer = Tracer(enabled=True, sinks=[sink])

    def lane(item):
        with tracer.span("lane", item=item):
            if backend == "thread":
                return os.getpid()
            return run_in_process(_traced_child, tracer=tracer, timeout=60)

    set_trace_id("feedface00000001")
    try:
        with tracer.span("request.root") as root:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [
                    pool.submit(contextvars.copy_context().run, lane, item)
                    for item in range(3)
                ]
                pids = [future.result() for future in futures]
    finally:
        set_trace_id(None)

    spans = _span_events(sink)
    # Exactly one trace id across handler-side and worker-side spans.
    assert {s["trace_id"] for s in spans} == {"feedface00000001"}
    lanes = [s for s in spans if s["name"] == "lane"]
    assert sorted(s["attributes"]["item"] for s in lanes) == [0, 1, 2]
    # Every lane span is parent-linked to the submitting span, although
    # it closed on a pool thread.
    assert all(s["parent_id"] == root.span_id for s in lanes)
    jobs = [s for s in spans if s["name"] == "worker.job"]
    inner = [s for s in spans if s["name"] == "inner.stage"]
    if backend == "thread":
        assert pids == [os.getpid()] * 3
        assert jobs == [] and inner == []
    else:
        assert os.getpid() not in pids
        assert sorted(j["parent_id"] for j in jobs) == sorted(
            s["span_id"] for s in lanes
        )
        assert sorted(s["parent_id"] for s in inner) == sorted(
            j["span_id"] for j in jobs
        )


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
