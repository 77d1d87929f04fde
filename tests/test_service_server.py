"""End-to-end tests for the FD-discovery HTTP service.

Covers the acceptance criteria of the service subsystem: concurrent
``/v1/discover`` on a 1000x10 relation, cache-hit on repeat requests
(observable in ``/v1/metrics``), and streaming sessions matching one-shot
:class:`IncrementalFDX`.
"""

import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.fd import FD
from repro.core.incremental import IncrementalFDX
from repro.dataset.relation import Relation
from repro.service import ServiceClient, ServiceError, start_in_thread
from repro.service.server import DiscoveryService


def synthetic_relation(n=1000, p=10, seed=0):
    """1000x10 relation with an embedded a0 -> a1 dependency."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        base = int(rng.integers(20))
        rows.append(tuple([base, base % 5] + [int(rng.integers(6)) for _ in range(p - 2)]))
    return Relation.from_rows([f"a{i}" for i in range(p)], rows)


@pytest.fixture(scope="module")
def handle():
    with start_in_thread(workers=4, job_timeout=60.0) as h:
        ServiceClient(h.base_url).wait_until_healthy()
        yield h


@pytest.fixture
def client(handle):
    return ServiceClient(handle.base_url, timeout=60.0)


class TestDiscover:
    def test_sync_discover_finds_embedded_fd(self, client):
        result = client.discover(synthetic_relation(seed=101))
        assert FD(["a0"], "a1") in set(result.fds)

    def test_async_submit_and_poll(self, client):
        job_id = client.submit(synthetic_relation(seed=102))
        assert job_id.startswith("job-")
        status = client.wait_for_job(job_id)
        assert status["state"] == "done"
        fds = {(tuple(f["lhs"]), f["rhs"]) for f in status["result"]["fds"]}
        assert (("a0",), "a1") in fds

    def test_eight_concurrent_discoveries(self, client):
        relations = [synthetic_relation(seed=200 + i) for i in range(8)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(client.discover, relations))
        assert len(results) == 8
        for result in results:
            assert FD(["a0"], "a1") in set(result.fds)

    def test_repeat_request_hits_cache(self, client):
        rel = synthetic_relation(seed=103)
        before = client.metrics()["counters"].get("discover_cache_hits", 0)
        first = client.discover_raw(rel)
        assert first["cached"] is False
        second = client.discover_raw(rel)
        assert second["cached"] is True
        assert second["result"] == first["result"]
        assert second["fingerprint"] == first["fingerprint"]
        after = client.metrics()["counters"]["discover_cache_hits"]
        assert after == before + 1

    def test_cache_hit_is_much_faster(self, client):
        # Every request sends one body encoded beforehand: encoding the
        # relation costs the client about as much as a whole hit, and
        # would time the client rather than the server's cache.
        body = client.prepare_discover_body(synthetic_relation(seed=104))
        t0 = time.perf_counter()
        assert client.discover_prepared(body)["cached"] is False
        cold = time.perf_counter() - t0
        hits = []
        for _ in range(5):
            t0 = time.perf_counter()
            assert client.discover_prepared(body)["cached"] is True
            hits.append(time.perf_counter() - t0)
        # Acceptance bar is 10x; assert 5x here to keep CI noise-immune
        # (the service benchmark records the full ratio).
        assert cold > 5 * min(hits)

    def test_different_hyperparameters_miss_cache(self, client):
        rel = synthetic_relation(seed=105)
        assert client.discover_raw(rel)["cached"] is False
        assert client.discover_raw(rel, {"sparsity": 0.2})["cached"] is False

    def test_malformed_request_rejected(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/discover", {"relation": {"attributes": []}})
        assert excinfo.value.status == 400

    def test_empty_body_rejected(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/discover", None)
        assert excinfo.value.status == 400

    def test_invalid_json_rejected(self, handle):
        request = urllib.request.Request(
            f"{handle.base_url}/v1/discover",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-nope")
        assert excinfo.value.status == 404


class TestSessions:
    def test_streaming_session_matches_oneshot_incremental(self, client):
        rel = synthetic_relation(n=1000, seed=42)
        session_id = client.create_session({"seed": 5})
        reference = IncrementalFDX(seed=5)
        for start in range(0, 1000, 200):  # 5 batches
            batch = rel.select_rows(np.arange(start, start + 200))
            info = client.append_batch(session_id, batch)
            reference.add_batch(batch)
        assert info["n_batches"] == 5 and info["n_rows_seen"] == 1000
        via_service = client.session_fds(session_id)
        assert set(via_service.fds) == set(reference.discover().fds)
        client.close_session(session_id)

    def test_session_lifecycle_and_errors(self, client):
        session_id = client.create_session()
        with pytest.raises(ServiceError) as excinfo:
            client.session_fds(session_id)  # no data yet
        assert excinfo.value.status == 409
        client.append_batch(session_id, synthetic_relation(n=200, seed=7))
        assert client.session_info(session_id)["n_rows_seen"] == 200
        client.reset_session(session_id)
        assert client.session_info(session_id)["n_rows_seen"] == 0
        client.close_session(session_id)
        with pytest.raises(ServiceError) as excinfo:
            client.session_info(session_id)
        assert excinfo.value.status == 404

    def test_schema_drift_rejected_with_409(self, client):
        session_id = client.create_session()
        client.append_batch(session_id, synthetic_relation(n=100, seed=8))
        with pytest.raises(ServiceError) as excinfo:
            client.append_batch(
                session_id, Relation.from_rows(["x", "y"], [(1, 2)] * 100)
            )
        assert excinfo.value.status == 409
        client.close_session(session_id)


class TestIntrospection:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["protocol_version"] == 1
        assert "version" in health

    def test_metrics_shape(self, client):
        client.healthz()
        metrics = client.metrics()
        assert metrics["counters"]["requests_total"] > 0
        assert 0.0 <= metrics["cache_hit_rate"] <= 1.0
        assert metrics["queue_depth"] >= 0
        health_latency = metrics["latency"]["healthz"]
        assert health_latency["count"] >= 1
        assert health_latency["p50_seconds"] <= health_latency["p95_seconds"] + 1e-9
        assert health_latency["p95_seconds"] <= health_latency["p99_seconds"] + 1e-9

    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v1/bogus")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/other")
        assert excinfo.value.status == 404


class TestObservability:
    def test_every_response_carries_a_trace_id(self, handle):
        with urllib.request.urlopen(f"{handle.base_url}/v1/healthz", timeout=10.0) as r:
            assert len(r.headers["X-Trace-Id"]) == 16

    def test_client_supplied_trace_id_is_echoed(self, handle):
        request = urllib.request.Request(
            f"{handle.base_url}/v1/healthz",
            headers={"X-Trace-Id": "deadbeefcafe0001"},
        )
        with urllib.request.urlopen(request, timeout=10.0) as r:
            assert r.headers["X-Trace-Id"] == "deadbeefcafe0001"

    def test_error_responses_carry_a_trace_id_too(self, handle):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{handle.base_url}/v1/bogus", timeout=10.0)
        assert excinfo.value.headers["X-Trace-Id"]

    def test_prometheus_exposition(self, client):
        client.discover(synthetic_relation(seed=301))
        text = client.metrics_prometheus()
        assert "# TYPE requests_total counter" in text
        assert "# TYPE http_request_seconds histogram" in text
        assert 'http_request_seconds_bucket{endpoint="discover",le="+Inf"}' in text
        assert "fdx_glasso_iterations_total" in text
        assert "fdx_discoveries_total" in text
        assert "jobs_queue_depth" in text
        # Counter monotonicity across scrapes.
        def counter_value(body, name):
            for line in body.splitlines():
                if line.startswith(f"{name} "):
                    return float(line.split()[-1])
            raise AssertionError(f"{name} missing")

        first = counter_value(text, "requests_total")
        client.healthz()
        second = counter_value(client.metrics_prometheus(), "requests_total")
        assert second > first

    def test_prometheus_content_type(self, handle):
        url = f"{handle.base_url}/v1/metrics?format=prometheus"
        with urllib.request.urlopen(url, timeout=10.0) as r:
            assert r.headers["Content-Type"].startswith("text/plain")

    def test_unknown_metrics_format_rejected(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v1/metrics?format=xml")
        assert excinfo.value.status == 400

    def test_glasso_iteration_counter_tracks_diagnostics(self, handle, client):
        before = handle.service.registry.counter("fdx_glasso_iterations_total").value
        result = client.discover(synthetic_relation(seed=302))
        after = handle.service.registry.counter("fdx_glasso_iterations_total").value
        assert after - before >= result.diagnostics["glasso_iterations"]

    def test_request_log_and_worker_spans_share_trace_id(self, tmp_path):
        """With --obs-jsonl, one request log line per request, and the
        pipeline spans of a discovery carry the request's trace id."""
        import json as jsonlib

        obs_path = tmp_path / "events.jsonl"
        with start_in_thread(workers=2, job_timeout=60.0,
                             obs_jsonl=str(obs_path)) as h:
            c = ServiceClient(h.base_url, timeout=60.0)
            c.wait_until_healthy()
            c.discover(synthetic_relation(n=300, seed=303))
        events = [jsonlib.loads(line) for line in obs_path.read_text().splitlines()]
        requests = [e for e in events if e["type"] == "request"]
        spans = [e for e in events if e["type"] == "span"]
        assert requests and spans
        discover_requests = [e for e in requests if e["endpoint"] == "discover"]
        assert discover_requests
        record = discover_requests[0]
        assert record["method"] == "POST" and record["status"] == 200
        assert record["cache_hit"] is False
        assert record["duration_seconds"] > 0
        pipeline_spans = [e for e in spans if e["name"] == "fdx.discover"]
        assert pipeline_spans
        assert pipeline_spans[0]["trace_id"] == record["trace_id"]


class TestDiscoveryServiceUnit:
    """Transport-free checks on the application object."""

    def test_discover_payload_validation(self):
        service = DiscoveryService(workers=1)
        try:
            with pytest.raises(Exception):
                service.discover("not a dict")
            status, body = service.job_status("job-nope")
            assert status == 404
        finally:
            service.close()

    def test_serve_reports_bind_failure(self, capsys):
        from repro.service.server import build_server, serve

        server, service = build_server()  # occupy an ephemeral port
        try:
            assert serve(port=server.server_address[1]) == 1
            assert "cannot bind" in capsys.readouterr().err
        finally:
            server.server_close()
            service.close()

    def test_async_discover_returns_202(self):
        service = DiscoveryService(workers=1)
        try:
            rel = synthetic_relation(n=300, seed=9)
            from repro.service.protocol import relation_to_wire

            status, body = service.discover(
                {"relation": relation_to_wire(rel), "wait": False}
            )
            assert status == 202
            job = service.jobs.get(body["job_id"])
            assert job.wait(timeout=30.0) == "done"
            # The async job still populated the fingerprint cache.
            status, body = service.discover(
                {"relation": relation_to_wire(rel), "wait": True}
            )
            assert status == 200 and body["cached"] is True
        finally:
            service.close()
