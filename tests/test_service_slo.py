"""Tests for latency SLOs, /v1/statusz deep readiness and client errors."""

import socket
import time

import pytest

from repro.obs import MetricsRegistry
from repro.service import (
    ServiceClient,
    ServiceUnavailableError,
    SloObjective,
    SloTracker,
    start_in_thread,
)
from repro.service.server import DiscoveryService
from repro.service.slo import FALLBACK_OBJECTIVE


# -- SloTracker (unit) -------------------------------------------------------

def _tracker(**objectives):
    registry = MetricsRegistry()
    return registry, SloTracker(registry, objectives=objectives or None)


def test_observe_counts_requests_and_breaches():
    registry, slo = _tracker(fast=SloObjective(0.1, error_budget=0.5))
    assert slo.observe("fast", 0.05) is False
    assert slo.observe("fast", 0.05) is False
    assert slo.observe("fast", 0.25) is True
    labels = {"endpoint": "fast"}
    assert registry.counter("slo_requests_total", labels=labels).value == 3
    assert registry.counter("slo_breaches_total", labels=labels).value == 1
    # 1/3 missed against a 50% budget -> burning at 2/3 the allowed rate.
    assert slo.burn_rate("fast") == pytest.approx((1 / 3) / 0.5)


def test_burn_rate_zero_without_traffic_and_one_on_budget():
    _, slo = _tracker(e=SloObjective(0.1, error_budget=0.05))
    assert slo.burn_rate("e") == 0.0
    for i in range(100):
        slo.observe("e", 0.2 if i < 5 else 0.01)  # exactly 5% breach
    assert slo.burn_rate("e") == pytest.approx(1.0)


def test_unknown_endpoint_uses_fallback_objective():
    _, slo = _tracker(known=SloObjective(0.1))
    assert slo.objective_for("?") is FALLBACK_OBJECTIVE
    assert slo.observe("?", FALLBACK_OBJECTIVE.threshold_seconds + 1) is True


def test_summary_reports_per_endpoint_and_worst():
    _, slo = _tracker(
        a=SloObjective(0.1, error_budget=0.5),
        b=SloObjective(0.1, error_budget=0.5),
    )
    slo.observe("a", 0.01)
    slo.observe("b", 0.5)
    summary = slo.summary()
    assert set(summary["endpoints"]) == {"a", "b"}
    assert summary["endpoints"]["a"]["burn_rate"] == 0.0
    assert summary["endpoints"]["b"]["breaches"] == 1
    assert summary["worst_burn_rate"] == summary["endpoints"]["b"]["burn_rate"] > 0


def test_publish_burn_rates_sets_gauges():
    registry, slo = _tracker(a=SloObjective(0.1, error_budget=0.1))
    slo.observe("a", 1.0)
    slo.publish_burn_rates()
    gauge = registry.gauge("slo_burn_rate", labels={"endpoint": "a"})
    assert gauge.value == pytest.approx(10.0)  # 100% miss / 10% budget


def test_objective_validation():
    with pytest.raises(ValueError):
        SloObjective(0.0)
    with pytest.raises(ValueError):
        SloObjective(1.0, error_budget=0.0)
    with pytest.raises(ValueError):
        SloObjective(1.0, error_budget=1.5)


# -- /v1/statusz + SLO over HTTP ---------------------------------------------

@pytest.fixture(scope="module")
def handle():
    with start_in_thread(workers=2, job_timeout=60.0) as h:
        ServiceClient(h.base_url).wait_until_healthy()
        yield h


@pytest.fixture
def client(handle):
    return ServiceClient(handle.base_url, timeout=30.0)


def test_statusz_reports_deep_readiness(client):
    status = client.statusz()
    assert status["status"] == "ok"
    assert status["checks"] == {
        "job_manager": "ok", "worker_pool": "ok", "solver": "ok", "storage": "ok",
    }
    assert status["uptime_seconds"] >= 0
    assert status["started_at"] <= time.time()
    assert status["jobs"]["workers"] == 2
    assert 0.0 <= status["jobs"]["saturation"] <= 1.0
    assert "hit_rate" in status["cache"]
    assert "active" in status["sessions"]
    # The statusz request itself was preceded by at least the healthz
    # poll from the fixture, so SLO accounting already has traffic.
    assert status["slo"]["endpoints"]["healthz"]["requests"] >= 1
    assert status["slo"]["worst_burn_rate"] >= 0.0


def test_statusz_last_error_captures_5xx(handle, client):
    assert client.statusz()["last_error"] is None or True  # shape-tolerant
    handle.service.record_error("discover", "boom")
    last = client.statusz()["last_error"]
    assert last["endpoint"] == "discover"
    assert last["message"] == "boom"
    assert last["ts"] <= time.time()


def test_slo_counters_in_prometheus_exposition(client):
    client.healthz()
    text = client.metrics_prometheus()
    assert "# TYPE slo_requests_total counter" in text
    assert 'slo_requests_total{endpoint="healthz"}' in text
    assert 'slo_breaches_total{endpoint="healthz"}' in text
    assert "# TYPE slo_burn_rate gauge" in text
    assert 'slo_burn_rate{endpoint="healthz"}' in text


def test_statusz_degraded_answers_503_with_body():
    with start_in_thread(workers=1) as h:
        c = ServiceClient(h.base_url, timeout=10.0)
        c.wait_until_healthy()
        h.service.jobs.shutdown(wait=False)
        status = c.statusz()  # returns the body instead of raising
        assert status["status"] == "degraded"
        assert status["checks"]["job_manager"] == "shutdown"
        # A degraded statusz is not an internal error: not last_error.
        assert status["last_error"] is None


def test_statusz_degraded_unit():
    service = DiscoveryService(workers=1)
    try:
        status, body = service.statusz()
        assert status == 200 and body["status"] == "ok"
        service.jobs.shutdown(wait=False)
        status, body = service.statusz()
        assert status == 503 and body["status"] == "degraded"
    finally:
        service.close()


# -- monotonic clocks --------------------------------------------------------

def test_uptime_is_monotonic_not_wall_clock(handle, client):
    service = handle.service
    # Simulate a wall-clock step (NTP correction): uptime must not care.
    service.started_at -= 3600.0
    uptime = service.uptime_seconds()
    assert 0 <= uptime < 600
    assert service.healthz()[1]["uptime_seconds"] < 600
    assert client.metrics()["uptime_seconds"] < 600


def test_job_queue_latency_recorded(handle, client):
    import numpy as np

    from repro.dataset.relation import Relation

    rng = np.random.default_rng(77)
    rel = Relation.from_rows(
        ["a", "b"], [(int(rng.integers(5)), int(rng.integers(3))) for _ in range(200)]
    )
    client.discover(rel)
    text = client.metrics_prometheus()
    assert "# TYPE jobs_queue_seconds histogram" in text
    job = next(iter(handle.service.jobs._jobs.values()))
    payload = job.to_dict()
    assert payload["queue_seconds"] is not None and payload["queue_seconds"] >= 0


# -- client error taxonomy ---------------------------------------------------

def test_wait_until_healthy_raises_dedicated_error():
    # Bind-then-release an ephemeral port so nothing is listening on it.
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=0.5)
    started = time.monotonic()
    with pytest.raises(ServiceUnavailableError) as excinfo:
        client.wait_until_healthy(timeout=0.3)
    assert time.monotonic() - started < 10.0
    error = excinfo.value
    assert error.status == 503
    assert "not healthy" in str(error)
    assert error.last_error is not None
    assert "unreachable" in str(error.last_error)
    # The subclass still reads as a ServiceError to existing callers.
    from repro.service import ServiceError

    assert isinstance(error, ServiceError)
