"""Service robustness: load shedding, idempotent retries, deadlines, shutdown."""

import email.message
import io
import threading
import urllib.error

import pytest

from repro.dataset.relation import Relation
from repro.service import QueueFullError, ServiceClient, ServiceError, start_in_thread
from repro.service.client import _retryable_status
from repro.service.jobs import CANCELLED, DONE, JobManager
from repro.service.protocol import ProtocolError, relation_to_wire
from repro.service.server import DiscoveryService


def small_relation(seed=0, n=60):
    rows = [((i + seed) % 5, ((i + seed) % 5) % 2, i % 3) for i in range(n)]
    return Relation.from_rows(["x", "y", "z"], rows)


def discover_payload(seed=0, **extra):
    payload = {"relation": relation_to_wire(small_relation(seed)), **extra}
    return payload


class _Gate:
    """A job body that blocks until released, to wedge the worker pool."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()

    def __call__(self):
        self.entered.set()
        self.release.wait(timeout=30)
        return {"ok": True}


# -- admission control / load shedding ---------------------------------------

class TestLoadShedding:
    def test_job_manager_sheds_past_queue_depth(self):
        manager = JobManager(workers=1, max_queue_depth=1)
        gate = _Gate()
        try:
            running = manager.submit(gate)
            assert gate.entered.wait(timeout=5)
            queued = manager.submit(lambda: "queued")
            with pytest.raises(QueueFullError) as excinfo:
                manager.submit(lambda: "shed")
            assert excinfo.value.retry_after_seconds >= 1.0
            assert "queue is full" in str(excinfo.value)
            assert manager.stats()["shed"] == 1
        finally:
            gate.release.set()
            running.wait(timeout=5)
            queued.wait(timeout=5)
            manager.shutdown(wait=True, drain=True)

    def test_http_429_carries_retry_after(self):
        with start_in_thread(workers=1, max_queue_depth=1) as handle:
            client = ServiceClient(handle.base_url, timeout=10.0, retry=None)
            client.wait_until_healthy()
            gate = _Gate()
            wedge = handle.service.jobs.submit(gate)
            try:
                assert gate.entered.wait(timeout=5)
                first = client.discover_raw(small_relation(seed=1), wait=False)
                assert first["job_id"]
                with pytest.raises(ServiceError) as excinfo:
                    client.discover_raw(small_relation(seed=2), wait=False)
                err = excinfo.value
                assert err.status == 429
                assert err.retryable is True
                # Retry-After came back (header, with body fallback).
                assert err.retry_after is not None and err.retry_after >= 1
            finally:
                gate.release.set()
                wedge.wait(timeout=5)
            # Shedding is visible to operators on every surface.
            client.wait_for_job(first["job_id"], timeout=30)
            assert client.statusz()["jobs"]["shed"] >= 1
            assert client.metrics()["counters"]["requests_shed"] >= 1
            prom = client.metrics_prometheus()
            assert "jobs_shed_total" in prom

    def test_shed_request_succeeds_on_client_retry(self):
        # After the backlog drains, the same request goes through: the
        # retrying client turns a shed into latency, not an error.
        with start_in_thread(workers=1, max_queue_depth=1) as handle:
            from repro.resilience import RetryPolicy

            client = ServiceClient(
                handle.base_url, timeout=10.0,
                retry=RetryPolicy(max_attempts=4, base_delay=0.05,
                                  max_delay=0.2, budget_seconds=20.0),
                retry_seed=0,
            )
            client.wait_until_healthy()
            gate = _Gate()
            wedge = handle.service.jobs.submit(gate)
            assert gate.entered.wait(timeout=5)
            filler = client.discover_raw(small_relation(seed=3), wait=False)

            # Unwedge shortly after the shed lands so the retry succeeds.
            unwedge = threading.Timer(0.3, gate.release.set)
            unwedge.start()
            try:
                # Only explicitly-idempotent submits are retried; a bare
                # POST would (correctly) fail fast on the 429.
                envelope = client.discover_raw(
                    small_relation(seed=4), wait=False, idempotency_key="retry-key"
                )
            finally:
                unwedge.cancel()
                gate.release.set()
            assert envelope["job_id"]
            assert client.retries_total >= 1
            wedge.wait(timeout=5)
            client.wait_for_job(filler["job_id"], timeout=30)
            client.wait_for_job(envelope["job_id"], timeout=30)


# -- idempotency --------------------------------------------------------------

class TestIdempotency:
    def test_same_key_reattaches_to_same_job(self):
        service = DiscoveryService(workers=1, max_queue_depth=8)
        gate = _Gate()
        wedge = service.jobs.submit(gate)
        try:
            assert gate.entered.wait(timeout=5)
            payload = discover_payload(seed=5, wait=False)
            status1, body1 = service.discover(payload, idempotency_key="key-1")
            status2, body2 = service.discover(payload, idempotency_key="key-1")
            assert status1 == status2 == 202
            assert body2["job_id"] == body1["job_id"]
            counters = service.registry.counter_values()
            assert counters["idempotent_replays"] == 1
        finally:
            gate.release.set()
            wedge.wait(timeout=5)
        assert service.jobs.get(body1["job_id"]).wait(timeout=30) == DONE
        # One job did the work, despite two submits.
        counters = service.registry.counter_values()
        assert counters.get("fdx_discoveries_total", 0) == 1
        service.close()

    def test_different_keys_get_different_jobs(self):
        service = DiscoveryService(workers=1, max_queue_depth=8)
        gate = _Gate()
        wedge = service.jobs.submit(gate)
        try:
            assert gate.entered.wait(timeout=5)
            _, body1 = service.discover(discover_payload(seed=6, wait=False),
                                        idempotency_key="key-a")
            _, body2 = service.discover(discover_payload(seed=7, wait=False),
                                        idempotency_key="key-b")
            assert body1["job_id"] != body2["job_id"]
        finally:
            gate.release.set()
            wedge.wait(timeout=5)
        service.jobs.get(body1["job_id"]).wait(timeout=30)
        service.jobs.get(body2["job_id"]).wait(timeout=30)
        service.close()


# -- deadlines ----------------------------------------------------------------

class TestDeadlines:
    def test_deadline_seconds_becomes_job_timeout(self):
        service = DiscoveryService(workers=1, job_timeout=300.0)
        status, body = service.discover(
            discover_payload(seed=8, wait=False, deadline_seconds=7.5)
        )
        assert status == 202
        job = service.jobs.get(body["job_id"])
        assert job.timeout == 7.5
        job.wait(timeout=30)
        service.close()

    def test_invalid_deadline_rejected(self):
        service = DiscoveryService(workers=1)
        for bad in (0, -1, "soon", True):
            with pytest.raises(ProtocolError, match="deadline_seconds"):
                service.discover(discover_payload(seed=9, deadline_seconds=bad))
        service.close()

    def test_invalid_relation_rejected_at_admission(self):
        service = DiscoveryService(workers=1)
        payload = {"relation": relation_to_wire(Relation.from_rows(["a", "b"], []))}
        with pytest.raises(ProtocolError, match="no rows"):
            service.discover(payload)
        service.close()


# -- shutdown -----------------------------------------------------------------

class TestShutdown:
    def test_shutdown_cancels_queued_jobs(self):
        manager = JobManager(workers=1)
        gate = _Gate()
        running = manager.submit(gate)
        assert gate.entered.wait(timeout=5)
        queued = [manager.submit(lambda: "later") for _ in range(3)]

        manager.shutdown(wait=False, drain=False)
        # Queued jobs reach a *terminal* state — no poller is left
        # watching a forever-QUEUED job (the shutdown-hang bug).
        for job in queued:
            assert job.wait(timeout=5) == CANCELLED
            assert job.error
        # The running job's cooperative-cancel token is set.
        assert running.cancel_token.is_set()
        gate.release.set()
        assert running.wait(timeout=5) == CANCELLED

    def test_shutdown_drain_lets_queued_jobs_finish(self):
        manager = JobManager(workers=1)
        jobs = [manager.submit(lambda i=i: i * i) for i in range(4)]
        manager.shutdown(wait=True, drain=True)
        assert [job.wait(timeout=5) for job in jobs] == [DONE] * 4
        assert [job.result for job in jobs] == [0, 1, 4, 9]

    def test_submit_after_shutdown_rejected(self):
        manager = JobManager(workers=1)
        manager.shutdown(wait=True, drain=True)
        with pytest.raises(RuntimeError, match="shut down"):
            manager.submit(lambda: None)


# -- client error classification ----------------------------------------------

def _http_error(code, body=b"{}", headers=None):
    msg = email.message.Message()
    for key, value in (headers or {}).items():
        msg[key] = value
    return urllib.error.HTTPError(
        "http://test/v1/discover", code, "err", msg, io.BytesIO(body)
    )


class TestRetryableClassification:
    def test_status_classification(self):
        assert _retryable_status(429) and _retryable_status(500)
        assert _retryable_status(503)
        assert not _retryable_status(400) and not _retryable_status(404)

    def test_error_from_http_parses_retry_after_header(self):
        err = ServiceClient._error_from_http(
            _http_error(429, headers={"Retry-After": "3"})
        )
        assert err.status == 429 and err.retryable and err.retry_after == 3.0

    def test_error_from_http_falls_back_to_body_field(self):
        body = b'{"error": {"message": "full", "retry_after_seconds": 2.5}}'
        err = ServiceClient._error_from_http(_http_error(429, body=body))
        assert err.retry_after == 2.5 and str(err) == "full"

    def test_client_errors_are_not_retryable(self):
        err = ServiceClient._error_from_http(_http_error(400))
        assert err.retryable is False and err.retry_after is None

    def test_transport_error_is_retryable(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=0.2, retry=None)
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.retryable is True
        assert excinfo.value.status is None
