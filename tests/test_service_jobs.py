"""Tests for repro.service.jobs (bounded pool, lifecycle, timeout, cancel)."""

import threading
import time

import pytest

from repro.resilience.cancel import current_cancel_token
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobManager,
)


@pytest.fixture
def manager():
    m = JobManager(workers=2, default_timeout=30.0)
    yield m
    m.shutdown(wait=False)


def test_job_runs_to_done(manager):
    job = manager.submit(lambda: 41 + 1)
    assert job.wait(timeout=5.0) == DONE
    assert job.result == 42
    assert job.error is None
    payload = job.to_dict()
    assert payload["state"] == DONE and payload["result"] == 42


def test_job_failure_captures_error(manager):
    def boom():
        raise ValueError("bad input")

    job = manager.submit(boom)
    assert job.wait(timeout=5.0) == FAILED
    assert "ValueError: bad input" in job.error
    assert "result" not in job.to_dict()


def test_job_ids_are_unique(manager):
    ids = {manager.submit(lambda: None).id for _ in range(20)}
    assert len(ids) == 20


def test_per_job_timeout_reports_failed(manager):
    release = threading.Event()
    job = manager.submit(release.wait, timeout=0.05)
    try:
        assert job.wait(timeout=5.0) == FAILED
        assert "timed out" in job.error
    finally:
        release.set()  # let the stuck worker finish
    # The worker eventually returning must not resurrect the job.
    time.sleep(0.1)
    assert job.state == FAILED
    assert job.result is None


def test_unobserved_job_stops_at_its_deadline():
    """A job nobody polls still unwinds at its deadline: its cancel token
    reads as set once the budget runs out, and the job records the same
    timeout an observer would have seen."""
    manager = JobManager(workers=1, max_attempts=1)
    stopped = threading.Event()

    def poll_token():
        token = current_cancel_token()
        end = time.monotonic() + 2.0
        try:
            while time.monotonic() < end:
                token.raise_if_cancelled()
                time.sleep(0.001)
        finally:
            stopped.set()

    try:
        job = manager.submit(poll_token, timeout=0.05, key="work")
        assert stopped.wait(0.5)  # no job.state read before this point
        assert job.wait(timeout=5.0) == FAILED
        assert job.error == "timed out after 0.050s"
        assert job.error_type == "TaskTimeoutError"
        assert manager.quarantined_keys() == {}  # no attempt burned
    finally:
        manager.shutdown(wait=False)


def test_cancel_queued_job():
    manager = JobManager(workers=1)
    try:
        gate = threading.Event()
        blocker = manager.submit(gate.wait)
        queued = manager.submit(lambda: "never")
        assert queued.state == QUEUED
        assert manager.cancel(queued.id)
        gate.set()
        assert queued.wait(timeout=5.0) == CANCELLED
        assert blocker.wait(timeout=5.0) == DONE
        assert queued.result is None
    finally:
        manager.shutdown(wait=False)


def test_cancel_running_job_discards_result(manager):
    started = threading.Event()
    release = threading.Event()

    def work():
        started.set()
        release.wait(5.0)
        return "secret"

    job = manager.submit(work)
    assert started.wait(5.0)
    assert job.state == RUNNING
    assert job.cancel()
    release.set()
    assert job.wait(timeout=5.0) == CANCELLED
    assert job.result is None


def test_cancel_unknown_job(manager):
    assert manager.cancel("job-nope") is False


def test_bounded_concurrency():
    manager = JobManager(workers=2)
    try:
        active = []
        peak = []
        lock = threading.Lock()

        def work():
            with lock:
                active.append(1)
                peak.append(len(active))
            time.sleep(0.05)
            with lock:
                active.pop()

        jobs = [manager.submit(work) for _ in range(8)]
        for job in jobs:
            assert job.wait(timeout=10.0) == DONE
        assert max(peak) <= 2
    finally:
        manager.shutdown(wait=False)


def test_queue_depth_and_stats():
    manager = JobManager(workers=1)
    try:
        gate = threading.Event()
        running = threading.Event()
        manager.submit(lambda: (running.set(), gate.wait(5.0)))
        assert running.wait(5.0)
        queued = [manager.submit(lambda: None) for _ in range(3)]
        assert manager.queue_depth() == 3
        stats = manager.stats()
        assert stats["submitted"] == 4 and stats["workers"] == 1
        assert stats["queue_depth"] == 3 and stats["running"] == 1
        gate.set()
        for job in queued:
            assert job.wait(timeout=5.0) == DONE
        assert manager.queue_depth() == 0
    finally:
        manager.shutdown(wait=False)


def test_retention_prunes_finished_jobs():
    manager = JobManager(workers=2, max_retained=5)
    try:
        jobs = [manager.submit(lambda: None) for _ in range(12)]
        for job in jobs:
            job.wait(timeout=5.0)
        last = manager.submit(lambda: None)  # pruning happens at submit time
        assert last.wait(timeout=5.0) == DONE
        assert manager.stats()["retained"] <= 5
        assert manager.get(last.id) is not None
        assert manager.get(jobs[0].id) is None
    finally:
        manager.shutdown(wait=False)


def test_submit_after_shutdown_raises():
    manager = JobManager(workers=1)
    manager.shutdown(wait=False)
    with pytest.raises(RuntimeError):
        manager.submit(lambda: None)
