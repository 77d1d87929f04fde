"""Crash-recovery integration: JobManager replay, quarantine, resubmission.

These tests simulate a crash by creating a second :class:`JobManager`
(or :class:`DiscoveryService`) over the same journal directory without
shutting the first one down cleanly mid-flight — exactly what a new
process sees after ``kill -9``.
"""

import threading
import time

import numpy as np
import pytest

from repro.dataset.relation import Relation
from repro.obs.registry import MetricsRegistry
from repro.resilience import FaultInjector
from repro.service.jobs import (
    DONE,
    INTERRUPTED,
    QUARANTINED,
    JobManager,
    QuarantinedError,
)
from repro.service.journal import JobJournal
from repro.service.protocol import relation_to_wire
from repro.service.server import DiscoveryService


def make_manager(tmp_path, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("default_timeout", 30.0)
    return JobManager(journal_dir=str(tmp_path), **kwargs)


# -- replay: terminal and in-flight jobs -------------------------------------

def test_terminal_jobs_survive_restart_as_restored_metadata(tmp_path):
    m1 = make_manager(tmp_path)
    ok = m1.submit(lambda: 42, key="k-ok")
    assert ok.wait(timeout=10.0) == DONE

    def boom():
        raise ValueError("bad input")

    bad = m1.submit(boom, key="k-bad")
    assert bad.wait(timeout=10.0) == "failed"
    m1.shutdown(wait=True)

    m2 = make_manager(tmp_path)
    try:
        restored_ok = m2.get(ok.id)
        assert restored_ok is not None
        assert restored_ok.state == DONE
        assert restored_ok.to_dict()["restored"] is True
        assert "result" not in restored_ok.to_dict()  # results are not journaled
        restored_bad = m2.get(bad.id)
        assert restored_bad.state == "failed"
        assert "ValueError: bad input" in restored_bad.error
    finally:
        m2.shutdown(wait=False)


def test_in_flight_job_at_crash_is_marked_interrupted(tmp_path):
    release = threading.Event()
    m1 = make_manager(tmp_path, workers=1)
    job = m1.submit(release.wait, key="k-slow", timeout=60.0)
    # Wait until the worker has journaled "started".
    deadline = time.monotonic() + 5.0
    while job.state != "running" and time.monotonic() < deadline:
        time.sleep(0.01)
    assert job.state == "running"
    m1.journal.sync()
    # Simulated kill -9: no shutdown, just a new manager over the journal.

    m2 = make_manager(tmp_path)
    try:
        restored = m2.get(job.id)
        assert restored is not None
        assert restored.state == INTERRUPTED
        assert "restart" in restored.error
        assert len(m2.recovered_interrupted) == 1
        assert m2.recovered_interrupted[0]["job_id"] == job.id
        assert m2.stats()["interrupted_at_boot"] == 1
    finally:
        release.set()
        m2.shutdown(wait=False)
        m1.shutdown(wait=False)


def test_compaction_on_boot_shrinks_journal(tmp_path):
    m1 = make_manager(tmp_path)
    for i in range(10):
        m1.submit(lambda: i).wait(timeout=10.0)
    m1.shutdown(wait=True)
    size_before = (tmp_path / "jobs.jsonl").stat().st_size

    m2 = make_manager(tmp_path)
    try:
        size_after = (tmp_path / "jobs.jsonl").stat().st_size
        assert size_after < size_before  # 30 records -> 10
        assert len([l for l in (tmp_path / "jobs.jsonl").read_text().splitlines()
                    if l]) == 10
    finally:
        m2.shutdown(wait=False)


# -- quarantine --------------------------------------------------------------

def crashy(manager, key):
    """Submit a job whose worker dies with an injected crash."""
    with FaultInjector(seed=1).inject("job.worker", times=1).install():
        job = manager.submit(lambda: 1, key=key)
        job.wait(timeout=10.0)
    return job


def test_repeated_crashes_quarantine_the_key(tmp_path):
    m = make_manager(tmp_path, max_attempts=2)
    try:
        first = crashy(m, "poison")
        assert first.state == "failed"
        assert first.attempt == 1

        second = crashy(m, "poison")
        assert second.state == QUARANTINED
        assert second.attempt == 2
        assert "quarantined after 2 crashed attempt(s)" in second.error
        assert m.quarantined_keys() == {"poison": 2}
        assert m.stats()["quarantined"] == 1

        with pytest.raises(QuarantinedError) as err:
            m.submit(lambda: 1, key="poison")
        assert err.value.key == "poison"
        assert err.value.attempts == 2

        # Other keys are unaffected.
        assert m.submit(lambda: 7, key="healthy").wait(timeout=10.0) == DONE
    finally:
        m.shutdown(wait=False)


def test_quarantine_survives_restart(tmp_path):
    m1 = make_manager(tmp_path, max_attempts=2)
    crashy(m1, "poison")
    job = crashy(m1, "poison")
    assert job.state == QUARANTINED
    m1.shutdown(wait=True)

    m2 = make_manager(tmp_path, max_attempts=2)
    try:
        assert m2.quarantined_keys() == {"poison": 2}
        with pytest.raises(QuarantinedError):
            m2.submit(lambda: 1, key="poison")
        restored = m2.get(job.id)
        assert restored.state == QUARANTINED
    finally:
        m2.shutdown(wait=False)


def test_crash_loop_is_broken_at_boot(tmp_path):
    # A job in flight at crash time that had already burned its attempt
    # budget must be quarantined on boot, not marked for resubmission —
    # otherwise a poison job that kills the whole process loops forever.
    release = threading.Event()
    m1 = make_manager(tmp_path, workers=1, max_attempts=2)
    crashy(m1, "poison")  # attempt 1 burned
    job = m1.submit(release.wait, key="poison", timeout=60.0)
    deadline = time.monotonic() + 5.0
    while job.state != "running" and time.monotonic() < deadline:
        time.sleep(0.01)
    m1.journal.sync()

    m2 = make_manager(tmp_path, max_attempts=2)
    try:
        restored = m2.get(job.id)
        assert restored.state == QUARANTINED
        assert m2.quarantined_keys().get("poison") == 2
        assert m2.recovered_interrupted == []  # not offered for resubmit
    finally:
        release.set()
        m2.shutdown(wait=False)
        m1.shutdown(wait=False)


def test_boot_quarantine_is_counted_like_a_runtime_one(tmp_path):
    # A job in flight at crash time on its last attempt is quarantined at
    # boot: the stats and jobs_quarantined_total both count it.
    journal = JobJournal(str(tmp_path))
    journal.append("submitted", "job-1", kind="discover", attempt=2, key="poison")
    journal.append("started", "job-1")
    journal.close()

    registry = MetricsRegistry()
    m = make_manager(tmp_path, max_attempts=2, registry=registry)
    try:
        assert m.get("job-1").state == QUARANTINED
        assert m.stats()["quarantined"] == 1
        assert registry.counter("jobs_quarantined_total").value == 1
    finally:
        m.shutdown(wait=False)


def test_user_cancel_does_not_burn_attempts(tmp_path):
    m = make_manager(tmp_path, workers=1, max_attempts=1)
    try:
        release = threading.Event()
        job = m.submit(release.wait, key="k", timeout=60.0)
        deadline = time.monotonic() + 5.0
        while job.state != "running" and time.monotonic() < deadline:
            time.sleep(0.01)
        assert m.cancel(job.id)
        release.set()
        job.wait(timeout=10.0)
        assert job.state in ("cancelled", "failed")
        # Even at max_attempts=1, a user cancel is not abnormal.
        assert m.quarantined_keys() == {}
        resub = m.submit(lambda: 5, key="k")
        assert resub.wait(timeout=10.0) == DONE
    finally:
        m.shutdown(wait=False)


# -- service-level recovery --------------------------------------------------

def service_relation(seed=0, n=120, p=4):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        base = int(rng.integers(8))
        rows.append(tuple([base, base % 3] + [int(rng.integers(4))
                                              for _ in range(p - 2)]))
    return Relation.from_rows([f"a{i}" for i in range(p)], rows)


def submit_async_and_crash(tmp_path):
    """Run a service, submit an async discover, 'crash' before it finishes."""
    svc = DiscoveryService(workers=1, journal_dir=str(tmp_path))
    hold = threading.Event()
    # Wedge the single worker so the discover job stays queued/running.
    svc.jobs.submit(hold.wait, timeout=60.0)
    relation = service_relation()
    status, body = svc.discover(
        {"relation": relation_to_wire(relation), "wait": False}
    )
    assert status == 202, body
    job_id = body["job_id"]
    svc.jobs.journal.sync()
    # Simulated kill -9: drop the queued future so the job never runs
    # (and never journals a terminal event), then release the wedge.
    svc.jobs._executor.shutdown(wait=False, cancel_futures=True)
    hold.set()
    return job_id


def test_service_recover_mark_restores_interrupted_job(tmp_path):
    job_id = submit_async_and_crash(tmp_path)

    svc = DiscoveryService(workers=1, journal_dir=str(tmp_path), recover="mark")
    try:
        status, body = svc.job_status(job_id)
        assert status == 200
        assert body["state"] == INTERRUPTED
        assert body["restored"] is True
        assert "resubmitted_as" not in body
    finally:
        svc.close()


def test_service_recover_resubmit_reruns_the_work(tmp_path):
    job_id = submit_async_and_crash(tmp_path)

    svc = DiscoveryService(workers=1, journal_dir=str(tmp_path),
                           recover="resubmit")
    try:
        status, body = svc.job_status(job_id)
        assert status == 200
        assert body["state"] == INTERRUPTED
        new_id = body["resubmitted_as"]
        assert new_id and new_id != job_id

        new_job = svc.jobs.get(new_id)
        assert new_job.wait(timeout=60.0) == DONE
        status, body = svc.job_status(new_id)
        assert status == 200
        assert body["state"] == DONE
        assert body["result"]["fds"] is not None
        assert svc.registry.counter("jobs_recovered_total").value == 1
    finally:
        svc.close()


def test_service_statusz_reports_journal_and_storage(tmp_path):
    svc = DiscoveryService(workers=1, journal_dir=str(tmp_path))
    try:
        status, body = svc.statusz()
        assert status == 200
        assert body["checks"]["storage"] == "ok"
        assert body["storage"]["status"] == "ok"
        writers = {w["name"] for w in body["storage"]["writers"]}
        assert "journal" in writers
        assert body["jobs"]["journal"]["appends_total"] >= 0
    finally:
        svc.close()


def test_storage_degradation_is_soft_not_fatal(tmp_path):
    svc = DiscoveryService(workers=1, journal_dir=str(tmp_path))
    try:
        with FaultInjector(seed=3).inject("disk.enospc", times=1).install():
            job = svc.jobs.submit(lambda: 1, key="k")
        assert job.wait(timeout=10.0) == DONE

        status, body = svc.statusz()
        assert status == 200  # degraded, not dead
        assert body["status"] == "degraded"
        assert body["checks"]["storage"] == "degraded"
        assert "journal" in body["storage"]["degraded_writers"]

        # Storage healed: flush drains the parked records.
        assert svc.jobs.journal_writer.flush()
        status, body = svc.statusz()
        assert body["status"] == "ok"
        assert body["checks"]["storage"] == "ok"
    finally:
        svc.close()
