"""Chaos suite: deterministic fault injection against a live service.

Every scenario runs a real in-thread HTTP server and a retrying
:class:`ServiceClient`, with seeded faults injected at the failure
points the resilience layer claims to survive:

* ``http.reset``       — connection dropped after the handler ran;
* ``http.5xx``         — response replaced with an injected 500;
* ``job.worker``       — worker thread crashes before running the job;
* ``glasso.nonconverge`` — solver reports non-convergence.

Invariants asserted throughout: every job reaches a terminal state (no
hung jobs), idempotent retries never duplicate work, and exhausted
retry budgets surface *typed* errors. Marked ``tier2`` (several full
client/server round trips); the fast resilience units live in
``test_resilience.py`` / ``test_service_resilience.py``.
"""

import numpy as np
import pytest

from repro.core.fd import FD
from repro.dataset.relation import Relation
from repro.resilience import FaultInjector, RetryPolicy
from repro.service import ServiceClient, ServiceError, start_in_thread
from repro.service.jobs import TERMINAL_STATES

pytestmark = pytest.mark.tier2


def chaos_relation(seed=0, n=300, p=6):
    """Relation with an embedded a0 -> a1 FD plus noise columns."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        base = int(rng.integers(12))
        rows.append(tuple([base, base % 4] + [int(rng.integers(5)) for _ in range(p - 2)]))
    return Relation.from_rows([f"a{i}" for i in range(p)], rows)


@pytest.fixture
def handle():
    with start_in_thread(workers=2, job_timeout=60.0, max_queue_depth=16) as h:
        ServiceClient(h.base_url, retry=None).wait_until_healthy()
        yield h


def make_client(handle, seed=0):
    return ServiceClient(
        handle.base_url,
        timeout=30.0,
        retry=RetryPolicy(max_attempts=5, base_delay=0.05, max_delay=0.5,
                          budget_seconds=15.0),
        retry_seed=seed,
    )


def assert_no_hung_jobs(handle, timeout=30.0):
    """Every job the service ever accepted must reach a terminal state."""
    with handle.service.jobs._lock:
        jobs = list(handle.service.jobs._jobs.values())
    for job in jobs:
        assert job.wait(timeout=timeout) in TERMINAL_STATES, (
            f"job {job.id} hung in state {job.state}"
        )


def discoveries_total(handle) -> float:
    """Pipeline runs actually executed (the no-duplicate-work metric)."""
    return handle.service.registry.counter("fdx_discoveries_total").value


class TestConnectionResets:
    def test_idempotent_submit_survives_resets_without_duplicate_work(self, handle):
        client = make_client(handle, seed=1)
        # The first two responses are dropped after the handler ran:
        # the submit's effect happened but the client never heard back.
        with FaultInjector(seed=1).inject("http.reset", times=2).install() as chaos:
            envelope = client.discover_raw(
                chaos_relation(seed=11), wait=False, idempotency_key="chaos-key-11"
            )
            # A retry reattaches via the Idempotency-Key while the job is
            # live, or answers from the result cache once it finished —
            # either way the reply describes the *original* work.
            if envelope.get("cached"):
                result = envelope["result"]
            else:
                result = client.wait_for_job(envelope["job_id"], timeout=60)["result"]
        assert chaos.counts()["http.reset"]["fired"] == 2
        assert client.retries_total >= 2
        fds = {(tuple(f["lhs"]), f["rhs"]) for f in result["fds"]}
        assert (("a0",), "a1") in fds
        # Exactly one discovery ran despite three submit attempts.
        assert discoveries_total(handle) == 1
        counters = handle.service.registry.counter_values()
        assert (counters.get("idempotent_replays", 0)
                + counters.get("discover_cache_hits", 0)) >= 1
        assert_no_hung_jobs(handle)

    def test_sync_discover_survives_reset(self, handle):
        client = make_client(handle, seed=2)
        with FaultInjector(seed=2).inject("http.reset", times=1).install():
            result = client.discover(chaos_relation(seed=12))
        assert FD(["a0"], "a1") in set(result.fds)
        assert discoveries_total(handle) == 1
        assert_no_hung_jobs(handle)


class TestServerErrors:
    def test_5xx_burst_is_retried_through(self, handle):
        client = make_client(handle, seed=3)
        with FaultInjector(seed=3).inject("http.5xx", times=2).install() as chaos:
            result = client.discover(chaos_relation(seed=13))
        assert chaos.counts()["http.5xx"]["fired"] == 2
        assert client.retries_total >= 2
        assert FD(["a0"], "a1") in set(result.fds)
        assert_no_hung_jobs(handle)

    def test_exhausted_retry_budget_raises_typed_error(self, handle):
        client = ServiceClient(
            handle.base_url, timeout=30.0,
            retry=RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05,
                              budget_seconds=5.0),
            retry_seed=4,
        )
        with FaultInjector(seed=4).inject("http.5xx", times=None).install():
            with pytest.raises(ServiceError) as excinfo:
                client.submit(chaos_relation(seed=14))
        assert excinfo.value.status == 500
        assert excinfo.value.retryable is True
        assert_no_hung_jobs(handle)


class TestWorkerCrashes:
    def test_worker_crash_lands_job_in_failed_not_hung(self, handle):
        client = ServiceClient(handle.base_url, retry=None, timeout=30.0)
        with FaultInjector(seed=5).inject("job.worker", times=1).install():
            envelope = client.discover_raw(chaos_relation(seed=15), wait=False)
            job = handle.service.jobs.get(envelope["job_id"])
            assert job.wait(timeout=30) == "failed"
        assert "worker crashed" in job.error
        # The failure is a clean typed outcome for pollers too.
        status = client.job(envelope["job_id"])
        assert status["state"] == "failed"
        with pytest.raises(ServiceError, match="failed"):
            client.wait_for_job(envelope["job_id"], timeout=5)
        assert_no_hung_jobs(handle)

    def test_resubmit_after_crash_succeeds(self, handle):
        client = make_client(handle, seed=6)
        with FaultInjector(seed=6).inject("job.worker", times=1).install():
            envelope = client.discover_raw(chaos_relation(seed=16), wait=False)
            handle.service.jobs.get(envelope["job_id"]).wait(timeout=30)
        # Fresh submit (new key, fault exhausted): work completes.
        job_id = client.submit(chaos_relation(seed=16))
        status = client.wait_for_job(job_id, timeout=60)
        assert status["state"] == "done"
        assert_no_hung_jobs(handle)


class TestSolverChaos:
    def test_nonconvergence_yields_degraded_result_over_wire(self, handle):
        client = make_client(handle, seed=7)
        with FaultInjector(seed=7).inject("glasso.nonconverge", times=None).install():
            result = client.discover(chaos_relation(seed=17))
        diagnostics = result.diagnostics
        assert diagnostics["degraded"] is True
        assert diagnostics["fallback_chain"][-1]["stage"] == "neighborhood"
        # Degraded, not broken: the embedded FD still comes out.
        assert FD(["a0"], "a1") in set(result.fds)
        assert_no_hung_jobs(handle)


class TestCombinedChaos:
    def test_probabilistic_fault_storm_is_survivable_and_reproducible(self, handle):
        """Seeded storm across every fault point; same seed, same outcome."""
        client = make_client(handle, seed=8)
        injector = (
            FaultInjector(seed=8)
            .inject("http.reset", times=None, probability=0.2)
            .inject("http.5xx", times=None, probability=0.2)
            .inject("glasso.nonconverge", times=None, probability=0.3)
        )
        completed = []
        with injector.install():
            for i in range(4):
                try:
                    result = client.discover(chaos_relation(seed=20 + i))
                    completed.append(result)
                except ServiceError as exc:
                    # Budget exhaustion is an acceptable outcome in a
                    # storm — but it must be typed and retryable.
                    assert exc.retryable is True
        assert completed, "no request survived a 20%-fault storm"
        for result in completed:
            assert FD(["a0"], "a1") in set(result.fds)
        assert_no_hung_jobs(handle)
        # Determinism: the injector's decision sequence is seed-driven.
        replay = (
            FaultInjector(seed=8)
            .inject("http.reset", times=None, probability=0.2)
        )
        first = [replay.fires("http.reset") for _ in range(10)]
        replay2 = (
            FaultInjector(seed=8)
            .inject("http.reset", times=None, probability=0.2)
        )
        assert first == [replay2.fires("http.reset") for _ in range(10)]


class TestParallelWorkerCrash:
    """``parallel.worker_crash``: a worker process dies hard (os._exit).

    Fork-started workers inherit the installed injector, so arming the
    point in the test process makes the next worker child die on entry —
    the chaos stand-in for an OOM kill. The claims under test: the death
    surfaces as a *typed* ReproError (WorkerCrashError), the job reaches
    a terminal state (no hang), and the dead worker is reaped.
    """

    def test_killed_process_job_worker_fails_the_job_cleanly(self):
        import multiprocessing

        relation = chaos_relation(seed=18)
        with start_in_thread(workers=2, executor="process",
                             job_timeout=60.0) as handle:
            client = ServiceClient(handle.base_url, retry=None, timeout=30.0)
            client.wait_until_healthy()
            with FaultInjector(seed=10).inject(
                "parallel.worker_crash", times=1
            ).install():
                envelope = client.discover_raw(relation, wait=False)
                job = handle.service.jobs.get(envelope["job_id"])
                assert job.wait(timeout=30) == "failed"
            assert "WorkerCrashError" in job.error
            assert "exit code 3" in job.error
            # Typed outcome for pollers, and no hung jobs behind it.
            assert client.job(envelope["job_id"])["state"] == "failed"
            assert_no_hung_jobs(handle)
        # The dead worker was reaped: nothing of ours is left running.
        assert not [
            p for p in multiprocessing.active_children()
            if p.name.startswith("repro-job-worker")
        ]


class TestStorageChaos:
    """``disk.enospc`` / ``disk.eio``: storage faults degrade, never 500.

    Every durable writer (job journal, session checkpoints, obs JSONL)
    is armed with disk faults while real requests flow through a live
    server with a non-retrying client — so any 500 would surface as a
    hard ServiceError. The claims: requests keep succeeding, statusz
    stays HTTP 200 but reports ``degraded`` storage, and once the fault
    clears a flush drains the parked writes and health recovers.
    """

    def test_enospc_storm_degrades_journal_not_requests(self, tmp_path):
        with start_in_thread(workers=2, job_timeout=60.0,
                             journal_dir=str(tmp_path)) as handle:
            client = ServiceClient(handle.base_url, retry=None, timeout=30.0)
            client.wait_until_healthy()
            with FaultInjector(seed=21).inject(
                "disk.enospc", times=None
            ).install():
                # Every journal append hits ENOSPC; submits still work.
                for i in range(3):
                    result = client.discover(chaos_relation(seed=40 + i))
                    assert FD(["a0"], "a1") in set(result.fds)
                status = client.statusz()
                assert status["status"] == "degraded"
                assert status["checks"]["storage"] == "degraded"
                assert "journal" in status["storage"]["degraded_writers"]
                buffered = handle.service.jobs.journal_writer.status()["buffered"]
                assert buffered > 0
            # Disk healed: the backlog flushes and health recovers.
            assert handle.service.jobs.journal_writer.flush()
            status = client.statusz()
            assert status["status"] == "ok"
            assert status["checks"]["storage"] == "ok"
            assert_no_hung_jobs(handle)

    def test_eio_on_checkpoint_returns_degraded_body_not_500(self, tmp_path):
        with start_in_thread(workers=2, job_timeout=60.0,
                             checkpoint_dir=str(tmp_path)) as handle:
            client = ServiceClient(handle.base_url, retry=None, timeout=30.0)
            client.wait_until_healthy()
            sid = client.create_session()
            client.append_batch(sid, chaos_relation(seed=50, n=80))
            with FaultInjector(seed=22).inject(
                "disk.eio", times=None
            ).install():
                body = client.checkpoint_session(sid)  # 200, not 500
                assert body["persisted"] is False
                status = client.statusz()
                assert status["status"] == "degraded"
                assert "checkpoints" in status["storage"]["degraded_writers"]
            assert handle.service.sessions.writer.flush()
            body = client.checkpoint_session(sid)
            assert body["persisted"] is True
            status = client.statusz()
            assert status["status"] == "ok"
            assert_no_hung_jobs(handle)

    def test_obs_sink_faults_never_touch_request_path(self, tmp_path):
        obs_path = str(tmp_path / "events.jsonl")
        with start_in_thread(workers=2, job_timeout=60.0,
                             obs_jsonl=obs_path) as handle:
            client = ServiceClient(handle.base_url, retry=None, timeout=30.0)
            client.wait_until_healthy()
            with FaultInjector(seed=23).inject(
                "disk.enospc", times=None
            ).install():
                result = client.discover(chaos_relation(seed=60))
                assert FD(["a0"], "a1") in set(result.fds)
                status = client.statusz()
                assert status["status"] == "degraded"
                assert "obs_jsonl" in status["storage"]["degraded_writers"]
            assert handle.service._obs_sink.writer.flush()
            assert client.statusz()["status"] == "ok"
            # The parked request events made it to disk after recovery.
            with open(obs_path, encoding="utf-8") as fh:
                assert sum(1 for _ in fh) > 0
            assert_no_hung_jobs(handle)
