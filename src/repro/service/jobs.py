"""Bounded-concurrency job manager for discovery requests.

Requests are turned into :class:`Job` objects and executed on a
``concurrent.futures.ThreadPoolExecutor`` with a fixed worker count, so a
burst of expensive discoveries queues instead of oversubscribing the
host. Each job walks ``QUEUED -> RUNNING -> DONE | FAILED | CANCELLED``:

* **timeout** — jobs carry a per-job wall-clock budget measured from the
  moment they start running. Python threads cannot be interrupted, so a
  blown budget is enforced twice: the job *reports* FAILED as soon as its
  deadline passes, and whatever the worker eventually produces is
  discarded; and the job's cancel token carries the same deadline, so
  cooperative pipeline code unwinds at it even if nobody polls the job.
* **cancellation** — a queued job is cancelled outright (the executor
  never runs it); a running job is flagged *and* its
  :class:`~repro.resilience.CancelToken` is set, so cooperative
  pipeline code (stage boundaries, glasso Newton steps) aborts
  promptly instead of burning the worker to completion. The token is
  installed as the worker thread's contextvar, reaching the pipeline
  with no signature changes.
* **admission control** — with ``max_queue_depth`` set, a submit that
  would grow the backlog past the limit is *shed*:
  :class:`QueueFullError` carries a retry-after estimate derived from
  an EWMA of recent job runtimes, which the HTTP layer turns into a
  429 + ``Retry-After``.

Finished jobs are retained (bounded, FIFO-pruned) so clients can poll
``/v1/jobs/<id>`` after completion.

Durability (``journal_dir``) extends the lifecycle across restarts:
every transition is journaled write-ahead to an append-only JSONL file
(:mod:`repro.service.journal`), and a new manager replays it on boot —
terminal jobs come back as read-only metadata, jobs that were in flight
when the process died are marked ``INTERRUPTED`` (their merged journal
records exposed via ``recovered_interrupted`` so the service layer can
resubmit them), and a job whose worker died abnormally ``max_attempts``
times is parked in a terminal ``QUARANTINED`` state that survives
restarts and refuses resubmission, so one poison relation cannot burn
the pool forever.
"""

from __future__ import annotations

import contextvars
import itertools
import multiprocessing
import threading
import time
import uuid
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable

from ..errors import ReproError, WorkerCrashError
from ..obs.trace import current_trace_id
from ..parallel.worker import preferred_start_method, run_in_process
from ..resilience import faults
from ..resilience.cancel import CancelToken, current_cancel_token, set_current_cancel_token
from ..resilience.degrade import DegradableWriter
from ..resilience.watchdog import Heartbeat, SolveWatchdog, set_current_heartbeat
from .journal import JobJournal

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
#: The job was in flight when the previous process died; it produced no
#: result and may be resubmitted (``serve --recover resubmit``).
INTERRUPTED = "interrupted"
#: The job's worker died abnormally ``max_attempts`` times; the manager
#: refuses further submits of the same key until the journal is cleared.
QUARANTINED = "quarantined"

#: States a job can never leave.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED, INTERRUPTED, QUARANTINED})

#: state <-> journal event name (states and events currently coincide
#: except for DONE/"completed"; keep the mapping explicit anyway).
_STATE_EVENTS = {
    DONE: "completed",
    FAILED: "failed",
    CANCELLED: "cancelled",
    INTERRUPTED: "interrupted",
    QUARANTINED: "quarantined",
}
_EVENT_STATES = {event: state for state, event in _STATE_EVENTS.items()}


class QueueFullError(ReproError):
    """Admission control shed a submit: the backlog is at capacity.

    ``retry_after_seconds`` is the manager's estimate of when a slot
    frees up (EWMA job runtime, clamped); the HTTP layer forwards it as
    a ``Retry-After`` header on the 429 response.
    """

    def __init__(self, queue_depth: int, retry_after_seconds: float) -> None:
        super().__init__(
            f"job queue is full ({queue_depth} queued); "
            f"retry in ~{retry_after_seconds:.0f}s"
        )
        self.queue_depth = queue_depth
        self.retry_after_seconds = retry_after_seconds


class QuarantinedError(ReproError):
    """The submitted work's key is quarantined; it will not be retried.

    Raised at submit time for a key whose previous attempts all died
    abnormally. The HTTP layer maps it to a non-retryable 409 with
    ``reason: "quarantined"``.
    """

    def __init__(self, key: str, attempts: int) -> None:
        super().__init__(
            f"job is quarantined after {attempts} crashed attempt(s); "
            "refusing to run it again"
        )
        self.key = key
        self.attempts = attempts


class Job:
    """One unit of work and its observable lifecycle."""

    def __init__(
        self,
        job_id: str,
        timeout: float | None,
        kind: str = "discover",
        attempt: int = 1,
        key: str | None = None,
    ) -> None:
        self.id = job_id
        self.kind = kind
        self.timeout = timeout
        #: 1-based attempt number for this job's work key; carried in the
        #: journal so retries across restarts keep counting.
        self.attempt = attempt
        #: Stable identity of the underlying work (dataset fingerprint)
        #: used for attempt counting and quarantine.
        self.key = key
        #: True for jobs reconstructed from a journal replay (metadata
        #: only; no future, no result payload).
        self.restored = False
        #: Set on an INTERRUPTED job when recovery resubmitted its work
        #: as a fresh job (``serve --recover resubmit``).
        self.resubmitted_as: str | None = None
        # Wall-clock timestamp for status payloads; every duration below
        # (queue latency, runtime, deadlines) uses the monotonic clock.
        self.submitted_at = time.time()
        self._submitted_monotonic = time.monotonic()
        self.queue_seconds: float | None = None
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.result: Any = None
        self.error: str | None = None
        #: Type name of what ended the job: the exception's, or
        #: ``TaskTimeoutError`` / ``CancelledError`` for a blown deadline
        #: or a cancel (None while running, when done, or restored).
        self.error_type: str | None = None
        self._state = QUEUED
        self._cancel_requested = False
        self._lock = threading.Lock()
        self._done_event = threading.Event()
        self.future: Future | None = None
        #: Cooperative-cancellation flag, installed as the worker's
        #: contextvar so pipeline stage boundaries see it.
        self.cancel_token = CancelToken()

    @classmethod
    def restored_from(cls, rec: dict, state: str) -> "Job":
        """Rebuild a terminal job from its merged journal record."""
        job = cls(
            rec["job_id"],
            timeout=rec.get("timeout"),
            kind=rec.get("kind", "discover"),
            attempt=int(rec.get("attempt", 1)),
            key=rec.get("key"),
        )
        job.restored = True
        if rec.get("submitted_ts"):
            job.submitted_at = rec["submitted_ts"]
        job._state = state
        job.error = rec.get("error")
        job._done_event.set()
        return job

    # -- lifecycle (called by the manager/worker) --------------------------

    def _begin(self) -> bool:
        """Transition to RUNNING; False if the job was already cancelled."""
        with self._lock:
            if self._cancel_requested or self._state in TERMINAL_STATES:
                self._finish_locked(CANCELLED, error="cancelled before start")
                return False
            self._state = RUNNING
            self.started_at = time.monotonic()
            self.queue_seconds = self.started_at - self._submitted_monotonic
            if self.timeout is not None:
                # Work polling the token unwinds at the deadline even
                # when nothing observes the job's state.
                self.cancel_token.deadline = self.started_at + self.timeout
            return True

    def _finish_locked(
        self, state: str, *, result: Any = None, error: str | None = None,
        error_type: str | None = None,
    ) -> None:
        if self._state in TERMINAL_STATES:
            return
        self._state = state
        self.result = result
        self.error = error
        self.error_type = "CancelledError" if state == CANCELLED else error_type
        self.finished_at = time.monotonic()
        if state != DONE:
            # Timeout/cancel may be observed while the worker still
            # runs; the token tells it to unwind at the next check.
            self.cancel_token.set(error or state)
        self._done_event.set()

    def _complete(self, result: Any) -> None:
        with self._lock:
            if self._timed_out_locked():
                self._time_out_locked()
            elif self._cancel_requested:
                self._finish_locked(CANCELLED, error="cancelled while running")
            else:
                self._finish_locked(DONE, result=result)

    def _fail(self, exc: BaseException) -> None:
        with self._lock:
            if self._timed_out_locked():
                self._time_out_locked()
            elif self._cancel_requested:
                self._finish_locked(CANCELLED, error="cancelled while running")
            else:
                self._finish_locked(
                    FAILED, error=f"{type(exc).__name__}: {exc}",
                    error_type=type(exc).__name__,
                )

    def _timed_out_locked(self) -> bool:
        return self._state == RUNNING and self.cancel_token.expired()

    def _time_out_locked(self) -> None:
        self._finish_locked(
            FAILED, error=f"timed out after {self.timeout:.3f}s",
            error_type="TaskTimeoutError",
        )

    # -- observation -------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state; a blown deadline surfaces as FAILED immediately."""
        with self._lock:
            if self._timed_out_locked():
                self._time_out_locked()
            return self._state

    def cancel(self) -> bool:
        """Request cancellation; True if the job will not produce a result."""
        future = self.future
        if future is not None and future.cancel():
            with self._lock:
                self._finish_locked(CANCELLED, error="cancelled while queued")
            return True
        with self._lock:
            if self._state in TERMINAL_STATES:
                return self._state == CANCELLED
            self._cancel_requested = True
            self.cancel_token.set("cancelled")
            return True

    def wait(self, timeout: float | None = None) -> str:
        """Block until the job reaches a terminal state (or ``timeout``).

        Polls in short slices rather than blocking on the event alone so
        observation-time deadline enforcement fires promptly.
        """
        end = None if timeout is None else time.monotonic() + timeout
        while True:
            state = self.state
            if state in TERMINAL_STATES:
                return state
            remaining = None if end is None else end - time.monotonic()
            if remaining is not None and remaining <= 0:
                return state
            slice_ = 0.05 if remaining is None else min(0.05, remaining)
            self._done_event.wait(slice_)

    def to_dict(self) -> dict:
        """Status payload for ``/v1/jobs/<id>``."""
        state = self.state
        with self._lock:
            runtime = None
            if self.started_at is not None:
                clock_end = self.finished_at if self.finished_at is not None else time.monotonic()
                runtime = clock_end - self.started_at
            payload = {
                "job_id": self.id,
                "kind": self.kind,
                "state": state,
                "submitted_at": self.submitted_at,
                "queue_seconds": self.queue_seconds,
                "runtime_seconds": runtime,
                "timeout_seconds": self.timeout,
                "attempt": self.attempt,
            }
            if self.restored:
                payload["restored"] = True
            if self.resubmitted_as is not None:
                payload["resubmitted_as"] = self.resubmitted_as
            if self.error is not None:
                payload["error"] = self.error
            if state == DONE and self.result is not None:
                payload["result"] = self.result
            return payload


class JobManager:
    """Run callables on a bounded pool with observable job lifecycles."""

    def __init__(
        self,
        workers: int = 4,
        default_timeout: float | None = 300.0,
        max_retained: int = 1024,
        max_queue_depth: int | None = None,
        registry=None,
        executor: str = "thread",
        process_grace: float = 2.0,
        tracer=None,
        journal_dir: str | None = None,
        fsync_policy: str = "batch",
        max_attempts: int = 2,
        hang_timeout: float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None)")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if executor not in ("thread", "process"):
            raise ValueError(
                f"unknown job executor {executor!r}; options: thread, process"
            )
        self.workers = workers
        #: ``"thread"`` runs job bodies on the pool threads (GIL-bound);
        #: ``"process"`` supervises each body in a child process via
        #: :func:`repro.parallel.run_in_process`, keeping HTTP threads
        #: responsive while discoveries pin a core.
        self.executor_mode = executor
        #: Seconds between cancellation escalation steps in process mode
        #: (sentinel -> SIGTERM -> SIGKILL).
        self.process_grace = process_grace
        self.default_timeout = default_timeout
        self.max_retained = max_retained
        self.max_queue_depth = max_queue_depth
        # Optional repro.obs.MetricsRegistry: when present, queue latency
        # is observed as the jobs_queue_seconds histogram at job start.
        self.registry = registry
        # Optional repro.obs.Tracer: in process mode the current trace
        # context travels into the worker child and its span buffer is
        # re-adopted, stitching one trace across the process boundary.
        self.tracer = tracer
        #: Optional callable receiving job lifecycle event dicts (e.g.
        #: ``job.failed``); the service points the flight recorder here.
        self.event_hook = None
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-job"
        )
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._lock = threading.Lock()
        self._counter = itertools.count(1)
        self._n_submitted = 0
        self._n_shed = 0
        #: EWMA of completed-job runtimes, feeding the 429 Retry-After
        #: estimate (seconds; seeded with a plausible discovery latency).
        self._runtime_ewma = 1.0
        self._closed = False
        #: Abnormal deaths per work key before quarantine.
        self.max_attempts = max_attempts
        #: ``key -> attempts used`` across this process *and* (via the
        #: journal) previous ones.
        self._attempts: dict[str, int] = {}
        #: ``key -> attempts`` for quarantined work; submits are refused.
        self._quarantined: dict[str, int] = {}
        self._n_quarantined = 0
        #: Merged journal records (payload included when the submit
        #: carried one) of jobs in flight at crash time, for the service
        #: layer to resubmit under ``--recover resubmit``.
        self.recovered_interrupted: list[dict] = []
        self._n_interrupted = 0
        self.journal: JobJournal | None = None
        self.journal_writer: DegradableWriter | None = None
        self.last_replay = None
        if journal_dir is not None:
            self.journal = JobJournal(
                journal_dir, fsync_policy=fsync_policy, registry=registry
            )
            self.journal_writer = DegradableWriter("journal", registry=registry)
            self._recover_from_journal()
        #: Optional hung-solve monitor; fed by per-iteration heartbeats
        #: installed for each running job.
        self.watchdog: SolveWatchdog | None = None
        if hang_timeout is not None:
            self.watchdog = SolveWatchdog(
                hang_timeout, registry=registry, on_hang=self._on_hang
            )
            self.watchdog.start()

    # -- durability --------------------------------------------------------

    def _recover_from_journal(self) -> None:
        """Replay the journal: restore terminal jobs, surface casualties."""
        result = self.journal.replay()
        self.last_replay = result
        self._attempts.update(result.attempts)
        self._quarantined.update(result.quarantined_keys)
        for job_id, rec in result.jobs.items():
            event = rec["event"]
            if event in _EVENT_STATES:
                job = Job.restored_from(rec, _EVENT_STATES[event])
            else:
                # In flight at crash. A job that had already burned its
                # attempt budget is quarantined at boot — resubmitting it
                # would just crash-loop the server on the poison input.
                key = rec.get("key")
                attempts = int(rec.get("attempt", 1))
                if key is not None and attempts >= self.max_attempts:
                    rec["event"] = "quarantined"
                    rec["attempts"] = attempts
                    rec.setdefault(
                        "error",
                        f"quarantined at recovery after {attempts} "
                        "crashed attempt(s)",
                    )
                    self._quarantined[key] = max(
                        self._quarantined.get(key, 0), attempts
                    )
                    self._n_quarantined += 1
                    job = Job.restored_from(rec, QUARANTINED)
                else:
                    rec["event"] = "interrupted"
                    rec.setdefault("error", "interrupted by server restart")
                    job = Job.restored_from(rec, INTERRUPTED)
                    self.recovered_interrupted.append(rec)
                    self._n_interrupted += 1
            self._jobs[job_id] = job
            self._order.append(job_id)
        if self._n_interrupted and self.registry is not None:
            self.registry.counter(
                "jobs_interrupted_total",
                help="Jobs found in flight at crash time during journal replay",
            ).inc(self._n_interrupted)
        if self._n_quarantined:
            self._count_quarantined(self._n_quarantined)
        # Compact: one record per job, payloads shed for terminal jobs.
        # Runs before any new appends, so it cannot race live writers;
        # an unwritable disk here must not block boot.
        self.journal_writer.write(lambda: self.journal.compact(result))
        with self._lock:
            self._prune_locked()

    def _count_quarantined(self, n: int) -> None:
        """Quarantines at boot and at run time feed one counter."""
        if self.registry is not None:
            self.registry.counter(
                "jobs_quarantined_total",
                help="Jobs quarantined after repeated abnormal worker deaths",
            ).inc(n)

    def _journal_event(self, event: str, job: Job, **fields: Any) -> None:
        if self.journal is None:
            return
        rec = JobJournal.record(
            event, job.id, kind=job.kind, attempt=job.attempt, key=job.key,
            **fields,
        )
        self.journal_writer.write(lambda: self.journal.append_batch([rec]))

    def _on_hang(self, job_id: str) -> None:
        hook = self.event_hook
        if hook is not None:
            try:
                hook({
                    "event": "job.hung",
                    "job_id": job_id,
                    "hang_timeout": self.watchdog.hang_timeout,
                })
            except Exception:
                pass

    def quarantined_keys(self) -> dict[str, int]:
        with self._lock:
            return dict(self._quarantined)

    def submit(
        self,
        fn: Callable[[], Any],
        *,
        timeout: float | None = None,
        kind: str = "discover",
        key: str | None = None,
        payload: dict | None = None,
    ) -> Job:
        """Queue ``fn`` and return its :class:`Job` handle immediately.

        Raises :class:`QueueFullError` when ``max_queue_depth`` is set
        and that many jobs are already waiting for a worker (admission
        control: shedding at the door beats timing out in the queue).

        ``key`` is a stable identity for the underlying work (the
        service passes the dataset fingerprint): attempts are counted
        per key across restarts, and a key whose workers died abnormally
        ``max_attempts`` times raises :class:`QuarantinedError` instead
        of queueing. ``payload`` is an optional wire-form description of
        the work, journaled with the submit record so a crash-recovery
        boot can resubmit the job without the original closure.
        """
        if timeout is None:
            timeout = self.default_timeout
        job_id = f"job-{next(self._counter):06d}-{uuid.uuid4().hex[:8]}"
        with self._lock:
            if self._closed:
                raise RuntimeError("job manager is shut down")
            if key is not None and key in self._quarantined:
                raise QuarantinedError(key, self._quarantined[key])
            if self.max_queue_depth is not None:
                depth = sum(1 for j in self._jobs.values() if j.state == QUEUED)
                if depth >= self.max_queue_depth:
                    self._n_shed += 1
                    if self.registry is not None:
                        self.registry.counter(
                            "jobs_shed_total",
                            help="Submits rejected by queue admission control",
                        ).inc()
                    raise QueueFullError(depth, self.retry_after_estimate())
            attempt = 1
            if key is not None:
                attempt = self._attempts.get(key, 0) + 1
                self._attempts[key] = attempt
            job = Job(job_id, timeout=timeout, kind=kind, attempt=attempt, key=key)
            self._jobs[job_id] = job
            self._order.append(job_id)
            self._n_submitted += 1
            self._prune_locked()
        # Write-ahead: the submit record (with the resubmission payload,
        # if any) hits the journal before the executor sees the job.
        self._journal_event("submitted", job, timeout=timeout, payload=payload)
        # Run the job inside a copy of the submitter's context so
        # contextvars — notably the observability trace id of the HTTP
        # request that spawned this job — propagate into the worker
        # thread (threads do not inherit contextvars by themselves).
        context = contextvars.copy_context()
        job.future = self._executor.submit(context.run, self._run, job, fn)
        return job

    def _run(self, job: Job, fn: Callable[[], Any]) -> None:
        if not job._begin():
            self._journal_event("cancelled", job)
            return
        self._journal_event("started", job)
        if self.registry is not None and job.queue_seconds is not None:
            self.registry.histogram(
                "jobs_queue_seconds",
                help="Time jobs spent queued before a worker picked them up",
            ).observe(job.queue_seconds)
        # The job's cancel token becomes the worker context's current
        # token; pipeline stage boundaries (FDX.discover, glasso outer
        # iterations) poll it and unwind with CancelledError. The context
        # is a per-submit copy, so the token cannot leak across jobs.
        set_current_cancel_token(job.cancel_token)
        if self.watchdog is not None:
            # Heartbeat cell for the solver: shared memory in process
            # mode (the child's beats must reach this process), a plain
            # cell otherwise. The watchdog cancels on silence.
            if self.executor_mode == "process":
                heartbeat = Heartbeat.shared(
                    multiprocessing.get_context(preferred_start_method())
                )
            else:
                heartbeat = Heartbeat()
            set_current_heartbeat(heartbeat)
            self.watchdog.watch(job.id, heartbeat, job.cancel_token)
        started = time.monotonic()
        try:
            faults.maybe_raise("job.worker", f"worker crashed running {job.id}")
            result = fn()
        except BaseException as exc:  # worker thread: report, never raise
            self._job_died(job, exc)
        else:
            if self.watchdog is not None:
                self.watchdog.unwatch(job.id)
            job._complete(result)
            self._journal_event(_STATE_EVENTS.get(job.state, "failed"), job,
                                error=job.error)
            elapsed = time.monotonic() - started
            self._runtime_ewma += 0.2 * (elapsed - self._runtime_ewma)

    def _job_died(self, job: Job, exc: BaseException) -> None:
        """Classify a worker death: plain failure, cancel, or quarantine."""
        hung = (
            self.watchdog.unwatch(job.id) if self.watchdog is not None else False
        )
        # Abnormal deaths — a crashed worker process, an injected crash,
        # or a hung solve the watchdog had to kill — burn an attempt;
        # ordinary errors (bad input, timeouts, user cancels) do not.
        abnormal = hung or isinstance(exc, (WorkerCrashError, faults.InjectedFault))
        quarantine = False
        if abnormal and job.key is not None and not job._cancel_requested:
            with self._lock:
                if job.attempt >= self.max_attempts:
                    self._quarantined[job.key] = job.attempt
                    self._n_quarantined += 1
                    quarantine = True
        if quarantine:
            error = (
                f"quarantined after {job.attempt} crashed attempt(s); "
                f"last error: {type(exc).__name__}: {exc}"
            )
            with job._lock:
                job._finish_locked(
                    QUARANTINED, error=error, error_type=type(exc).__name__
                )
            self._journal_event(
                "quarantined", job, error=error, attempts=job.attempt,
                crash=True,
            )
            self._count_quarantined(1)
        else:
            job._fail(exc)
            self._journal_event(
                _STATE_EVENTS.get(job.state, "failed"), job, error=job.error,
                crash=True if abnormal else None,
            )
        hook = self.event_hook
        if hook is not None:
            try:
                hook(
                    {
                        "event": "job.quarantined" if quarantine else "job.failed",
                        "job_id": job.id,
                        "kind": job.kind,
                        "attempt": job.attempt,
                        "error_type": type(exc).__name__,
                        "error": f"{type(exc).__name__}: {exc}",
                        "trace_id": current_trace_id(),
                    }
                )
            except Exception:
                pass

    def run_in_worker(
        self,
        fn: Callable[..., Any],
        args: tuple = (),
        kwargs: dict | None = None,
        *,
        timeout: float | None = None,
    ) -> Any:
        """Execute a job body under the configured executor mode.

        Called from inside a job's closure (i.e. on a pool thread whose
        context carries the job's cancel token). Thread mode runs ``fn``
        inline; process mode supervises it in a child process — the
        current cancel token is relayed as the cancellation sentinel,
        ``timeout`` becomes a *hard* deadline (the child is terminated,
        not merely observed as late), and the worker is always reaped.
        In process mode ``fn``/``args``/``kwargs``/result must be
        picklable (use module-level functions).
        """
        if self.executor_mode == "process":
            from ..resilience.watchdog import current_heartbeat

            return run_in_process(
                fn,
                args,
                kwargs,
                cancel_token=current_cancel_token(),
                timeout=timeout,
                grace=self.process_grace,
                registry=self.registry,
                tracer=self.tracer,
                heartbeat=current_heartbeat(),
            )
        return fn(*args, **(kwargs or {}))

    def retry_after_estimate(self) -> float:
        """Seconds until a queue slot plausibly frees (for Retry-After)."""
        return float(min(max(self._runtime_ewma, 1.0), 60.0))

    def _prune_locked(self) -> None:
        while len(self._order) > self.max_retained:
            for i, job_id in enumerate(self._order):
                if self._jobs[job_id].state in TERMINAL_STATES:
                    del self._jobs[job_id]
                    del self._order[i]
                    break
            else:
                return  # everything retained is still live

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> bool:
        job = self.get(job_id)
        if job is None:
            return False
        cancelled = job.cancel()
        # A queued job cancels synchronously and its _run never fires;
        # journal the terminal state here. (A running job is journaled
        # by _run when it actually unwinds — a duplicate cancelled
        # record from a race is harmless, replay merges last-wins.)
        if cancelled and job.state == CANCELLED:
            self._journal_event("cancelled", job, error=job.error)
        return cancelled

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def queue_depth(self) -> int:
        """Jobs submitted but not yet running."""
        with self._lock:
            return sum(1 for j in self._jobs.values() if j.state == QUEUED)

    def stats(self) -> dict:
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            payload = {
                "workers": self.workers,
                "executor": self.executor_mode,
                "submitted": self._n_submitted,
                "shed": self._n_shed,
                "max_queue_depth": self.max_queue_depth,
                "retained": len(self._jobs),
                "queue_depth": states.get(QUEUED, 0),
                "running": states.get(RUNNING, 0),
                "states": states,
                "max_attempts": self.max_attempts,
                "quarantined_keys": len(self._quarantined),
                "quarantined": self._n_quarantined,
                "interrupted_at_boot": self._n_interrupted,
            }
        if self.journal is not None:
            payload["journal"] = self.journal.stats()
        if self.watchdog is not None:
            payload["watchdog"] = self.watchdog.stats()
        return payload

    def shutdown(self, wait: bool = True, drain: bool = False) -> None:
        """Stop accepting work and wind down the pool.

        ``drain=True`` lets queued and running jobs finish before the
        workers are joined (graceful shutdown). Otherwise queued jobs
        are cancelled — transitioning them to a *terminal* CANCELLED
        state, so pollers are not left watching a forever-QUEUED job —
        and running jobs get their cancel token set so cooperative
        pipelines unwind early. ``wait`` controls whether worker
        threads are joined before returning.
        """
        with self._lock:
            self._closed = True
            jobs = list(self._jobs.values())
        if not drain:
            for job in jobs:
                if job.state not in TERMINAL_STATES:
                    job.cancel()
        if self.watchdog is not None:
            self.watchdog.stop()
        self._executor.shutdown(wait=wait, cancel_futures=not drain)
        if self.journal is not None:
            if self.journal_writer is not None:
                self.journal_writer.flush()
            try:
                self.journal.close()
            except OSError:
                pass
