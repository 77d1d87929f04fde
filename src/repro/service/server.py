"""HTTP server for concurrent FD discovery (`python -m repro serve`).

Two layers live here:

* :class:`DiscoveryService` — the transport-free application object
  wiring together the job manager, result cache, streaming sessions and
  metrics. Every method takes/returns plain dicts (plus an HTTP status),
  so it is directly unit-testable without sockets.
* the handler built by :func:`_make_handler` — a thin
  ``http.server`` shim that dispatches through :data:`ROUTES`, served by
  ``ThreadingHTTPServer`` (one thread per connection; the expensive
  discovery work is still bounded by the job manager's worker pool).

Every endpoint is one row of :data:`ROUTES` (method, path, endpoint
label, latency SLO, and the service method it calls); docs/SERVICE.md
lists the same routes for humans, and a test keeps the two in step.
Each request's latency is measured against its row's SLO
(:mod:`~repro.service.slo`); the resulting burn-rate counters ride the
Prometheus exposition.
"""

from __future__ import annotations

import hashlib
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, NamedTuple
from urllib.parse import parse_qs

from .. import __version__
from ..core.fdx import FDX, validate_relation
from ..errors import InputValidationError
from ..obs.explain import evidence_for_fd
from ..obs.flight import FlightRecorder
from ..obs.health import SolverHealthMonitor
from ..obs.registry import MetricsRegistry
from ..obs.sinks import PROMETHEUS_CONTENT_TYPE, JsonlSink, render_prometheus
from ..obs.trace import (
    Tracer,
    current_trace_id,
    new_trace_id,
    reset_trace_id,
    set_trace_id,
)
from ..resilience import faults
from ..errors import CatalogError
from .cache import ResultCache, dataset_fingerprint
from .catalog import CatalogManager
from .jobs import DONE, Job, JobManager, QuarantinedError, QueueFullError
from .protocol import (
    MAX_BODY_BYTES,
    Hyperparameters,
    ProtocolError,
    envelope,
    error_payload,
    relation_from_wire,
)
from .sessions import SessionManager
from .slo import SloObjective, SloTracker

#: Per-endpoint request-latency histogram: the one timing source behind
#: both the JSON and the Prometheus forms of ``/v1/metrics``.
REQUEST_SECONDS = "http_request_seconds"


def _discover_job_task(
    relation, hyperparameters: Hyperparameters, tracer: Tracer | None = None
) -> dict:
    """Job body: run the full pipeline, return the wire dict.

    Module-level so it pickles for ``executor="process"``, where the
    child gets no tracer (spans stay in the parent around the
    supervision call) and pipeline cancellation arrives via the sentinel
    installed by :func:`repro.parallel.run_in_process`. The thread
    executor calls it in-process with the service's tracer.
    """
    fdx = FDX(
        lam=hyperparameters.lam,
        sparsity=hyperparameters.sparsity,
        ordering=hyperparameters.ordering,
        shrinkage=hyperparameters.shrinkage,
        max_rows_per_attribute=hyperparameters.max_rows_per_attribute,
        seed=hyperparameters.seed,
        tracer=tracer,
    )
    return fdx.discover(relation).to_dict()


class PlainText:
    """Marker wrapper: reply with raw text instead of a JSON envelope."""

    __slots__ = ("text", "content_type")

    def __init__(self, text: str, content_type: str = PROMETHEUS_CONTENT_TYPE) -> None:
        self.text = text
        self.content_type = content_type


class DiscoveryService:
    """Transport-free application core of the FD-discovery service."""

    def __init__(
        self,
        workers: int = 4,
        job_timeout: float | None = 300.0,
        cache_entries: int = 128,
        cache_ttl: float = 3600.0,
        max_sessions: int = 256,
        session_ttl: float = 1800.0,
        max_queue_depth: int | None = 64,
        obs_jsonl: str | None = None,
        obs_jsonl_max_bytes: int | None = 64 * 1024 * 1024,
        tracer: Tracer | None = None,
        executor: str = "thread",
        checkpoint_dir: str | None = None,
        flight_dir: str | None = None,
        flight_capacity: int = 4096,
        flight_debounce: float = 30.0,
        journal_dir: str | None = None,
        recover: str = "mark",
        max_attempts: int = 2,
        hang_timeout: float | None = None,
    ) -> None:
        if recover not in ("mark", "resubmit"):
            raise ValueError(
                f"unknown recover mode {recover!r}; options: mark, resubmit"
            )
        self.recover = recover
        # Wall clock for human-facing timestamps only; uptime comes from
        # the monotonic clock (immune to NTP steps / clock slew).
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        self.registry = MetricsRegistry()
        self._obs_sink = (
            JsonlSink(obs_jsonl, max_bytes=obs_jsonl_max_bytes, registry=self.registry)
            if obs_jsonl else None
        )
        # The flight recorder is always on: an in-memory ring of recent
        # spans/requests/metric deltas/state changes, dumped to
        # ``flight_dir`` when a trigger (5xx, SLO burn, fallback, worker
        # crash, drift alert) fires. Without a directory it still powers
        # GET /v1/debug/flight.
        self.flight = FlightRecorder(
            capacity=flight_capacity,
            directory=flight_dir,
            debounce_seconds=flight_debounce,
            registry=self.registry,
        )
        self.registry.set_delta_observer(self.flight.metric_delta)
        if tracer is not None:
            self.tracer = tracer
        else:
            sinks: list = [self._obs_sink] if self._obs_sink is not None else []
            sinks.append(self.flight)
            # Span tracing is on whenever an event log or flight dump
            # directory is configured; otherwise the tracer stays a
            # near-free no-op (the ring still gets request/metric/state
            # events, which cost nothing per span).
            self.tracer = Tracer(
                enabled=bool(obs_jsonl or flight_dir), sinks=sinks
            )
        self._previous_fault_observer = faults.set_fault_observer(
            self._on_fault_fired
        )
        self.slo = SloTracker(
            self.registry, objectives={route.name: route.slo for route in ROUTES}
        )
        # Solver-health telemetry: every discovery's solver runs feed the
        # solver_* series, the flight triggers, and /v1/statusz readiness.
        self.solver_health = SolverHealthMonitor(self.registry)
        self._last_error: dict | None = None
        self._error_lock = threading.Lock()
        # executor="process" runs each FD job in a supervised child
        # process (true multi-core, hard timeouts, cancellation via
        # sentinel + SIGTERM/SIGKILL escalation) instead of on the
        # GIL-bound pool thread; see docs/PARALLEL.md.
        self.jobs = JobManager(
            workers=workers, default_timeout=job_timeout,
            max_queue_depth=max_queue_depth, registry=self.registry,
            executor=executor, tracer=self.tracer,
            journal_dir=journal_dir, max_attempts=max_attempts,
            hang_timeout=hang_timeout,
        )
        self.jobs.event_hook = self._on_job_event
        self._n_resubmitted = 0
        self.cache = ResultCache(
            max_entries=cache_entries, ttl_seconds=cache_ttl,
            registry=self.registry, name="results",
        )
        # Memo from raw request-body digest to dataset fingerprint: lets a
        # byte-identical repeat request skip JSON parsing, Relation
        # construction and content hashing. The fingerprint cache above
        # stays the source of truth (its TTL/LRU still govern results).
        self._body_index = ResultCache(
            max_entries=cache_entries * 8, ttl_seconds=cache_ttl,
            registry=self.registry, name="bodies",
        )
        self.sessions = SessionManager(
            max_sessions=max_sessions,
            ttl_seconds=session_ttl,
            checkpoint_dir=checkpoint_dir,
            registry=self.registry,
            tracer=self.tracer,
            event_hook=self._on_session_event,
        )
        # Client-supplied Idempotency-Key -> job id: a retried submit
        # (e.g. after a connection reset mid-response) reattaches to the
        # original job instead of running the discovery twice.
        self._idempotency = ResultCache(
            max_entries=cache_entries * 8, ttl_seconds=cache_ttl,
            registry=self.registry, name="idempotency",
        )
        # Batch mode: POST /v1/catalog fans a whole database out as one
        # job per table; the per-table jobs ride the same journal,
        # quarantine, idempotency and flight machinery as single jobs.
        self.catalogs = CatalogManager(
            jobs=self.jobs, registry=self.registry, tracer=self.tracer,
        )
        # Crash recovery: journal replay already marked the previous
        # process's in-flight jobs INTERRUPTED; under --recover resubmit,
        # re-run the ones whose submit records carried a payload.
        if journal_dir is not None and recover == "resubmit":
            self._resubmit_interrupted()

    def _resubmit_interrupted(self) -> None:
        for rec in self.jobs.recovered_interrupted:
            wire = rec.get("payload")
            if not isinstance(wire, dict) or "relation" not in wire:
                continue  # journaled without payload: stays INTERRUPTED
            try:
                relation = relation_from_wire(wire.get("relation"))
                hyperparameters = Hyperparameters.from_payload(
                    wire.get("hyperparameters")
                )
                fingerprint = rec.get("key") or dataset_fingerprint(
                    relation, hyperparameters
                )
                timeout = rec.get("timeout")
                job = self.jobs.submit(
                    self._make_run(relation, hyperparameters, timeout, fingerprint),
                    timeout=timeout, key=fingerprint, payload=wire,
                )
            except (ProtocolError, QuarantinedError, QueueFullError, ValueError):
                continue  # unusable payload / poison key / full queue
            old = self.jobs.get(rec["job_id"])
            if old is not None:
                old.resubmitted_as = job.id
            self._n_resubmitted += 1
            self.registry.counter(
                "jobs_recovered_total",
                help="Interrupted jobs resubmitted from the journal at boot",
            ).inc()

    def close(self) -> None:
        # Cancel queued jobs (terminal CANCELLED, not forever-QUEUED) and
        # join the worker threads; cancel tokens make running pipelines
        # unwind at the next stage boundary, so the join is bounded.
        self.jobs.shutdown(wait=True, drain=False)
        if self._obs_sink is not None:
            self._obs_sink.close()
        faults.set_fault_observer(self._previous_fault_observer)

    # -- observability -----------------------------------------------------

    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started_monotonic

    def log_request(self, record: dict) -> None:
        """Forward one per-request log record to the event sinks."""
        if self._obs_sink is not None:
            self._obs_sink.emit({"type": "request", **record})
        self.flight.emit({"type": "request", **record})

    def _on_fault_fired(self, point: str) -> None:
        """Chaos faults show up in flight dumps as state transitions."""
        self.flight.record(
            "state", trace_id=current_trace_id(),
            event="fault.injected", point=point,
        )

    def _on_job_event(self, event: dict) -> None:
        """Job-manager failures land in the ring; worker crashes dump."""
        data = {k: v for k, v in event.items() if k != "trace_id"}
        self.flight.record("job", trace_id=event.get("trace_id"), **data)
        if event.get("event") == "job.quarantined":
            self.flight.trigger(
                "job.quarantined",
                trace_id=event.get("trace_id"),
                job_id=event.get("job_id"),
                attempt=event.get("attempt"),
                error=event.get("error"),
            )
            return
        if "WorkerCrashError" in (event.get("error_type") or "") \
                or "WorkerCrashError" in (event.get("error") or ""):
            self.flight.trigger(
                "worker_crash",
                trace_id=event.get("trace_id"),
                job_id=event.get("job_id"),
                error=event.get("error"),
            )

    def _on_session_event(self, event: dict) -> None:
        """Streaming-layer events: drift alert onsets trigger a dump."""
        data = {k: v for k, v in event.items() if k != "trace_id"}
        self.flight.record("state", trace_id=current_trace_id(), **data)
        if event.get("event") == "drift.alert":
            self.flight.trigger(
                "drift_alert",
                trace_id=current_trace_id(),
                session_id=event.get("session_id"),
                score=event.get("score"),
            )

    def record_error(self, endpoint: str, message: str) -> None:
        """Remember the most recent 5xx for ``/v1/statusz``."""
        with self._error_lock:
            self._last_error = {
                "ts": time.time(),
                "endpoint": endpoint,
                "message": message,
            }

    def last_error(self) -> dict | None:
        with self._error_lock:
            return dict(self._last_error) if self._last_error else None

    def _record_discovery(self, result: dict) -> None:
        """Pipeline telemetry shared by one-shot jobs and sessions; the
        discovery's duration is its result's sum of ``stage_seconds``."""
        diagnostics = result.get("diagnostics", {}) if isinstance(result, dict) else {}
        seconds = sum(diagnostics.get("stage_seconds", {}).values())
        self.registry.counter(
            "fdx_discoveries_total", help="Completed FDX discovery runs"
        ).inc()
        iterations = diagnostics.get("glasso_iterations", 0) or 0
        self.registry.counter(
            "fdx_glasso_iterations_total",
            help="Graphical-lasso proximal-Newton steps across all discoveries",
        ).inc(int(iterations))
        if not diagnostics.get("glasso_converged", True):
            self.registry.counter(
                "fdx_glasso_nonconverged_total",
                help="Discoveries whose graphical lasso stopped uncertified "
                "(KKT residual above tol)",
            ).inc()
        self.registry.histogram(
            "fdx_discover_seconds", help="End-to-end FDX discovery latency"
        ).observe(seconds)
        for reason, data in self.solver_health.observe(
            diagnostics.get("solver_health")
        ):
            self.flight.trigger(reason, trace_id=current_trace_id(), **data)
        chain = diagnostics.get("fallback_chain") or []
        # The chain always records the configured attempt; the ladder only
        # *engaged* when that attempt failed and a later rung answered.
        if diagnostics.get("degraded") or len(chain) > 1:
            self.flight.trigger(
                "fallback.engaged",
                trace_id=current_trace_id(),
                fallback_chain=chain,
                seconds=seconds,
            )

    # -- discovery ---------------------------------------------------------

    def discover_bytes(
        self, raw: bytes | None, idempotency_key: str | None = None
    ) -> tuple[int, dict]:
        """HTTP fast path: resolve a raw ``/v1/discover`` body.

        A byte-identical repeat of a cached request is answered from one
        SHA-256 of the body plus two cache lookups, without touching the
        JSON parser or building a :class:`Relation`. A repeat whose result
        was evicted or expired falls through to :meth:`discover`, which
        counts the request's one results-cache miss.
        """
        if not raw:
            raise ProtocolError("request body must be a JSON object")
        digest = hashlib.sha256(raw).hexdigest()
        fingerprint = self._body_index.get(digest)
        if fingerprint is not None:
            cached = self.cache.get(fingerprint, count_miss=False)
            if cached is not None:
                self.registry.counter("discover_cache_hits").inc()
                return 200, envelope(
                    {"cached": True, "fingerprint": fingerprint, "result": cached}
                )
        status, body = self.discover(decode_body(raw), idempotency_key=idempotency_key)
        if "fingerprint" in body:
            self._body_index.put(digest, body["fingerprint"])
        return status, body

    def discover(
        self, payload: Any, idempotency_key: str | None = None
    ) -> tuple[int, dict]:
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        relation = relation_from_wire(payload.get("relation"))
        try:
            # Reject unusable inputs at admission (400) instead of
            # burning a worker on a job that can only fail.
            validate_relation(relation)
        except InputValidationError as exc:
            raise ProtocolError(str(exc)) from exc
        hyperparameters = Hyperparameters.from_payload(payload.get("hyperparameters"))
        wait = payload.get("wait", True)
        if not isinstance(wait, bool):
            raise ProtocolError("'wait' must be a boolean")
        deadline = payload.get("deadline_seconds")
        if deadline is not None:
            if not isinstance(deadline, (int, float)) or isinstance(deadline, bool) \
                    or deadline <= 0:
                raise ProtocolError("'deadline_seconds' must be a positive number")
            deadline = float(deadline)

        fingerprint = dataset_fingerprint(relation, hyperparameters)
        cached = self.cache.get(fingerprint)
        if cached is not None:
            self.registry.counter("discover_cache_hits").inc()
            return 200, envelope(
                {"cached": True, "fingerprint": fingerprint, "result": cached}
            )
        self.registry.counter("discover_cache_misses").inc()

        # An idempotent retry of a submit whose response was lost (reset
        # mid-reply) reattaches to the job already doing the work.
        if idempotency_key:
            existing_id = self._idempotency.get(idempotency_key)
            existing = self.jobs.get(existing_id) if existing_id else None
            if existing is not None:
                self.registry.counter("idempotent_replays").inc()
                return self._job_reply(existing, fingerprint, wait, replayed=True)

        # Journal-enabled managers get the wire-form work description so
        # a crash-recovery boot can resubmit this job without the closure.
        journal_payload = None
        if self.jobs.journal is not None:
            journal_payload = {
                "relation": payload.get("relation"),
                "hyperparameters": payload.get("hyperparameters"),
            }
        try:
            job = self.jobs.submit(
                self._make_run(relation, hyperparameters, deadline, fingerprint),
                timeout=deadline, key=fingerprint, payload=journal_payload,
            )
        except (QuarantinedError, QueueFullError) as exc:
            return self._refused(exc)
        # Record the mapping *before* replying: if the reply is lost on
        # the wire, the client's retry must find the job, not re-run it.
        if idempotency_key:
            self._idempotency.put(idempotency_key, job.id)
        return self._job_reply(job, fingerprint, wait)

    def _refused(self, exc: QuarantinedError | QueueFullError) -> tuple[int, dict]:
        """Reply to a refused submit (discover or catalog): 409 or 429."""
        if isinstance(exc, QuarantinedError):
            self.registry.counter("requests_quarantined").inc()
            return 409, error_payload(str(exc), 409, reason="quarantined")
        self.registry.counter("requests_shed").inc()
        self.flight.record(
            "state", trace_id=current_trace_id(),
            event="load.shed", retry_after_seconds=exc.retry_after_seconds,
        )
        return 429, error_payload(str(exc), 429, retry_after=exc.retry_after_seconds)

    def _make_run(self, relation, hyperparameters, deadline, fingerprint):
        """The job body for one discovery (shared by submit and recovery)."""

        def run() -> dict:
            with self.tracer.span(
                "service.job", kind="discover", fingerprint=fingerprint,
                executor=self.jobs.executor_mode,
            ):
                if self.jobs.executor_mode == "process":
                    # Hard deadline: the worker process is terminated at
                    # the budget, not merely observed as late.
                    result = self.jobs.run_in_worker(
                        _discover_job_task, (relation, hyperparameters),
                        timeout=deadline or self.jobs.default_timeout,
                    )
                else:
                    result = _discover_job_task(relation, hyperparameters, self.tracer)
            self.cache.put(fingerprint, result)
            self._record_discovery(result)
            return result

        return run

    def _job_reply(
        self, job: Job, fingerprint: str, wait: bool, replayed: bool = False
    ) -> tuple[int, dict]:
        if not wait:
            return 202, envelope(
                {"job_id": job.id, "state": job.state, "fingerprint": fingerprint}
            )
        state = job.wait()
        if state == DONE:
            body = {
                "cached": False,
                "fingerprint": fingerprint,
                "job_id": job.id,
                "result": job.result,
            }
            if replayed:
                body["idempotent_replay"] = True
            return 200, envelope(body)
        return 500, error_payload(job.error or f"job ended in state {state}", 500)

    def catalog_submit(
        self, payload: Any, idempotency_key: str | None = None
    ) -> tuple[int, dict]:
        """POST /v1/catalog: plan one job per table of the named source."""
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        wait = payload.get("wait", False)
        if not isinstance(wait, bool):
            raise ProtocolError("'wait' must be a boolean")
        if idempotency_key:
            existing_id = self._idempotency.get(f"catalog:{idempotency_key}")
            existing = (
                self.catalogs.get(existing_id) if existing_id else None
            )
            if existing is not None:
                self.registry.counter("idempotent_replays").inc()
                if wait:
                    self.catalogs.wait(existing)
                status = self.catalogs.status(existing)
                status["idempotent_replay"] = True
                return (200 if status["complete"] else 202), envelope(status)
        try:
            with self.tracer.span(
                "catalog.submit", source=str(payload.get("source", {}))[:200],
            ):
                run = self.catalogs.submit(payload)
        except CatalogError as exc:
            return 400, error_payload(str(exc), 400)
        except (QuarantinedError, QueueFullError) as exc:
            return self._refused(exc)
        if idempotency_key:
            self._idempotency.put(f"catalog:{idempotency_key}", run.id)
        if wait:
            self.catalogs.wait(run)
        status = self.catalogs.status(run)
        return (200 if status["complete"] else 202), envelope(status)

    def catalog_status(self, catalog_id: str) -> tuple[int, dict]:
        """GET /v1/catalog/<id>: incremental completion, report at the end."""
        run = self.catalogs.get(catalog_id)
        if run is None:
            return 404, error_payload(f"unknown catalog {catalog_id!r}", 404)
        return 200, envelope(self.catalogs.status(run))

    def job_status(self, job_id: str) -> tuple[int, dict]:
        job = self.jobs.get(job_id)
        if job is None:
            return 404, error_payload(f"unknown job {job_id!r}", 404)
        return 200, envelope(job.to_dict())

    def cancel_job(self, job_id: str) -> tuple[int, dict]:
        job = self.jobs.get(job_id)
        if job is None:
            return 404, error_payload(f"unknown job {job_id!r}", 404)
        job.cancel()
        return 200, envelope(job.to_dict())

    @staticmethod
    def _explain_reply(
        scope: dict, evidence: Any, fd: str | None
    ) -> tuple[int, dict]:
        """Shared evidence-envelope shaping for jobs and sessions."""
        if not isinstance(evidence, dict):
            return 409, error_payload(
                "no evidence ledger recorded for this result "
                "(discovery ran with evidence disabled)", 409,
            )
        body = {**scope, "evidence": evidence}
        if fd:
            record = evidence_for_fd(evidence, fd)
            if record is None:
                return 404, error_payload(
                    f"no evidence record for FD {fd!r}; it was not emitted "
                    "(near-misses are listed in the full ledger)", 404,
                )
            body["fd"] = fd
            body["record"] = record
        return 200, envelope(body)

    def explain_job(self, job_id: str, fd: str | None = None) -> tuple[int, dict]:
        """``GET /v1/jobs/<id>/explain``: the job result's evidence ledger."""
        job = self.jobs.get(job_id)
        if job is None:
            return 404, error_payload(f"unknown job {job_id!r}", 404)
        if job.state != DONE or not isinstance(job.result, dict):
            return 409, error_payload(
                f"job {job_id!r} has no result to explain "
                f"(state {job.state!r})", 409,
            )
        evidence = job.result.get("diagnostics", {}).get("evidence")
        return self._explain_reply({"job_id": job_id}, evidence, fd)

    def explain_session(
        self, session_id: str, fd: str | None = None
    ) -> tuple[int, dict]:
        """``GET /v1/sessions/<id>/explain``: last refresh's annotated ledger.

        Answers straight from the session's stored ledger — no re-solve —
        including after a checkpoint restore.
        """
        evidence = self.sessions.explain(session_id)
        return self._explain_reply({"session_id": session_id}, evidence, fd)

    # -- sessions ----------------------------------------------------------

    def create_session(self, payload: Any) -> tuple[int, dict]:
        payload = payload if isinstance(payload, dict) else {}
        hyperparameters = Hyperparameters.from_payload(payload.get("hyperparameters"))
        session = self.sessions.create(hyperparameters)
        self.registry.counter("sessions_created").inc()
        return 201, envelope(session.to_dict())

    def session_info(self, session_id: str) -> tuple[int, dict]:
        return 200, envelope(self.sessions.get(session_id).to_dict())

    def append_batch(self, session_id: str, payload: Any) -> tuple[int, dict]:
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        batch = relation_from_wire(payload.get("relation"))
        info = self.sessions.append_batch(session_id, batch)
        self.registry.counter("session_batches").inc()
        self.registry.counter("session_rows").inc(batch.n_rows)
        return 200, envelope(info)

    def session_fds(self, session_id: str, force: bool = False) -> tuple[int, dict]:
        with self.tracer.span(
            "service.session_discover", session_id=session_id, force=force
        ):
            outcome = self.sessions.discover(session_id, force=force)
        self.registry.counter("session_discoveries").inc()
        payload = outcome.result.to_dict()
        if outcome.solved:
            self._record_discovery(payload)
        else:
            self.registry.counter("session_refreshes_debounced").inc()
        return 200, envelope(
            {
                "session_id": session_id,
                "result": payload,
                "refresh": outcome.to_dict(),
            }
        )

    def session_deltas(self, session_id: str, since: int = 0) -> tuple[int, dict]:
        return 200, envelope(self.sessions.deltas(session_id, since=since))

    def session_drift(self, session_id: str) -> tuple[int, dict]:
        return 200, envelope(self.sessions.drift(session_id))

    def checkpoint_session(self, session_id: str) -> tuple[int, dict]:
        self.registry.counter("session_checkpoints").inc()
        return 200, envelope(self.sessions.checkpoint(session_id))

    def reset_session(self, session_id: str) -> tuple[int, dict]:
        return 200, envelope(self.sessions.reset(session_id))

    def close_session(self, session_id: str) -> tuple[int, dict]:
        if not self.sessions.close(session_id):
            return 404, error_payload(f"unknown session {session_id!r}", 404)
        return 200, envelope({"session_id": session_id, "closed": True})

    # -- introspection -----------------------------------------------------

    def healthz(self) -> tuple[int, dict]:
        """Shallow liveness: the process answers. See ``statusz`` for depth."""
        return 200, envelope(
            {
                "status": "ok",
                "version": __version__,
                "uptime_seconds": self.uptime_seconds(),
            }
        )

    def debug_flight(self, limit: int | None = None) -> tuple[int, dict]:
        """``GET /v1/debug/flight``: the recorder's ring, no dump needed."""
        return 200, envelope(self.flight.snapshot(limit=limit))

    def storage_status(self) -> dict:
        """Aggregate health of every degradable disk writer."""
        writers = []
        if self.jobs.journal_writer is not None:
            writers.append(self.jobs.journal_writer.status())
        if self.sessions.checkpoint_dir:
            writers.append(self.sessions.writer.status())
        if self.flight.directory is not None:
            writers.append(self.flight.writer.status())
        if self._obs_sink is not None:
            writers.append(self._obs_sink.writer.status())
        degraded = [w["name"] for w in writers if w["state"] != "ok"]
        return {
            "status": "degraded" if degraded else "ok",
            "degraded_writers": degraded,
            "writers": writers,
        }

    def statusz(self) -> tuple[int, dict]:
        """Deep readiness for ``GET /v1/statusz``.

        Unlike ``healthz`` (which only proves the process is serving),
        this inspects the moving parts a load balancer or operator cares
        about: worker-pool saturation, queue backlog, cache efficacy,
        the last 5xx seen and per-endpoint SLO burn rates. Degraded
        state answers 503 while still carrying the full body, so probes
        can both gate traffic and show why.

        The ``storage`` check is *soft*: a sick disk marks the overall
        status degraded (writers are buffering in memory) but does not
        flip the HTTP answer to 503 — requests still succeed, so pulling
        the instance from the balancer would only lose the buffers.
        """
        jobs = self.jobs.stats()
        workers = jobs["workers"]
        saturation = jobs["running"] / workers if workers else 0.0
        # Backlog deeper than a few rounds of the pool means new work
        # would wait several full discovery latencies: not ready.
        backlogged = jobs["queue_depth"] >= workers * 4
        solver = self.solver_health.summary()
        storage = self.storage_status()
        checks = {
            "job_manager": "shutdown" if self.jobs.closed else "ok",
            "worker_pool": "backlogged" if backlogged else "ok",
            # Recent solver runs non-converging or ill-conditioned means
            # the answers themselves are suspect: degrade readiness.
            "solver": solver["status"],
            # Soft check: degraded storage buffers in memory, it does
            # not fail requests — degraded, not dead.
            "storage": storage["status"],
        }
        ready = all(
            state == "ok"
            for name, state in checks.items()
            if name != "storage"
        )
        status = "ok" if ready and storage["status"] == "ok" else "degraded"
        body = envelope(
            {
                "status": status,
                "version": __version__,
                "started_at": self.started_at,
                "uptime_seconds": self.uptime_seconds(),
                "checks": checks,
                "jobs": {**jobs, "saturation": saturation},
                "cache": self.cache.stats(),
                "sessions": self.sessions.stats(),
                "slo": self.slo.summary(),
                "solver": solver,
                "storage": storage,
                "flight": self.flight.stats(),
                "last_error": self.last_error(),
            }
        )
        return (200 if ready else 503), body

    def metrics_payload(self) -> tuple[int, dict]:
        """JSON ``/v1/metrics``: the registry's counters and latency histograms.

        Latencies are read from the same ``http_request_seconds``
        histograms the Prometheus form renders, so they cover the whole
        server lifetime at bucket resolution.
        """
        latency = {}
        for name, _, _, histograms in self.registry.collect():
            if name != REQUEST_SECONDS:
                continue
            for histogram in histograms:
                snap = histogram.snapshot()
                latency[dict(histogram.labels)["endpoint"]] = {
                    "count": snap["count"],
                    **{f"{q}_seconds": snap[q] for q in ("p50", "p95", "p99", "max")},
                }
        cache, jobs = self.cache.stats(), self.jobs.stats()
        return 200, envelope({
            "uptime_seconds": self.uptime_seconds(),
            "counters": self.registry.counter_values(),
            "latency": latency,
            "cache": cache,
            "cache_hit_rate": cache["hit_rate"],
            "jobs": jobs,
            "queue_depth": jobs["queue_depth"],
            "sessions": self.sessions.stats(),
        })

    def metrics_prometheus(self) -> str:
        """Text exposition for ``GET /v1/metrics?format=prometheus``."""
        gauge = self.registry.gauge
        jobs, sessions = self.jobs.stats(), self.sessions.stats()
        flight, solver = self.flight.stats(), self.solver_health.summary()
        for name, help_text, value in (
            ("service_uptime_seconds", "Seconds since service start",
             self.uptime_seconds()),
            ("jobs_queue_depth", "Jobs submitted but not yet running",
             jobs["queue_depth"]),
            ("jobs_running", "Jobs currently executing", jobs["running"]),
            ("jobs_workers", "Worker pool size", jobs["workers"]),
            ("sessions_active", "Open streaming sessions", sessions["active"]),
            ("streaming_drift_score",
             "Max drift score across sessions (last computed per session)",
             sessions["drift"]["max_score"]),
            ("streaming_drift_alerting",
             "Sessions whose last drift assessment crossed the threshold",
             sessions["drift"]["alerting"]),
            ("flight_events_total",
             "Events recorded by the flight recorder since start",
             flight["events_total"]),
            ("flight_buffer_fill", "Flight recorder ring occupancy (0..capacity)",
             flight["buffer_fill"]),
            ("flight_events_dropped_total",
             "Flight events evicted from the ring before any dump",
             flight["dropped_total"]),
            ("solver_recent_nonconverged_ratio",
             "Uncertified (KKT residual above tol) fraction of the recent "
             "solver-run window",
             solver["recent_nonconverged_ratio"]),
            ("jobs_quarantined_keys", "Work keys currently refused as quarantined",
             jobs["quarantined_keys"]),
        ):
            gauge(name, help=help_text).set(value)
        gauge("cache_entries", labels={"cache": "results"},
              help="Live cache entries").set(self.cache.stats()["entries"])
        for reason, count in flight["dumps_by_reason"].items():
            gauge(
                "flight_dumps_total", labels={"reason": reason},
                help="Flight-recorder dumps written, by trigger reason",
            ).set(count)
        for writer in self.storage_status()["writers"]:
            gauge(
                "storage_writer_degraded", labels={"writer": writer["name"]},
                help="1 when the named disk writer is buffering in memory",
            ).set(1 if writer["state"] != "ok" else 0)
            gauge(
                "storage_writer_buffered", labels={"writer": writer["name"]},
                help="Writes currently parked in memory awaiting disk recovery",
            ).set(writer["buffered"])
        self.slo.publish_burn_rates()
        return render_prometheus(self.registry)


# -- HTTP shim ---------------------------------------------------------------

class Request(NamedTuple):
    """What a route's call sees of one HTTP request."""

    id: str | None  # the path's ``<id>`` segment
    query: dict[str, list[str]]
    body: Any  # per the row's ``body``: decoded JSON, raw bytes or None
    key: str | None  # the Idempotency-Key header

    def param(self, name: str, default: str | None = None) -> str | None:
        return self.query.get(name, [default])[0]

    def int_param(self, name: str, default: int | None = None) -> int | None:
        raw = self.param(name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ProtocolError(f"'{name}' must be an integer, got {raw!r}") from None


class Route(NamedTuple):
    """One endpoint; dispatch, SLO tracking and the docs test read this row."""

    method: str
    path: str  # ``<id>`` matches any one segment
    name: str  # the ``endpoint`` label of metrics, logs and SLOs
    slo: SloObjective
    call: Callable[[DiscoveryService, Request], tuple[int, Any]]
    body: str | None = None  # "json" (decoded), "raw" (bytes) or None (unread)


def _metrics(service: DiscoveryService, request: Request) -> tuple[int, Any]:
    fmt = request.param("format", "json")
    if fmt == "prometheus":
        return 200, PlainText(service.metrics_prometheus())
    if fmt != "json":
        return 400, error_payload(
            f"unknown metrics format {fmt!r}; use json or prometheus", 400
        )
    return service.metrics_payload()


# Objectives several rows share: endpoints that run the pipeline get
# seconds, reads are expected to answer within milliseconds.
_SLO_5S = SloObjective(5.0, 0.05)
_SLO_1S = SloObjective(1.0, 0.05)
_SLO_250MS = SloObjective(0.25, 0.02)

#: The service's whole HTTP surface. Rows that share a name share an SLO.
ROUTES: tuple[Route, ...] = (
    Route("GET", "/v1/healthz", "healthz", SloObjective(0.1, 0.01),
          lambda s, r: s.healthz()),
    Route("GET", "/v1/statusz", "statusz", SloObjective(0.25, 0.01),
          lambda s, r: s.statusz()),
    Route("GET", "/v1/metrics", "metrics", _SLO_250MS, _metrics),
    Route("GET", "/v1/debug/flight", "debug_flight", _SLO_1S,
          lambda s, r: s.debug_flight(limit=r.int_param("limit"))),
    Route("POST", "/v1/discover", "discover", _SLO_5S,
          lambda s, r: s.discover_bytes(r.body, idempotency_key=r.key), body="raw"),
    Route("POST", "/v1/catalog", "catalog", _SLO_1S,
          lambda s, r: s.catalog_submit(r.body, idempotency_key=r.key), body="json"),
    Route("GET", "/v1/catalog/<id>", "catalog_status", _SLO_1S,
          lambda s, r: s.catalog_status(r.id)),
    Route("GET", "/v1/jobs/<id>", "jobs", _SLO_250MS, lambda s, r: s.job_status(r.id)),
    Route("DELETE", "/v1/jobs/<id>", "jobs", _SLO_250MS, lambda s, r: s.cancel_job(r.id)),
    Route("GET", "/v1/jobs/<id>/explain", "jobs_explain", _SLO_250MS,
          lambda s, r: s.explain_job(r.id, fd=r.param("fd"))),
    Route("POST", "/v1/sessions", "sessions", _SLO_250MS,
          lambda s, r: s.create_session(r.body), body="json"),
    Route("GET", "/v1/sessions/<id>", "sessions", _SLO_250MS,
          lambda s, r: s.session_info(r.id)),
    Route("DELETE", "/v1/sessions/<id>", "sessions", _SLO_250MS,
          lambda s, r: s.close_session(r.id)),
    Route("POST", "/v1/sessions/<id>/reset", "sessions", _SLO_250MS,
          lambda s, r: s.reset_session(r.id)),
    Route("POST", "/v1/sessions/<id>/batches", "session_batches", _SLO_1S,
          lambda s, r: s.append_batch(r.id, r.body), body="json"),
    Route("GET", "/v1/sessions/<id>/fds", "session_fds", _SLO_5S,
          lambda s, r: s.session_fds(
              r.id, force=r.param("force", "0") not in ("0", "false", ""))),
    Route("GET", "/v1/sessions/<id>/deltas", "session_deltas", _SLO_250MS,
          lambda s, r: s.session_deltas(r.id, since=r.int_param("since", 0))),
    Route("GET", "/v1/sessions/<id>/drift", "session_drift", _SLO_250MS,
          lambda s, r: s.session_drift(r.id)),
    Route("GET", "/v1/sessions/<id>/explain", "session_explain", _SLO_250MS,
          lambda s, r: s.explain_session(r.id, fd=r.param("fd"))),
    Route("POST", "/v1/sessions/<id>/checkpoint", "session_checkpoint", _SLO_1S,
          lambda s, r: s.checkpoint_session(r.id)),
)

_PATTERNS = [(route, route.path.split("/")[1:]) for route in ROUTES]


def match_route(method: str, path: str) -> tuple[Route | None, str | None]:
    """The row serving ``method path`` and its ``<id>`` segment, if any.

    Empty path segments are ignored. A known path under another method
    matches nothing, so it answers 404 like an unknown path.
    """
    parts = [part for part in path.split("/") if part]
    for route, pattern in _PATTERNS:
        if route.method == method and len(pattern) == len(parts) and all(
            want in (got, "<id>") for want, got in zip(pattern, parts)
        ):
            ids = [got for want, got in zip(pattern, parts) if want == "<id>"]
            return route, (ids[0] if ids else None)
    return None, None


def read_body(headers, rfile) -> bytes | None:
    """Read a request body by its ``Content-Length``.

    A bad length is a 400 and one above ``MAX_BODY_BYTES`` a 413; both
    raise before reading, so the body is left unread on the connection.
    """
    raw_length = headers.get("Content-Length") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        length = -1
    if length < 0:
        raise ProtocolError(f"bad Content-Length {raw_length!r}")
    if length > MAX_BODY_BYTES:
        raise ProtocolError(
            f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit",
            status=413,
        )
    return rfile.read(length) if length else None


def decode_body(raw: bytes | None) -> Any:
    """Decode a JSON request body; every failure is a 400, never a 500.

    ``ValueError`` covers malformed JSON and non-UTF-8 bytes; deeply
    nested arrays make the parser raise ``RecursionError``.
    """
    if not raw:
        return None
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"invalid JSON body: {exc}") from exc


def _make_handler(service: DiscoveryService, quiet: bool = True):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = f"repro-fdx/{__version__}"
        # Headers and body go out in two writes; with Nagle's algorithm
        # on, a kept-alive reply's body waits for the client's delayed ACK.
        disable_nagle_algorithm = True

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            # Default http.server stderr noise is replaced by one
            # structured JSONL line per request (see _route).
            pass

        def _call_route(self, method: str) -> tuple[str, int, Any]:
            """Match a row, read its body once, call it.

            A call that raises leaves the request labelled ``"?"``, like
            an unmatched path.
            """
            path, _, query = self.path.partition("?")
            route, path_id = match_route(method, path)
            if route is None:
                return "?", 404, error_payload(f"no route for {method} {self.path!r}", 404)
            body = None
            if route.body:
                try:
                    body = read_body(self.headers, self.rfile)
                except ProtocolError:
                    # The body is still unread: nothing after it on this
                    # connection can be parsed, so close it after the reply.
                    self.close_connection = True
                    raise
            if route.body == "json":
                body = decode_body(body)
            request = Request(
                path_id, parse_qs(query), body, self.headers.get("Idempotency-Key")
            )
            return route.name, *route.call(service, request)

        def _reply(self, status: int, body: dict | PlainText) -> None:
            if isinstance(body, PlainText):
                data = body.text.encode()
                content_type = body.content_type
            else:
                if isinstance(body.get("error"), dict):
                    # Error payloads carry the trace id inline so a client
                    # log line alone is enough to find the flight dump.
                    body["error"].setdefault("trace_id", self._trace_id)
                data = json.dumps(body, default=str).encode()
                content_type = "application/json"
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            self.send_header("X-Trace-Id", self._trace_id)
            if self.close_connection:
                self.send_header("Connection", "close")
            if status == 429 and isinstance(body, dict):
                retry_after = body.get("error", {}).get("retry_after_seconds")
                if retry_after is not None:
                    # Retry-After is integral seconds; round up so clients
                    # never come back before the estimate.
                    self.send_header("Retry-After", str(max(1, int(-(-retry_after // 1)))))
            self.end_headers()
            self.wfile.write(data)

        def _route(self, method: str) -> None:
            started = time.perf_counter()
            endpoint = "?"
            # Correlate everything this request triggers — spans in the
            # handler thread and in job workers — under one trace id,
            # honoring a caller-provided X-Trace-Id.
            self._trace_id = self.headers.get("X-Trace-Id") or new_trace_id()
            token = set_trace_id(self._trace_id)
            service.registry.counter("requests_total").inc()
            try:
                with service.tracer.span(
                    "http.request", method=method, path=self.path
                ) as request_span:
                    try:
                        endpoint, status, body = self._call_route(method)
                    except ProtocolError as exc:
                        service.registry.counter("errors_total").inc()
                        status, body = exc.status, error_payload(str(exc), exc.status)
                    except Exception as exc:  # noqa: BLE001 - never kill the thread
                        service.registry.counter("errors_total").inc()
                        status, body = 500, error_payload(
                            f"internal error: {type(exc).__name__}: {exc}", 500
                        )
                    # Chaos injection points (no-ops unless a FaultInjector
                    # is installed — i.e. only under the chaos test suite).
                    if faults.fires("http.reset"):
                        # Drop the connection without a response: clients see
                        # a reset, as if a proxy or the network ate the reply.
                        service.registry.counter("faults_injected").inc()
                        request_span.set_attributes(endpoint=endpoint, reset=True)
                        self.close_connection = True
                        return
                    if faults.fires("http.5xx"):
                        service.registry.counter("faults_injected").inc()
                        status, body = 500, error_payload(
                            "injected server error (chaos)", 500
                        )
                    request_span.set_attributes(endpoint=endpoint, status=status)
                disconnected = False
                try:
                    self._reply(status, body)
                except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
                    service.registry.counter("client_disconnects").inc()
                    disconnected = True
                duration = time.perf_counter() - started
                breached = False
                if not disconnected:
                    service.registry.histogram(
                        REQUEST_SECONDS, labels={"endpoint": endpoint},
                        help="HTTP request latency by endpoint",
                    ).observe(duration)
                    breached = service.slo.observe(endpoint, duration)
                # A degraded /v1/statusz also answers 503 but carries a
                # status body, not an error payload — don't record it.
                is_error = status >= 500 and isinstance(body, dict) and "error" in body
                if is_error:
                    service.record_error(
                        endpoint,
                        body.get("error", {}).get("message", "unknown error"),
                    )
                record = {
                    "ts": time.time(),
                    "trace_id": self._trace_id,
                    "method": method,
                    "path": self.path,
                    "endpoint": endpoint,
                    "status": status,
                    "duration_seconds": round(duration, 6),
                    "cache_hit": body.get("cached") if isinstance(body, dict) else None,
                }
                service.log_request(record)
                # Flight-recorder triggers come *after* the request's own
                # span/log events landed in the ring, so the dump carries
                # the offending request end-to-end.
                if is_error:
                    service.flight.trigger(
                        "http.5xx",
                        trace_id=self._trace_id,
                        endpoint=endpoint,
                        status=status,
                    )
                if breached and service.slo.burn_rate(endpoint) > 1.0:
                    # Error budget burning faster than it accrues; the
                    # recorder's per-reason debounce absorbs storms.
                    service.flight.trigger(
                        "slo.burn",
                        trace_id=self._trace_id,
                        endpoint=endpoint,
                        burn_rate=service.slo.burn_rate(endpoint),
                    )
                if not quiet:
                    print(json.dumps(record, separators=(",", ":")),
                          file=sys.stderr, flush=True)
            finally:
                reset_trace_id(token)

        def do_GET(self) -> None:  # noqa: N802
            self._route("GET")

        def do_POST(self) -> None:  # noqa: N802
            self._route("POST")

        def do_DELETE(self) -> None:  # noqa: N802
            self._route("DELETE")

    return Handler


class ServiceHandle:
    """A running server plus its lifecycle controls (mainly for tests)."""

    def __init__(self, server: ThreadingHTTPServer, service: DiscoveryService,
                 thread: threading.Thread) -> None:
        self.server = server
        self.service = service
        self.thread = thread

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def base_url(self) -> str:
        host = self.server.server_address[0]
        return f"http://{host}:{self.port}"

    def shutdown(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.service.close()
        self.thread.join(timeout=10.0)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def build_server(
    host: str = "127.0.0.1",
    port: int = 0,
    service: DiscoveryService | None = None,
    quiet: bool = True,
    **service_kwargs,
) -> tuple[ThreadingHTTPServer, DiscoveryService]:
    """Bind a server (port 0 = ephemeral) without starting its loop."""
    service = service or DiscoveryService(**service_kwargs)
    server = ThreadingHTTPServer((host, port), _make_handler(service, quiet=quiet))
    server.daemon_threads = True
    return server, service


def start_in_thread(
    host: str = "127.0.0.1", port: int = 0, **kwargs
) -> ServiceHandle:
    """Start a server on a daemon thread; returns a :class:`ServiceHandle`."""
    server, service = build_server(host=host, port=port, **kwargs)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return ServiceHandle(server, service, thread)


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    workers: int = 4,
    quiet: bool = False,
    **service_kwargs,
) -> int:
    """Blocking entry point used by ``python -m repro serve``; SIGINT or
    SIGTERM shuts the server down and returns 0. Call it from the main
    thread (it installs the signal handlers)."""
    try:
        server, service = build_server(
            host=host, port=port, workers=workers, quiet=quiet, **service_kwargs
        )
    except OSError as exc:
        print(f"cannot bind {host}:{port}: {exc}", file=sys.stderr)
        return 1

    def stop(signum, frame):
        raise KeyboardInterrupt  # ends serve_forever through the finally below

    # Both signals stop the server cleanly, even where SIGINT was inherited
    # ignored (a background job of a non-interactive shell). They are
    # handled before the address is printed, so a caller may signal as soon
    # as it reads it.
    signal.signal(signal.SIGINT, stop)
    signal.signal(signal.SIGTERM, stop)
    actual = server.server_address
    print(f"repro-fdx service v{__version__} listening on http://{actual[0]}:{actual[1]} "
          f"({workers} {service_kwargs.get('executor', 'thread')} workers)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
        service.close()
    return 0
