"""Streaming discovery sessions wrapping :class:`IncrementalFDX`.

A session is server-side accumulated state: clients POST row batches and
GET refreshed FDs without ever resending earlier data — the service holds
only the O(p^2) second-moment statistics, not the rows. Sessions are
identified by opaque ids, capped in number, and expired after an idle
TTL so abandoned clients cannot leak state.

PR 6 split each session into a *stateful* accumulator and a *stateless*
solve, held apart by two locks:

* ``lock`` guards the mutable state (engine, changelog, drift window,
  cached result) and is only ever held for O(p²) bookkeeping — never
  across a solve. Appends therefore never wait on a refresh.
* ``solve_lock`` serializes refreshes: the holder snapshots under
  ``lock``, releases it, runs the glasso pipeline on the immutable
  :class:`~repro.core.incremental.StreamStats` copy, then re-acquires
  ``lock`` just long enough to publish the result, advance the
  changelog, and stash the precision matrix for the next warm start.

Around that core ride the :mod:`repro.streaming` pieces: a versioned FD
changelog (``/deltas``), a covariance-shift drift detector fed from each
batch's own second moment, a rows-based refresh debounce, and atomic
per-session checkpoints so a restarted server picks its sessions back up.
"""

from __future__ import annotations

import threading
import time
import uuid

import numpy as np

from ..core.fdx import FDXResult
from ..core.incremental import IncrementalFDX
from ..dataset.relation import Relation
from ..errors import InputValidationError
from ..obs.explain import annotate_evidence
from ..obs.registry import MetricsRegistry
from ..obs.trace import Tracer
from ..streaming import (
    ChangeLog,
    DriftDetector,
    DriftStatus,
    RefreshOutcome,
    RefreshPolicy,
    checkpoint_path,
    delete_checkpoint,
    list_checkpoints,
    read_checkpoint,
    refresh_solve,
    write_checkpoint,
)
from ..resilience.degrade import DegradableWriter
from .protocol import Hyperparameters, ProtocolError


class SessionError(ProtocolError):
    """Session-level failure (unknown id, capacity); maps to HTTP 4xx."""


class Session:
    """One streaming-discovery conversation."""

    def __init__(self, session_id: str, hyperparameters: Hyperparameters) -> None:
        self.id = session_id
        self.hyperparameters = hyperparameters
        self.engine = IncrementalFDX(
            lam=hyperparameters.lam,
            sparsity=hyperparameters.sparsity,
            ordering=hyperparameters.ordering,
            shrinkage=hyperparameters.shrinkage,
            min_batch_rows=hyperparameters.min_batch_rows,
            decay=hyperparameters.decay,
            seed=hyperparameters.seed,
        )
        self.created_at = time.time()
        self.last_used = time.monotonic()
        self.n_appends = 0
        #: Guards mutable state; held only for O(p²) bookkeeping.
        self.lock = threading.Lock()
        #: Serializes refreshes; the solve itself runs with no lock held.
        self.solve_lock = threading.Lock()
        self.changelog = ChangeLog()
        self.drift = DriftDetector(threshold=hyperparameters.drift_threshold)
        self.policy = RefreshPolicy(
            refresh_every_rows=hyperparameters.refresh_every_rows
        )
        #: Published by the most recent refresh (all guarded by ``lock``).
        self.last_result: FDXResult | None = None
        self.last_precision: np.ndarray | None = None
        self.solved_rows = 0
        self.last_drift: DriftStatus | None = None
        #: Streak/drift-annotated evidence ledger of the last solve.
        #: Persisted in checkpoints (unlike ``last_result``) so a
        #: restored session answers ``explain`` without a re-solve.
        self.last_evidence: dict | None = None

    def touch(self) -> None:
        self.last_used = time.monotonic()

    # -- streaming ----------------------------------------------------------

    def append(self, batch: Relation) -> dict:
        """Consume one batch under the state lock (never waits on a solve)."""
        with self.lock:
            update = self.engine.add_batch(batch)
            if update is not None:
                self.drift.update(update.outer, update.n_samples)
            self.n_appends += 1
            return self._describe_locked()

    def refresh(
        self,
        force: bool = False,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        event_hook=None,
    ) -> RefreshOutcome:
        """Serve the current FD set, re-solving when the policy says so.

        Raises ``RuntimeError`` when the session has not accumulated
        enough rows to solve at all.
        """
        with self.solve_lock:
            with self.lock:
                rows_since = self.engine.n_rows_seen - self.solved_rows
                if not self.policy.due(
                    rows_since, self.last_result is not None, force=force
                ):
                    # Debounced: serve the cached result untouched.
                    return RefreshOutcome(
                        result=self.last_result,
                        solved=False,
                        warm=False,
                        seconds=0.0,
                        n_rows_seen=self.solved_rows,
                    )
                stats = self.engine.snapshot(flush=True)  # may raise RuntimeError
                warm_start = self.last_precision
            # The expensive part: NO lock held — appends land concurrently
            # and are picked up by the next refresh.
            outcome = refresh_solve(
                stats,
                lam=self.hyperparameters.lam,
                sparsity=self.hyperparameters.sparsity,
                ordering=self.hyperparameters.ordering,
                shrinkage=self.hyperparameters.shrinkage,
                warm_start=warm_start,
                tracer=tracer,
                metrics=metrics,
                event_hook=event_hook,
            )
            with self.lock:
                self.last_result = outcome.result
                self.last_precision = np.asarray(outcome.result.precision, dtype=float)
                self.solved_rows = stats.n_rows_seen
                record = self.changelog.record(
                    outcome.result.fds, n_rows_seen=stats.n_rows_seen
                )
                self.last_drift = self.drift.status(stats.sum_outer, stats.n_samples)
                evidence = outcome.result.diagnostics.get("evidence")
                if isinstance(evidence, dict):
                    # Annotate with this refresh's stability streaks and
                    # drift score, and publish the annotated copy both to
                    # the result (what /fds returns) and to the explain
                    # store (what /explain and checkpoints read).
                    evidence = annotate_evidence(
                        evidence,
                        streaks=record.streaks,
                        drift_score=(
                            self.last_drift.score if self.last_drift else None
                        ),
                    )
                    outcome.result.diagnostics["evidence"] = evidence
                    self.last_evidence = evidence
            return outcome

    def drift_status(self) -> DriftStatus:
        """Fresh drift assessment (window vs the decayed accumulator)."""
        with self.lock:
            try:
                stats = self.engine.snapshot(flush=False)
            except RuntimeError:
                status = self.drift.status(None, 0.0)
            else:
                status = self.drift.status(stats.sum_outer, stats.n_samples)
            self.last_drift = status
            return status

    def reset(self) -> dict:
        with self.lock:
            self.engine.reset()
            self.drift.reset()
            self.n_appends = 0
            self.last_result = None
            self.last_precision = None
            self.solved_rows = 0
            self.last_drift = None
            self.last_evidence = None
            return self._describe_locked()

    # -- description --------------------------------------------------------

    def to_dict(self) -> dict:
        with self.lock:
            return self._describe_locked()

    def _describe_locked(self) -> dict:
        return {
            "session_id": self.id,
            "created_at": self.created_at,
            "hyperparameters": self.hyperparameters.to_dict(),
            "n_appends": self.n_appends,
            "n_rows_seen": self.engine.n_rows_seen,
            "n_batches": self.engine.n_batches,
            "n_pair_samples": self.engine.n_pair_samples,
            "changelog_version": self.changelog.version,
            "n_fds": len(self.changelog.current_fds),
            "solved_rows": self.solved_rows,
            "drift": self.last_drift.to_dict() if self.last_drift else None,
        }

    # -- checkpointing ------------------------------------------------------

    def checkpoint_payload(self) -> dict:
        """JSON-serializable state for :mod:`repro.streaming.checkpoint`."""
        with self.lock:
            return {
                "hyperparameters": self.hyperparameters.to_dict(),
                "created_at": self.created_at,
                "n_appends": self.n_appends,
                "solved_rows": self.solved_rows,
                "engine": self.engine.state_dict(),
                "changelog": self.changelog.to_dict(),
                "drift": self.drift.to_dict(),
                "last_precision": (
                    self.last_precision.tolist()
                    if self.last_precision is not None
                    else None
                ),
                # The evidence ledger is plain JSON and small (O(FDs));
                # persisting it lets a restored session explain its last
                # answer without re-running the solver.
                "last_evidence": self.last_evidence,
            }

    @classmethod
    def from_checkpoint(cls, session_id: str, payload: dict) -> "Session":
        """Rebuild a session from a checkpoint payload.

        The cached :class:`FDXResult` is deliberately *not* persisted:
        the first FD read after a restart re-solves, warm-started from
        the restored precision matrix — the changelog then diffs against
        the restored FD set, so restarts do not fake churn.
        """
        hyperparameters = Hyperparameters.from_payload(
            payload.get("hyperparameters")
        )
        session = cls(session_id, hyperparameters)
        session.created_at = float(payload.get("created_at", session.created_at))
        session.n_appends = int(payload.get("n_appends", 0))
        session.solved_rows = int(payload.get("solved_rows", 0))
        engine_state = payload.get("engine")
        if isinstance(engine_state, dict):
            session.engine.load_state(engine_state)
        changelog = payload.get("changelog")
        if isinstance(changelog, dict):
            session.changelog = ChangeLog.from_dict(changelog)
        drift = payload.get("drift")
        if isinstance(drift, dict):
            session.drift = DriftDetector.from_dict(drift)
        precision = payload.get("last_precision")
        if precision is not None:
            session.last_precision = np.asarray(precision, dtype=float)
        evidence = payload.get("last_evidence")
        if isinstance(evidence, dict):
            session.last_evidence = evidence
        return session


class SessionManager:
    """Create, look up, persist, and expire streaming sessions (thread-safe)."""

    def __init__(
        self,
        max_sessions: int = 256,
        ttl_seconds: float = 1800.0,
        checkpoint_dir: str | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        event_hook=None,
    ) -> None:
        self.max_sessions = max_sessions
        self.ttl_seconds = ttl_seconds
        self.checkpoint_dir = checkpoint_dir
        self._registry = registry
        self._tracer = tracer
        #: Optional callable receiving streaming event dicts (drift alert
        #: onsets, refresh solves), tagged with the session id; the
        #: service points the flight recorder here.
        self.event_hook = event_hook
        self._sessions: dict[str, Session] = {}
        self._lock = threading.Lock()
        self.created = 0
        self.expired = 0
        self.restored = 0
        self.checkpoint_failures = 0
        #: Storage degradation policy for checkpoint persists: an
        #: ENOSPC/EIO write parks the payload (keyed per session, latest
        #: wins) and retries with backoff on the next persist, instead of
        #: silently bumping a counter and losing the checkpoint.
        self.writer = DegradableWriter(
            "checkpoints", registry=registry, max_buffered=64
        )
        if checkpoint_dir:
            self._restore_checkpoints()

    def _session_event(self, session_id: str, event: dict) -> None:
        hook = self.event_hook
        if hook is not None:
            try:
                hook({"session_id": session_id, **event})
            except Exception:
                pass

    def _wire_events(self, session: Session) -> None:
        """Point the session's drift detector at the manager's hook."""
        session.drift.event_hook = (
            lambda event, sid=session.id: self._session_event(sid, event)
        )

    # -- lifecycle ----------------------------------------------------------

    def create(self, hyperparameters: Hyperparameters | None = None) -> Session:
        try:
            session = Session(
                f"sess-{uuid.uuid4().hex[:16]}", hyperparameters or Hyperparameters()
            )
        except ValueError as exc:  # e.g. decay outside (0, 1]
            raise SessionError(f"bad hyperparameters: {exc}") from exc
        self._wire_events(session)
        with self._lock:
            self._sweep_locked()
            if len(self._sessions) >= self.max_sessions:
                raise SessionError(
                    f"session capacity reached ({self.max_sessions})", status=429
                )
            self._sessions[session.id] = session
            self.created += 1
        self._persist(session)
        return session

    def get(self, session_id: str) -> Session:
        with self._lock:
            self._sweep_locked()
            session = self._sessions.get(session_id)
            if session is not None:
                # Touch while still holding the manager lock: a get()
                # racing the sweep must not resurrect-after-expiry.
                session.touch()
        if session is None:
            raise SessionError(f"unknown session {session_id!r}", status=404)
        return session

    def close(self, session_id: str) -> bool:
        with self._lock:
            existed = self._sessions.pop(session_id, None) is not None
        if existed and self.checkpoint_dir:
            delete_checkpoint(self.checkpoint_dir, session_id)
        return existed

    def _sweep_locked(self) -> None:
        now = time.monotonic()
        stale = [
            sid
            for sid, s in self._sessions.items()
            if now - s.last_used > self.ttl_seconds
        ]
        for sid in stale:
            del self._sessions[sid]
            self.expired += 1
            if self._registry is not None:
                self._registry.counter("sessions_expired").inc()
            if self.checkpoint_dir:
                delete_checkpoint(self.checkpoint_dir, sid)

    def __len__(self) -> int:
        with self._lock:
            # Idle expiry must not depend on request traffic: counting
            # sessions sweeps first, so monitors see decay too.
            self._sweep_locked()
            return len(self._sessions)

    # -- checkpointing ------------------------------------------------------

    def _persist(self, session: Session) -> None:
        if not self.checkpoint_dir:
            return
        payload = session.checkpoint_payload()
        try:
            written = self.writer.write(
                lambda: write_checkpoint(
                    self.checkpoint_dir, session.id, payload
                ),
                key=session.id,
            )
        except OSError:
            # Non-degradable write error (permissions, bad path):
            # checkpointing stays best-effort, as before.
            self.checkpoint_failures += 1
            return
        if written is None:
            # Parked by the degradation policy (disk full / EIO); the
            # latest payload per session is retried on the next persist.
            self.checkpoint_failures += 1

    def _restore_checkpoints(self) -> None:
        for session_id in list_checkpoints(self.checkpoint_dir):
            if len(self._sessions) >= self.max_sessions:
                break
            payload = read_checkpoint(self.checkpoint_dir, session_id)
            if payload is None:
                continue
            try:
                session = Session.from_checkpoint(session_id, payload)
            except (ProtocolError, ValueError, KeyError, TypeError):
                continue  # one corrupt checkpoint must not block startup
            self._wire_events(session)
            self._sessions[session.id] = session
            self.restored += 1

    def checkpoint(self, session_id: str) -> dict:
        """Force-persist one session now (``POST .../checkpoint``)."""
        if not self.checkpoint_dir:
            raise ProtocolError(
                "server has no checkpoint directory configured", status=409
            )
        session = self.get(session_id)
        payload = session.checkpoint_payload()
        written = self.writer.write(
            lambda: write_checkpoint(self.checkpoint_dir, session.id, payload),
            key=session.id,
        )
        if written is None:
            self.checkpoint_failures += 1
        return {
            "session_id": session.id,
            "path": checkpoint_path(self.checkpoint_dir, session.id),
            "changelog_version": session.changelog.version,
            # False when the storage degradation policy parked the write
            # (disk full / EIO); it retries on the next persist.
            "persisted": written is not None,
        }

    # -- operations --------------------------------------------------------

    def append_batch(self, session_id: str, batch: Relation) -> dict:
        session = self.get(session_id)
        try:
            info = session.append(batch)
        except InputValidationError as exc:  # a cell the transform cannot encode
            raise ProtocolError(str(exc)) from exc
        except ValueError as exc:  # e.g. schema mismatch
            raise ProtocolError(str(exc), status=409) from exc
        self._persist(session)
        return info

    def discover(self, session_id: str, force: bool = False) -> RefreshOutcome:
        session = self.get(session_id)
        try:
            outcome = session.refresh(
                force=force, tracer=self._tracer, metrics=self._registry,
                event_hook=(
                    lambda event, sid=session_id: self._session_event(sid, event)
                ),
            )
        except RuntimeError as exc:  # not enough data yet
            raise ProtocolError(str(exc), status=409) from exc
        if outcome.solved:
            self._persist(session)
        return outcome

    def deltas(self, session_id: str, since: int = 0) -> dict:
        session = self.get(session_id)
        with session.lock:
            records = session.changelog.since(since)
            return {
                "session_id": session.id,
                "since": since,
                "version": session.changelog.version,
                # Strictly greater than `since` ⇒ a gap exists when the
                # oldest retained record is newer than the cursor + 1.
                "earliest_version": session.changelog.earliest_version,
                "deltas": [record.to_dict() for record in records],
            }

    def drift(self, session_id: str) -> dict:
        session = self.get(session_id)
        return {"session_id": session.id, **session.drift_status().to_dict()}

    def explain(self, session_id: str) -> dict:
        """The last refresh's annotated evidence ledger (no re-solve).

        Raises 409 until a refresh has produced one; a checkpoint-restored
        session answers from the persisted ledger immediately.
        """
        session = self.get(session_id)
        with session.lock:
            evidence = session.last_evidence
        if evidence is None:
            raise SessionError(
                f"session {session_id!r} has no evidence yet; "
                "refresh FDs at least once (GET .../fds)", status=409,
            )
        return evidence

    def reset(self, session_id: str) -> dict:
        session = self.get(session_id)
        info = session.reset()
        self._persist(session)
        return info

    def stats(self) -> dict:
        with self._lock:
            # Sweeping here keeps `active` honest for statusz/metrics
            # even when no session endpoint has been hit in a while.
            self._sweep_locked()
            sessions = list(self._sessions.values())
            base = {
                "active": len(sessions),
                "max_sessions": self.max_sessions,
                "ttl_seconds": self.ttl_seconds,
                "created": self.created,
                "expired": self.expired,
                "restored": self.restored,
            }
        statuses = [s.last_drift for s in sessions if s.last_drift is not None]
        base["drift"] = {
            "max_score": max((st.score for st in statuses), default=0.0),
            "alerting": sum(1 for st in statuses if st.alert),
            "alerts_total": sum(s.drift.alerts_total for s in sessions),
        }
        if self.checkpoint_dir:
            base["checkpoint_dir"] = self.checkpoint_dir
            base["checkpoint_failures"] = self.checkpoint_failures
            base["storage"] = self.writer.status()
        return base
