"""Run one job in a dedicated worker process, cancellably.

The service's process-executor mode (:class:`repro.service.jobs.JobManager`
with ``executor="process"``) routes each FD job through
:func:`run_in_process`: the job function executes in a fresh child
process while the submitting thread supervises it, so a discovery that
pins the CPU for minutes no longer starves the GIL-bound HTTP threads.

Cancellation protocol
---------------------
The parent holds the job's :class:`~repro.resilience.CancelToken` (set
by ``DELETE /v1/jobs/<id>``, a deadline, or shutdown). Tokens are
thread-local state and cannot cross a process boundary, so the parent
relays cancellation as a sentinel over a one-way pipe:

1. cooperative — the child installs its *own* token as the current
   context token and a watcher thread sets it when the ``"cancel"``
   sentinel arrives, so the pipeline unwinds at its next stage check;
2. ``grace`` seconds later, ``terminate()`` (SIGTERM);
3. one more grace period, then ``kill()`` (SIGKILL).

Either way the child is joined and reaped before the caller sees
:class:`~repro.resilience.CancelledError` /
:class:`repro.errors.TaskTimeoutError` — no orphan processes.

A child that dies without reporting (killed externally, OOM, the
``parallel.worker_crash`` fault) surfaces as
:class:`repro.errors.WorkerCrashError` with its exit code; a child
whose exception cannot be pickled back surfaces as
:class:`repro.errors.RemoteTaskError` carrying the remote type name.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
from typing import Any, Callable, Mapping, Sequence

from ..errors import RemoteTaskError, TaskTimeoutError, WorkerCrashError
from ..obs.registry import MetricsRegistry, get_registry
from ..obs.sinks import ListSink
from ..obs.trace import (
    Tracer,
    current_trace_context,
    set_global_tracer,
    set_trace_context,
)
from ..resilience import faults
from ..resilience.cancel import CancelledError, CancelToken, set_current_cancel_token
from ..resilience.watchdog import Heartbeat, set_current_heartbeat

__all__ = ["POLL_INTERVAL", "preferred_start_method", "run_in_process"]

#: Default seconds to wait between cancellation escalation steps.
DEFAULT_GRACE = 2.0

#: Seconds between result/cancellation/deadline polls while supervising.
POLL_INTERVAL = 0.05


def preferred_start_method() -> str:
    """``fork`` where available (cheap, inherits numpy pages copy-on-write),
    else ``spawn`` (macOS/Windows default; see docs/PARALLEL.md caveats)."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _watch_for_cancel(conn: multiprocessing.connection.Connection,
                      token: CancelToken) -> None:
    """Child-side watcher: one sentinel read -> set the local token."""
    try:
        message = conn.recv()
    except (EOFError, OSError):
        return
    if message == "cancel":
        token.set("cancelled by parent")


def _child_main(fn: Callable[..., Any], args: tuple, kwargs: dict,
                cmd_recv: multiprocessing.connection.Connection,
                result_send: multiprocessing.connection.Connection,
                trace_ctx: tuple[str | None, str | None] | None = None,
                heartbeat_cell=None) -> None:
    """Entry point of the worker process.

    With a ``trace_ctx`` (the parent's ``(trace_id, parent_span_id)``),
    the child installs the remote trace context and an enabled global
    tracer — so ``fn``'s own instrumentation (e.g. the FDX pipeline
    picking up :func:`~repro.obs.trace.get_tracer`) is captured — opens
    a ``worker.job`` span linked to the submitting span, and ships the
    buffered span events back alongside the result (or exception).
    """
    if faults.fires("parallel.worker_crash"):
        os._exit(3)  # simulate an abrupt death (OOM kill / segfault)
    # A forked worker inherits its parent's handlers, and `repro serve`
    # turns SIGTERM into a clean shutdown; here SIGTERM must end the
    # worker at once, as the teardown's second step expects.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    token = CancelToken()
    set_current_cancel_token(token)
    if heartbeat_cell is not None:
        # The shared-memory cell the parent's watchdog is reading; beats
        # from the solver here are visible across the process boundary.
        set_current_heartbeat(Heartbeat(heartbeat_cell))
    watcher = threading.Thread(
        target=_watch_for_cancel, args=(cmd_recv, token),
        name="repro-cancel-watch", daemon=True,
    )
    watcher.start()
    buffer = ListSink()
    span_cm = None
    if trace_ctx is not None:
        tracer = Tracer(enabled=True, sinks=[buffer])
        set_global_tracer(tracer)
        set_trace_context(trace_ctx[0], trace_ctx[1])
        span_cm = tracer.span("worker.job", worker_pid=os.getpid())
    try:
        if span_cm is not None:
            with span_cm:
                result = fn(*args, **kwargs)
        else:
            result = fn(*args, **kwargs)
        payload = ("ok", result, buffer.events)
    except BaseException as exc:  # noqa: BLE001 - everything must be reported
        payload = ("exc", exc, buffer.events)
    try:
        result_send.send(payload)
    except Exception as exc:
        # Result or exception not picklable: report what we can.
        kind = payload[0]
        original = payload[1]
        try:
            result_send.send(("err", kind, type(original).__name__, str(original)))
        except Exception:
            os._exit(4)
    finally:
        result_send.close()


def _teardown(proc: multiprocessing.process.BaseProcess,
              cmd_send: multiprocessing.connection.Connection,
              grace: float) -> None:
    """Escalating stop: sentinel -> SIGTERM -> SIGKILL; always reap."""
    try:
        cmd_send.send("cancel")
    except (OSError, ValueError):
        pass
    proc.join(timeout=grace)
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=grace)
    if proc.is_alive():
        proc.kill()
        proc.join()


def run_in_process(
    fn: Callable[..., Any],
    args: Sequence[Any] = (),
    kwargs: Mapping[str, Any] | None = None,
    *,
    cancel_token: CancelToken | None = None,
    timeout: float | None = None,
    grace: float = DEFAULT_GRACE,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    heartbeat: Heartbeat | None = None,
) -> Any:
    """Execute ``fn(*args, **kwargs)`` in a child process and return its result.

    The calling thread blocks, polling the result pipe, the child's
    liveness, ``cancel_token`` and the ``timeout`` deadline every
    ~50 ms. ``fn``/``args``/``kwargs`` and the return value must be
    picklable (module-level functions).

    With an enabled ``tracer``, the current trace context travels to the
    child and its span buffer is re-adopted here, so the job's trace is
    stitched across the process boundary.
    """
    registry = registry if registry is not None else get_registry()
    trace_ctx = None
    if tracer is not None and tracer.enabled:
        trace_id, parent_id = current_trace_context()
        trace_ctx = (trace_id, parent_id)
    ctx = multiprocessing.get_context(preferred_start_method())
    cmd_recv, cmd_send = ctx.Pipe(duplex=False)      # parent -> child
    result_recv, result_send = ctx.Pipe(duplex=False)  # child -> parent
    proc = ctx.Process(
        target=_child_main,
        args=(fn, tuple(args), dict(kwargs or {}), cmd_recv, result_send,
              trace_ctx, heartbeat.raw if heartbeat is not None else None),
        name="repro-job-worker",
        daemon=True,
    )
    started = time.perf_counter()
    deadline = None if timeout is None else time.monotonic() + timeout
    proc.start()
    # These ends now live in the child; close the parent's copies so
    # EOF propagates correctly.
    cmd_recv.close()
    result_send.close()
    message: tuple | None = None
    try:
        while True:
            if result_recv.poll(POLL_INTERVAL):
                try:
                    message = result_recv.recv()
                except EOFError:
                    message = None
                break
            if cancel_token is not None and cancel_token.is_set():
                _teardown(proc, cmd_send, grace)
                raise CancelledError(
                    f"process job abandoned: {cancel_token.reason}"
                )
            if deadline is not None and time.monotonic() > deadline:
                _teardown(proc, cmd_send, grace)
                raise TaskTimeoutError(
                    f"process job exceeded its {timeout:.3f}s budget"
                )
            if not proc.is_alive():
                # Drain any message raced in between poll and death.
                if result_recv.poll(0):
                    try:
                        message = result_recv.recv()
                    except EOFError:
                        message = None
                break
        proc.join(timeout=grace)
        if proc.is_alive():  # pragma: no cover - result arrived, fn returned
            _teardown(proc, cmd_send, grace)
        if message is None:
            raise WorkerCrashError(
                f"worker process died with exit code {proc.exitcode} "
                "before returning a result"
            )
    finally:
        if proc.is_alive():  # safety net on any raise path
            _teardown(proc, cmd_send, grace)
        for conn in (cmd_send, result_recv):
            try:
                conn.close()
            except OSError:
                pass
        labels = {"backend": "process"}
        registry.counter(
            "parallel_tasks_total", labels=labels,
            help="Tasks executed by the parallel engine",
        ).inc()
        registry.histogram(
            "parallel_worker_seconds", labels=labels,
            help="Per-task worker execution time",
        ).observe(time.perf_counter() - started)

    kind = message[0]
    if kind in ("ok", "exc") and tracer is not None and len(message) >= 3:
        tracer.adopt(message[2])
    if kind == "ok":
        return message[1]
    if kind == "exc":
        raise message[1]
    # ("err", original_kind, type_name, str): unpicklable result/exception
    _, original_kind, type_name, text = message
    raise RemoteTaskError(
        f"worker {'result' if original_kind == 'ok' else 'exception'} "
        f"could not be returned: {type_name}: {text}"
    )
