"""Thread fan-out: an order-preserving, cancellable, traced ``map``.

:class:`ThreadExecutor` runs independent tasks on a
``ThreadPoolExecutor`` and returns their results in submission order.
The catalog sweep uses it to fan tables out (see
:mod:`repro.catalog.sweep`); discovery itself is one serial pipeline.

* **ordering** — ``map`` preserves item order.
* **cancellation** — the :class:`~repro.resilience.CancelToken` in the
  calling context (or one passed explicitly) is polled while waiting;
  a set token abandons pending tasks and raises
  :class:`~repro.resilience.CancelledError`.
* **timeouts** — ``timeout`` bounds the whole map call;
  :class:`repro.errors.TaskTimeoutError` is raised on expiry. Threads
  cannot be interrupted (documented stdlib limitation) and are
  abandoned.
* **observability** — every map emits a ``parallel.map`` span with one
  ``parallel.task`` child per item, and records
  ``parallel_tasks_total`` / ``parallel_worker_seconds`` (per task)
  into the wired :class:`~repro.obs.MetricsRegistry`. Each task runs in
  a copy of the submitting context, so its span nests under the map
  span although it closes on a pool thread.

:func:`preferred_start_method` and :data:`POLL_INTERVAL` are shared
with the supervised one-job-one-process runner in
:mod:`repro.parallel.worker`.
"""

from __future__ import annotations

import contextvars
import multiprocessing
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable, Iterable, Sequence

from ..errors import TaskTimeoutError
from ..obs.registry import MetricsRegistry, get_registry
from ..obs.trace import Tracer, get_tracer
from ..resilience.cancel import CancelledError, CancelToken, current_cancel_token

__all__ = ["POLL_INTERVAL", "ThreadExecutor", "preferred_start_method"]

#: Seconds between cancellation/deadline polls while waiting on tasks.
POLL_INTERVAL = 0.05


def preferred_start_method() -> str:
    """``fork`` where available (cheap, inherits numpy pages copy-on-write),
    else ``spawn`` (macOS/Windows default; see docs/PARALLEL.md caveats)."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _lane_task(
    tracer: Tracer, fn: Callable[[Any], Any], item: Any, index: int
) -> tuple[Any, float]:
    """Run one task under a ``parallel.task`` span and time it."""
    with tracer.span("parallel.task", index=index):
        t0 = time.perf_counter()
        result = fn(item)
        return result, time.perf_counter() - t0


class ThreadExecutor:
    """``ThreadPoolExecutor`` fan-out; tasks may be closures."""

    backend = "thread"

    def __init__(
        self,
        workers: int,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self._pool: ThreadPoolExecutor | None = None

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        *,
        timeout: float | None = None,
        cancel_token: CancelToken | None = None,
        label: str = "map",
    ) -> list[Any]:
        """Apply ``fn`` to every item; results in item order.

        The first task exception propagates (typed where the executor
        raises it: cancel, timeout); remaining tasks are abandoned.
        """
        items = list(items)
        token = cancel_token if cancel_token is not None else current_cancel_token()
        if token is not None:
            token.raise_if_cancelled()
        with self.tracer.span(
            "parallel.map", backend=self.backend, workers=self.workers,
            tasks=len(items), label=label,
        ):
            timed = self._map_timed(fn, items, timeout=timeout, token=token)
        self._record(len(items), [seconds for _, seconds in timed])
        return [result for result, _ in timed]

    def close(self) -> None:
        """Release the pool; the executor is reusable until closed."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ThreadExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _record(self, n_tasks: int, task_seconds: Sequence[float]) -> None:
        labels = {"backend": self.backend}
        self.registry.counter(
            "parallel_tasks_total", labels=labels,
            help="Tasks executed by the parallel engine",
        ).inc(n_tasks)
        histogram = self.registry.histogram(
            "parallel_worker_seconds", labels=labels,
            help="Per-task worker execution time",
        )
        for seconds in task_seconds:
            histogram.observe(seconds)

    def _submit(self, fn, item, index) -> Future:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-par"
            )
        # A fresh context copy per task: the worker thread sees the
        # submitting context (current span, trace id, cancel token), so
        # its parallel.task span nests under the parallel.map span.
        ctx = contextvars.copy_context()
        return self._pool.submit(ctx.run, _lane_task, self.tracer, fn, item, index)

    def _abort(self) -> None:
        # Threads cannot be killed: drop queued work and let running
        # tasks finish on their own.
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _map_timed(self, fn, items, timeout, token):
        deadline = None if timeout is None else time.monotonic() + timeout
        futures = [self._submit(fn, item, index) for index, item in enumerate(items)]
        out: list[tuple[Any, float]] = []
        try:
            for future in futures:
                while True:
                    if token is not None and token.is_set():
                        raise CancelledError(
                            f"parallel map abandoned: {token.reason}"
                        )
                    if deadline is not None and time.monotonic() > deadline:
                        raise TaskTimeoutError(
                            f"parallel map exceeded its {timeout:.3f}s budget "
                            f"after {len(out)}/{len(items)} tasks"
                        )
                    try:
                        out.append(future.result(timeout=POLL_INTERVAL))
                        break
                    except FutureTimeoutError:
                        continue
        except (CancelledError, TaskTimeoutError):
            for future in futures:
                future.cancel()
            self._abort()
            raise
        return out
