"""Unit tests for repro.parallel: the thread fan-out and the process runner.

:class:`ThreadExecutor` must return item-ordered results, raise typed
cancel/timeout errors and record metrics through the wired registry;
:func:`run_in_process` must turn a dead child into a typed error.
"""

import os
import threading
import time

import pytest

from repro.errors import ParallelExecutionError, TaskTimeoutError, WorkerCrashError
from repro.obs import MetricsRegistry
from repro.parallel import ThreadExecutor, run_in_process
from repro.resilience.cancel import CancelledError, CancelToken


# Process jobs must be picklable -> module level.
def _square(x):
    return x * x


def _slow_identity(x):
    time.sleep(0.2)
    return x


def _die(x):
    os._exit(3)


# -- map contract ------------------------------------------------------------

def test_map_preserves_item_order_on_every_backend():
    items = list(range(10))
    with ThreadExecutor(2, registry=MetricsRegistry()) as ex:
        assert ex.map(_square, items) == [x * x for x in items]


def test_map_records_metrics():
    registry = MetricsRegistry()
    with ThreadExecutor(2, registry=registry) as ex:
        ex.map(_square, range(5))
    labels = {"backend": "thread"}
    assert registry.counter("parallel_tasks_total", labels=labels).value == 5
    assert registry.histogram("parallel_worker_seconds", labels=labels).count == 5


def test_workers_must_be_positive():
    with pytest.raises(ValueError):
        ThreadExecutor(0)


# -- cancellation / timeout / crash -----------------------------------------

def test_pre_cancelled_token_aborts_before_any_task():
    token = CancelToken()
    token.set("client went away")
    with ThreadExecutor(2, registry=MetricsRegistry()) as ex:
        with pytest.raises(CancelledError):
            ex.map(_square, [1, 2], cancel_token=token)


def test_token_set_mid_map_abandons_pending_tasks():
    started = []

    def slow(x):
        started.append(x)
        return _slow_identity(x)

    token = CancelToken()
    timer = threading.Timer(0.1, token.set, args=("shutdown",))
    timer.start()
    try:
        with ThreadExecutor(1, registry=MetricsRegistry()) as ex:
            with pytest.raises(CancelledError):
                ex.map(slow, range(8), cancel_token=token)
    finally:
        timer.cancel()
    assert len(started) < 8


@pytest.mark.parametrize("backend", ["thread"])
def test_pool_timeout_is_typed(backend):
    with ThreadExecutor(2, registry=MetricsRegistry()) as ex:
        assert ex.backend == backend
        with pytest.raises(TaskTimeoutError) as excinfo:
            ex.map(_slow_identity, range(8), timeout=0.1)
        assert isinstance(excinfo.value, ParallelExecutionError)


def test_process_worker_death_surfaces_as_worker_crash_error():
    registry = MetricsRegistry()
    with pytest.raises(WorkerCrashError):
        run_in_process(_die, (1,), registry=registry)
    # Each job gets a fresh child: the next one runs normally.
    assert run_in_process(_square, (3,), registry=registry) == 9


def test_worker_crash_error_is_a_repro_error():
    from repro.errors import ReproError

    assert issubclass(WorkerCrashError, ReproError)
    assert issubclass(TaskTimeoutError, TimeoutError)
