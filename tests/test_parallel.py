"""Unit tests for repro.parallel's process runner.

:func:`run_in_process` must turn a dead child into a typed error.
"""

import os
import signal

import pytest

from repro.errors import TaskTimeoutError, WorkerCrashError
from repro.obs import MetricsRegistry
from repro.parallel import run_in_process


# Process jobs must be picklable -> module level.
def _square(x):
    return x * x


def _die(x):
    os._exit(3)


def _sigterm_is_default():
    return signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


# -- crash --------------------------------------------------------------------

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


# -- signals --------------------------------------------------------------------

def test_worker_ends_on_sigterm_under_a_parent_handler():
    """`repro serve` handles SIGTERM as a clean shutdown; a forked worker
    inherits that handler but must still die on the teardown's SIGTERM."""
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
    try:
        assert run_in_process(_sigterm_is_default) is True
    finally:
        signal.signal(signal.SIGTERM, previous)
