"""How the benchmark times work on a shared host.

Two things move a timing on a shared host besides the program:

* time the cores are taken away (other runnable work, steal): CPU time
  leaves it out, so operations are timed by :func:`cpu_seconds`, the CPU
  time of the caller's thread plus that of the server process;
* how fast a core runs while it is ours, which neighbours on the same
  physical machine change by up to half within seconds. :func:`probe`
  times a fixed kernel right before each timed piece of work, and
  :func:`scaled` converts a CPU time to the time it would have taken at
  the speed where the kernel takes :data:`PROBE_REFERENCE_SECONDS`.

The kernel is pure Python and small numpy calls, like the program, and
depends on nothing in ``src/``, so a change to the program cannot move it.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: Probe time that defines the reference speed (about the kernel's time on
#: a quiet core of the 2-core development host).
PROBE_REFERENCE_SECONDS = 0.005
_MATRIX = np.random.default_rng(0).standard_normal((64, 64))


def process_cpu_seconds(pid: int) -> float:
    """CPU seconds of all threads of process ``pid`` so far, to the
    nanosecond: Linux's per-process CPU clock, whose id is
    ``MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)``."""
    return time.clock_gettime(((~pid) << 3) | 2)


def cpu_seconds(server_pid: int | None = None) -> float:
    """CPU seconds of the calling thread, plus those of the server."""
    own = time.thread_time()
    return own if server_pid is None else own + process_cpu_seconds(server_pid)


def probe(repeats: int = 1) -> float:
    """CPU seconds of the fixed kernel (median of ``repeats`` runs)."""
    times = []
    for _ in range(repeats):
        t0 = time.thread_time()
        total = 0
        for i in range(100_000):
            total += i
        for _ in range(50):
            _MATRIX @ _MATRIX
        times.append(time.thread_time() - t0)
    return statistics.median(times)


def scaled(cpu: float, probe_seconds: float) -> float:
    """``cpu`` seconds, measured when the kernel took ``probe_seconds``,
    at the reference speed."""
    return cpu * PROBE_REFERENCE_SECONDS / probe_seconds


def pin_to_one_cpu() -> int:
    """Keep this process, and the processes it starts, on one CPU, so that
    the probe measures the core the work runs on. The closed loops never
    have two things to run at once, so one CPU costs them nothing."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
