"""Deterministic fault injection for chaos testing.

A :class:`FaultInjector` is a seeded plan of failures keyed by *injection
point* — a short string naming a place in the product code that asks
"should I fail here?" via :func:`fires` / :func:`maybe_raise`. When no
injector is installed (the production default) those hooks are a single
``None`` check, so the instrumented code pays nothing.

Built-in injection points
-------------------------
=========================  ==================================================
``http.reset``             the HTTP handler closes the TCP connection without
                           writing a response (client sees a connection reset)
``http.5xx``               the handler replaces a computed response with a 500
``job.worker``             the job worker raises :class:`InjectedFault` before
                           running the job body (a simulated worker crash)
``glasso.nonconverge``     structure learning treats the graphical lasso as
                           having hit ``max_iter`` (``converged=False``),
                           exercising the FDX fallback ladder
``catalog.table``          one catalog table job raises :class:`InjectedFault`
                           before its table runs — proves a single-table
                           failure becomes a per-table error record, never
                           a sweep abort. Fires in the parent's job, before
                           any child starts, so ``times=1`` fails exactly
                           one table whatever the sweep's worker count
``parallel.worker_crash``  a ``run_in_process`` child dies hard
                           (``os._exit(3)``) before running its job —
                           exercises ``WorkerCrashError`` surfacing in the
                           process job runner.
                           Fork-started workers inherit the installed
                           injector; spawn-started workers do not, so chaos
                           tests force the fork start method.
``disk.enospc``            a durable writer (job journal, session
                           checkpoint, flight dump, obs JSONL sink) fails
                           with ``OSError(ENOSPC)`` — exercises the
                           :class:`~repro.resilience.degrade.DegradableWriter`
                           buffering/backoff path and the ``storage``
                           readiness check
``disk.eio``               same writers, ``OSError(EIO)`` — a sick device
                           rather than a full one
=========================  ==================================================

Plans are deterministic: ``inject(point, times=3)`` fires on exactly the
first three arrivals at that point (after ``after`` skipped arrivals),
and probabilistic plans draw from the injector's seeded RNG under a
lock, so a given seed yields one reproducible fault sequence per point.

Usage (the chaos suite's shape)::

    with FaultInjector(seed=7).inject("http.5xx", times=2).install():
        client.discover(relation)   # client retries through the burst
"""

from __future__ import annotations

import errno as _errno
import os as _os
import random
import threading
from dataclasses import dataclass, field

from ..errors import ReproError

__all__ = [
    "FaultInjector",
    "InjectedFault",
    "active_injector",
    "fires",
    "maybe_raise",
    "maybe_raise_disk",
    "set_fault_observer",
]


class InjectedFault(ReproError):
    """A failure raised on purpose by an installed :class:`FaultInjector`."""

    def __init__(self, point: str, message: str | None = None) -> None:
        super().__init__(message or f"injected fault at {point!r}")
        self.point = point


@dataclass
class _Plan:
    times: int | None = None     # total firings allowed (None = unlimited)
    probability: float = 1.0
    after: int = 0               # arrivals to let through before arming
    seen: int = 0
    fired: int = 0


class FaultInjector:
    """Seeded, thread-safe fault plan; one instance per chaos scenario."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._plans: dict[str, _Plan] = {}
        self._lock = threading.Lock()

    def inject(
        self,
        point: str,
        *,
        times: int | None = 1,
        probability: float = 1.0,
        after: int = 0,
    ) -> "FaultInjector":
        """Arm ``point``; returns ``self`` so plans chain fluently."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if times is not None and times < 0:
            raise ValueError(f"times must be >= 0, got {times}")
        if after < 0:
            raise ValueError(f"after must be >= 0, got {after}")
        with self._lock:
            self._plans[point] = _Plan(times=times, probability=probability, after=after)
        return self

    def fires(self, point: str) -> bool:
        """One arrival at ``point``: does the plan say to fail it?"""
        with self._lock:
            plan = self._plans.get(point)
            if plan is None:
                return False
            plan.seen += 1
            if plan.seen <= plan.after:
                return False
            if plan.times is not None and plan.fired >= plan.times:
                return False
            if plan.probability < 1.0 and self._rng.random() >= plan.probability:
                return False
            plan.fired += 1
            return True

    def counts(self) -> dict[str, dict[str, int]]:
        """Arrivals and firings per point (chaos-suite assertions)."""
        with self._lock:
            return {
                point: {"seen": plan.seen, "fired": plan.fired}
                for point, plan in self._plans.items()
            }

    # -- global installation ----------------------------------------------

    def install(self) -> "FaultInjector":
        """Make this the process-wide injector; use as a context manager."""
        global _INSTALLED
        with _INSTALL_LOCK:
            if _INSTALLED is not None:
                raise RuntimeError("another FaultInjector is already installed")
            _INSTALLED = self
        return self

    def uninstall(self) -> None:
        global _INSTALLED
        with _INSTALL_LOCK:
            if _INSTALLED is self:
                _INSTALLED = None

    def __enter__(self) -> "FaultInjector":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


_INSTALLED: FaultInjector | None = None
_INSTALL_LOCK = threading.Lock()
#: Optional observer called as ``observer(point)`` each time a fault
#: actually fires — the service points the flight recorder here so chaos
#: events show up in dumps. Must not raise (errors are swallowed).
_OBSERVER = None


def set_fault_observer(observer):
    """Install a fired-fault observer; returns the previous one."""
    global _OBSERVER
    previous = _OBSERVER
    _OBSERVER = observer
    return previous


def active_injector() -> FaultInjector | None:
    """The installed injector, or None (the production default)."""
    return _INSTALLED


def fires(point: str) -> bool:
    """Hot-path hook: False unless an installed injector says otherwise."""
    injector = _INSTALLED
    if injector is None:
        return False
    fired = injector.fires(point)
    if fired and _OBSERVER is not None:
        try:
            _OBSERVER(point)
        except Exception:
            pass
    return fired


def maybe_raise(point: str, message: str | None = None) -> None:
    """Raise :class:`InjectedFault` when the installed plan fires."""
    if fires(point):
        raise InjectedFault(point, message)


#: Disk fault points and the errno a firing produces. Raised as plain
#: ``OSError`` (not :class:`InjectedFault`) so the degradation policy in
#: :mod:`repro.resilience.degrade` sees exactly what a real full or sick
#: disk would produce.
_DISK_POINTS = (
    ("disk.enospc", _errno.ENOSPC),
    ("disk.eio", _errno.EIO),
)


def maybe_raise_disk(context: str) -> None:
    """Raise ``OSError(ENOSPC)`` / ``OSError(EIO)`` when a disk plan fires.

    ``context`` names the writer for the error message (``"journal"``,
    ``"checkpoint"``, ``"flight"``, ``"obs_jsonl"``). Instrumented write
    paths call this just before touching the filesystem.
    """
    if _INSTALLED is None:
        return
    for point, code in _DISK_POINTS:
        if fires(point):
            raise OSError(code, _os.strerror(code), context)
