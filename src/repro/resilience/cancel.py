"""Cooperative cancellation for long-running discovery work.

Python threads cannot be interrupted, so a timed-out or cancelled job
would otherwise keep burning a worker until its pipeline finishes. A
:class:`CancelToken` closes that gap cooperatively: the job manager sets
the token when a job is cancelled, the token's own deadline fires when
the job's budget runs out, and the FDX pipeline checks it at stage
boundaries (and the graphical lasso at every outer iteration), raising
:class:`CancelledError` so the worker frees up within one
stage/iteration instead of one full discovery.

The current token travels through a :mod:`contextvars` variable — the
same mechanism the observability trace id uses — so the pipeline does
not need the token threaded through every call signature, and tokens
propagate into job worker threads via the context copy the job manager
already performs.
"""

from __future__ import annotations

import contextvars
import threading
import time

from ..errors import ReproError

__all__ = [
    "CancelToken",
    "CancelledError",
    "current_cancel_token",
    "set_current_cancel_token",
]


class CancelledError(ReproError):
    """The surrounding job was cancelled or timed out; unwind now."""


class CancelToken:
    """Thread-safe, one-way cancellation flag.

    ``set`` may be called from any thread (job manager, HTTP handler);
    workers poll via :meth:`raise_if_cancelled` at cheap intervals.
    ``reason`` records why (``"cancelled"``, ``"timeout"``, ...) for the
    error message. Once ``deadline`` (a :func:`time.monotonic` value, or
    None) passes, the token reads as set, with reason ``"timeout"``, so
    work stops at its deadline whether or not anyone watches it.
    """

    __slots__ = ("_event", "reason", "deadline")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason: str = "cancelled"
        self.deadline: float | None = None

    def set(self, reason: str = "cancelled") -> None:
        if not self._event.is_set():
            self.reason = reason
        self._event.set()

    def expired(self) -> bool:
        """True once the deadline has passed."""
        return self.deadline is not None and time.monotonic() > self.deadline

    def is_set(self) -> bool:
        if not self._event.is_set() and self.expired():
            self.set("timeout")
        return self._event.is_set()

    def raise_if_cancelled(self) -> None:
        if self.is_set():
            raise CancelledError(f"work abandoned: {self.reason}")


_CURRENT: contextvars.ContextVar[CancelToken | None] = contextvars.ContextVar(
    "repro_cancel_token", default=None
)


def current_cancel_token() -> CancelToken | None:
    """The cancellation token governing the calling context, if any."""
    return _CURRENT.get()


def set_current_cancel_token(token: CancelToken | None) -> contextvars.Token:
    """Install ``token`` for the current context; returns the reset token."""
    return _CURRENT.set(token)
