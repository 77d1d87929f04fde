"""Refresh policy and the warm-started stateless solve.

A streaming session's FD set is recomputed by *refreshes*: the session
freezes its accumulated statistics into an immutable
:class:`~repro.core.incremental.StreamStats` snapshot (a cheap O(p²)
copy taken under the state lock) and :func:`refresh_solve` runs the full
glasso pipeline on that snapshot with **no lock held** — appends land
concurrently and are simply picked up by the next refresh.

Two knobs keep refreshes cheap:

* :class:`RefreshPolicy` debounces — with ``refresh_every_rows = N`` a
  refresh only actually solves once ≥ N new rows arrived since the last
  one (clients can always ``force`` past the debounce).
* Warm starts — the previous refresh's precision matrix is threaded into
  the solver as its ``Theta0`` initialization, so a refresh whose
  statistics barely moved converges in one or two outer sweeps.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

import numpy as np

from ..core.fdx import FDXResult
from ..core.incremental import StreamStats, discover_from_stats
from ..obs.registry import MetricsRegistry
from ..obs.trace import Tracer


@dataclass(frozen=True)
class RefreshPolicy:
    """When is a refresh worth actually solving?

    ``refresh_every_rows = 0`` (the default) disables debouncing: every
    FD read re-solves. A positive value only solves once that many new
    rows arrived since the last solve — in between, reads are served
    from the cached result.
    """

    refresh_every_rows: int = 0

    def __post_init__(self) -> None:
        if self.refresh_every_rows < 0:
            raise ValueError("refresh_every_rows must be >= 0")

    def due(self, rows_since_solve: int, have_result: bool, force: bool = False) -> bool:
        """Should this read trigger a solve?

        Always true with no cached result (there is nothing to serve
        otherwise) or with ``force``; otherwise governed by the row
        debounce.
        """
        if force or not have_result:
            return True
        if self.refresh_every_rows == 0:
            return True
        return rows_since_solve >= self.refresh_every_rows


@dataclass(frozen=True)
class RefreshOutcome:
    """What one refresh produced (or why it was skipped)."""

    result: FDXResult
    #: True when the solve actually ran; False when the cached result was
    #: served because the debounce said the statistics hadn't moved enough.
    solved: bool
    #: True when the solve was warm-started from a previous precision.
    warm: bool
    seconds: float
    #: Snapshot row watermark this result reflects (for debounce cursors).
    n_rows_seen: int

    def to_dict(self) -> dict:
        return {
            "solved": self.solved,
            "warm": self.warm,
            "seconds": self.seconds,
            "n_rows_seen": self.n_rows_seen,
        }


def refresh_solve(
    stats: StreamStats,
    lam: float = 0.02,
    sparsity: float = 0.05,
    ordering: str = "natural",
    shrinkage: float = 0.01,
    warm_start: np.ndarray | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    event_hook=None,
) -> RefreshOutcome:
    """Run the stateless solve on a snapshot, instrumented.

    This is the only place the streaming stack calls into the solver;
    callers must NOT hold any session lock — that is the whole point.
    ``event_hook`` receives one ``session.refresh`` event dict per solve
    (the service points it at the flight recorder); it must not raise.
    """
    warm = warm_start is not None
    span = contextlib.nullcontext() if tracer is None else tracer.span(
        "session.refresh",
        warm_start=warm,
        n_rows_seen=stats.n_rows_seen,
        n_batches=stats.n_batches,
    )
    t0 = time.perf_counter()
    with span:
        result = discover_from_stats(
            stats,
            lam=lam,
            sparsity=sparsity,
            ordering=ordering,
            shrinkage=shrinkage,
            warm_start=warm_start,
            tracer=tracer,
        )
    seconds = time.perf_counter() - t0
    if metrics is not None:
        metrics.counter(
            "session_refreshes_total",
            labels={"mode": "warm" if warm else "cold"},
            help="Streaming session refresh solves by start mode.",
        ).inc()
        metrics.histogram(
            "session_refresh_seconds",
            help="Latency of streaming refresh solves.",
        ).observe(seconds)
    if event_hook is not None:
        try:
            event_hook(
                {
                    "event": "session.refresh",
                    "warm": warm,
                    "seconds": seconds,
                    "n_rows_seen": stats.n_rows_seen,
                }
            )
        except Exception:
            pass
    return RefreshOutcome(
        result=result,
        solved=True,
        warm=warm,
        seconds=seconds,
        n_rows_seen=stats.n_rows_seen,
    )
