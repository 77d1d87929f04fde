"""Sampling profiler and per-stage time and memory accounting (stdlib only).

Three tools complete the performance-observability layer:

* :class:`SamplingProfiler` — a wall-clock sampling profiler. A daemon
  thread wakes at a configurable rate (``hz``), snapshots every Python
  thread's stack via :func:`sys._current_frames`, and aggregates the
  stacks into *collapsed* form (``frame;frame;...;leaf count``), the
  input format of Brendan Gregg's ``flamegraph.pl`` and of speedscope's
  collapsed importer. Unlike ``cProfile`` it never instruments the
  profiled code, so the glasso/factorization hot loops run at full
  speed and the profile answers *where wall time goes*, including time
  spent inside numpy calls (attributed to the Python frame that made
  them).
* :class:`MemoryTracker` — ``tracemalloc``-based per-stage peak-memory
  accounting. Each ``with tracker.stage("glasso"):`` block records the
  peak traced allocation above the level at stage entry; the pipeline
  stores the result in ``diagnostics["stage_bytes"]`` next to the
  existing ``stage_seconds``. Tracking is opt-in (``tracemalloc``
  itself costs a multiple of the untracked run); a disabled tracker
  hands out a shared no-op context, keeping the instrumented hot path
  within the <=5% disabled-overhead budget enforced by
  ``benchmarks/test_bench_obs.py``.
* :class:`StageClock` — the one stage timer of the pipeline. Each
  ``with clock.stage("glasso", "structure.glasso"):`` block opens the
  tracer span, enters the :class:`MemoryTracker` stage and adds its
  elapsed seconds to ``clock.seconds["glasso"]``, so spans,
  ``stage_seconds`` and ``stage_bytes`` come from one measurement.

Usage::

    from repro.obs import SamplingProfiler

    with SamplingProfiler(hz=200) as prof:
        expensive_work()
    prof.write("profile.collapsed")      # feed to flamegraph.pl
    for stack, n in prof.top(10):
        print(n, stack)
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
import time
import tracemalloc
from collections import Counter

from .trace import Tracer, get_tracer

__all__ = [
    "MemoryTracker",
    "SamplingProfiler",
    "StageClock",
]


def _frame_label(code) -> str:
    """``file.py:function`` label for one frame (flamegraph-friendly)."""
    return f"{os.path.basename(code.co_filename)}:{code.co_name}"


class SamplingProfiler:
    """Wall-clock sampling profiler over ``sys._current_frames``.

    Parameters
    ----------
    hz:
        Target sampling rate in samples/second. Each tick snapshots
        *all* threads, so the per-sample cost grows with thread count
        and stack depth; the default 100 Hz keeps overhead low while
        resolving stages down to a few milliseconds.
    max_depth:
        Stack frames kept per sample (innermost-out), bounding the cost
        of pathological recursion.
    all_threads:
        When False, only the thread that called :meth:`start` is
        sampled; when True (default), every live Python thread is,
        each under its own ``thread:<name>`` root frame.

    The profiler's own sampler thread is always excluded. Samples
    accumulate across ``start``/``stop`` cycles; :meth:`clear` resets.
    """

    def __init__(self, hz: float = 100.0, max_depth: int = 128,
                 all_threads: bool = True) -> None:
        if hz <= 0:
            raise ValueError("sampling rate must be positive")
        self.interval = 1.0 / hz
        self.max_depth = max_depth
        self.all_threads = all_threads
        self.n_samples = 0
        self._counts: Counter[tuple[str, ...]] = Counter()
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._sampler: threading.Thread | None = None
        self._target_ident: int | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._sampler is not None:
            raise RuntimeError("profiler is already running")
        self._target_ident = threading.get_ident()
        self._stop_event.clear()
        self._sampler = threading.Thread(
            target=self._sample_loop, name="repro-profiler", daemon=True
        )
        self._sampler.start()
        return self

    def stop(self) -> None:
        sampler = self._sampler
        if sampler is None:
            return
        self._stop_event.set()
        sampler.join(timeout=5.0)
        self._sampler = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()
            self.n_samples = 0

    # -- sampling ----------------------------------------------------------

    def _sample_loop(self) -> None:
        own = threading.get_ident()
        names = {t.ident: t.name for t in threading.enumerate()}
        while not self._stop_event.wait(self.interval):
            frames = sys._current_frames()
            stacks = []
            for ident, frame in frames.items():
                if ident == own:
                    continue
                if not self.all_threads and ident != self._target_ident:
                    continue
                stack = []
                depth = 0
                while frame is not None and depth < self.max_depth:
                    stack.append(_frame_label(frame.f_code))
                    frame = frame.f_back
                    depth += 1
                stack.reverse()  # root first, collapsed-stack order
                if self.all_threads:
                    if ident not in names:
                        names = {t.ident: t.name for t in threading.enumerate()}
                    thread_name = names.get(ident, f"thread-{ident}")
                    stack.insert(0, f"thread:{thread_name}")
                stacks.append(tuple(stack))
            with self._lock:
                for stack in stacks:
                    self._counts[stack] += 1
                self.n_samples += 1

    # -- output ------------------------------------------------------------

    def collapsed(self) -> dict[str, int]:
        """``{"root;frame;...;leaf": samples}`` aggregation."""
        with self._lock:
            return {";".join(stack): n for stack, n in self._counts.items()}

    def collapsed_lines(self) -> list[str]:
        """Collapsed-stack lines, most-sampled first (flamegraph input)."""
        collapsed = self.collapsed()
        return [
            f"{stack} {n}"
            for stack, n in sorted(collapsed.items(), key=lambda kv: (-kv[1], kv[0]))
        ]

    def write(self, path: str) -> int:
        """Write the collapsed profile to ``path``; returns sample count."""
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.collapsed_lines():
                fh.write(line + "\n")
        return self.n_samples

    def top(self, n: int = 10) -> list[tuple[str, int]]:
        """The ``n`` hottest leaf frames by self-sample count."""
        leaves: Counter[str] = Counter()
        with self._lock:
            for stack, count in self._counts.items():
                if stack:
                    leaves[stack[-1]] += count
        return leaves.most_common(n)


# -- per-stage memory accounting ---------------------------------------------

class _NullStage:
    """Shared, allocation-free context for the disabled tracker."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_STAGE = _NullStage()


class _Stage:
    """Context recording one stage's peak traced allocation."""

    __slots__ = ("_tracker", "_name", "_baseline")

    def __init__(self, tracker: "MemoryTracker", name: str) -> None:
        self._tracker = tracker
        self._name = name
        self._baseline = 0

    def __enter__(self) -> None:
        tracemalloc.reset_peak()
        self._baseline = tracemalloc.get_traced_memory()[0]
        return None

    def __exit__(self, *exc) -> bool:
        _, peak = tracemalloc.get_traced_memory()
        grew = max(0, peak - self._baseline)
        stages = self._tracker.stage_bytes
        stages[self._name] = stages.get(self._name, 0) + grew
        return False


class MemoryTracker:
    """Per-stage peak-memory accounting on top of ``tracemalloc``.

    ``stage_bytes[name]`` is the peak number of bytes the stage held
    *above its entry level* — i.e. the additional high-water mark the
    stage itself caused, which is what capacity planning needs (the
    covariance and glasso stages materialize O(p^2) temporaries that a
    simple before/after delta would miss because they are freed before
    stage exit). Stages with the same name accumulate.

    The tracker starts/stops ``tracemalloc`` itself unless tracing was
    already active (then it leaves ownership with the outer user).
    Disabled (`enabled=False`, the pipeline default) it hands out a
    shared no-op context — no tracemalloc import cost, no allocation.

    Not thread-safe by design: ``tracemalloc``'s peak counter is
    process-global, so concurrent stages would attribute each other's
    allocations. The pipeline runs stages sequentially per discovery.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.stage_bytes: dict[str, int] = {}
        self._started_tracing = False

    def start(self) -> "MemoryTracker":
        if self.enabled and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracing = True
        return self

    def stop(self) -> None:
        if self._started_tracing:
            tracemalloc.stop()
            self._started_tracing = False

    def __enter__(self) -> "MemoryTracker":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def stage(self, name: str):
        """Context manager accounting one named stage (no-op if disabled)."""
        if not self.enabled:
            return _NULL_STAGE
        return _Stage(self, name)


class StageClock:
    """One measurement per pipeline stage: span, memory and seconds.

    ``stage(key, span, **attributes)`` opens the tracer span ``span``,
    enters the memory tracker's stage ``key`` and, on exit, adds the
    elapsed wall seconds to ``seconds[key]``. The clock reads wrap the
    span, so a stage's seconds are never below its spans' durations.
    Entering a key again adds to it: a fallback-ladder run reports the
    work of every rung, not only the last one.
    """

    def __init__(self, tracer: Tracer | None = None,
                 memory: MemoryTracker | None = None) -> None:
        self.tracer = tracer if tracer is not None else get_tracer()
        self.memory = memory if memory is not None else MemoryTracker()
        self.seconds: dict[str, float] = {}

    @contextlib.contextmanager
    def stage(self, key: str, span: str, **attributes):
        started = time.perf_counter()
        try:
            with self.tracer.span(span, **attributes) as opened, \
                    self.memory.stage(key):
                yield opened
        finally:
            self.seconds[key] = (
                self.seconds.get(key, 0.0) + time.perf_counter() - started
            )
