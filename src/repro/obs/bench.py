"""Benchmark regression ledger: curated suites, trajectory, detector.

``python -m repro bench`` protects the two performance claims the repo
depends on — the paper's scalability behaviour (quadratic-ish in the
number of attributes, Fig. 6) and the service's cache-hit latency win —
by recording every run into an append-only ledger and gating on a
robust statistical comparison against the recorded trajectory:

* **Suites** (:data:`SUITES`) are curated, dependency-free callables:
  ``micro`` times the flight recorder's per-event cost, ``scalability``
  times end-to-end ``FDX.discover`` across attribute counts (each
  discovery case also records every pipeline stage from its result's
  ``stage_seconds``), ``service`` boots an
  in-process server to time the cold vs. cache-hit round trip,
  ``resilience`` prices the robustness layer (disabled fault-injection
  hooks, retry wrapper overhead, a fallback-ladder-engaged discovery),
  ``catalog`` times whole-catalog sweeps serial vs. process table
  fan-out plus the sampling pass, and ``streaming`` times the
  session append path, the cold vs. warm-started refresh solve (the
  ledger exposes the warm-start win) and a checkpoint round trip.
* **Ledger** — each run appends one record (per-benchmark median
  seconds, peak RSS, git sha, environment fingerprint, wall-clock
  stamp) to ``BENCH_<suite>.json``, a ``{"suite", "runs": [...]}``
  document that *is* the performance trajectory of the repo.
* **Detector** (:func:`detect_regressions`) — compares the newest run
  against the per-benchmark history using median + MAD (no normality
  assumption; a single historical outlier cannot move the gate). A
  benchmark regresses when it exceeds
  ``median + max(mad_k * 1.4826 * MAD, rel_floor * median)`` — the MAD
  term absorbs timer noise, the relative floor stops a near-zero MAD
  (identical historical timings) from flagging microsecond jitter.
  ``run_bench`` exits non-zero on regressions, so ``scripts/check.sh``
  and CI can gate on it.

The ledger format is shared with the pytest-benchmark harness:
``benchmarks/conftest.py`` can append the same records from a
``pytest benchmarks/ --benchmark-json`` run (``--bench-ledger``).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

#: Robust-detector defaults (shared with the CLI flags).
DEFAULT_MAD_K = 5.0
DEFAULT_REL_FLOOR = 0.30
#: Consistency constant making MAD comparable to a standard deviation.
MAD_SCALE = 1.4826


# -- ledger records ----------------------------------------------------------

def ledger_path(suite: str, directory: str = ".") -> str:
    return os.path.join(directory, f"BENCH_{suite}.json")


def peak_rss_bytes() -> int:
    """This process's peak resident set size, in bytes."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    return rss * 1024 if sys.platform != "darwin" else rss


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def env_fingerprint() -> dict:
    """Enough environment to explain a timing shift after the fact."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def load_ledger(path: str) -> dict:
    """Read a ledger document; a missing file is an empty trajectory."""
    if not os.path.exists(path):
        return {"suite": None, "runs": []}
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    if not isinstance(document, dict) or not isinstance(document.get("runs"), list):
        raise ValueError(f"{path} is not a benchmark ledger (expected a 'runs' list)")
    return document


def append_run(path: str, suite: str, record: dict) -> dict:
    """Append ``record`` to the suite's ledger file; returns the document."""
    document = load_ledger(path)
    document["suite"] = suite
    document["runs"].append(record)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return document


# -- robust regression detection ---------------------------------------------

def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass
class Regression:
    """One benchmark exceeding its trajectory threshold."""

    name: str
    seconds: float
    median: float
    threshold: float
    n_history: int

    def describe(self) -> str:
        return (
            f"{self.name}: {self.seconds * 1e3:.2f} ms vs median "
            f"{self.median * 1e3:.2f} ms over {self.n_history} runs "
            f"(threshold {self.threshold * 1e3:.2f} ms, "
            f"{self.seconds / self.median:.2f}x)"
        )


def detect_regressions(
    history: list[dict],
    run: dict,
    *,
    mad_k: float = DEFAULT_MAD_K,
    rel_floor: float = DEFAULT_REL_FLOOR,
    min_history: int = 2,
) -> list[Regression]:
    """Flag benchmarks in ``run`` that regress against ``history``.

    ``history`` and ``run`` are ledger run records; each carries
    ``results: {name: {"seconds": ...}}``. Benchmarks with fewer than
    ``min_history`` historical timings are skipped (no baseline yet),
    as are benchmarks absent from the new run.
    """
    regressions: list[Regression] = []
    for name, result in sorted(run.get("results", {}).items()):
        seconds = result.get("seconds")
        if seconds is None:
            continue
        trajectory = [
            past["results"][name]["seconds"]
            for past in history
            if name in past.get("results", {})
            and past["results"][name].get("seconds") is not None
        ]
        if len(trajectory) < min_history:
            continue
        median = _median(trajectory)
        mad = _median([abs(value - median) for value in trajectory])
        threshold = median + max(mad_k * MAD_SCALE * mad, rel_floor * median)
        if seconds > threshold:
            regressions.append(
                Regression(
                    name=name,
                    seconds=seconds,
                    median=median,
                    threshold=threshold,
                    n_history=len(trajectory),
                )
            )
    return regressions


# -- curated benchmark suites ------------------------------------------------

@dataclass(frozen=True)
class BenchCase:
    """One named benchmark: ``make(smoke)`` returns the callable to time."""

    name: str
    make: Callable[[bool], Callable[[], object]]


def _discover_case(n: int, p: int) -> Callable[[bool], Callable[[], object]]:
    def make(smoke: bool) -> Callable[[], object]:
        import numpy as np

        from ..core.fdx import FDX
        from ..dataset.relation import Relation

        rows_n = max(200, n // 4) if smoke else n
        rng = np.random.default_rng(0)
        rows = []
        for _ in range(rows_n):
            base = int(rng.integers(20))
            rows.append(
                tuple([base, base % 5] + [int(rng.integers(6)) for _ in range(p - 2)])
            )
        relation = Relation.from_rows([f"a{i}" for i in range(p)], rows)

        def run():
            return FDX(seed=0).discover(relation)

        return run

    return make


def _case_service_cache_hit(smoke: bool) -> Callable[[], object]:
    import numpy as np

    from ..dataset.relation import Relation

    n, p = (300, 6) if smoke else (1000, 10)
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(n):
        base = int(rng.integers(20))
        rows.append(tuple([base, base % 5] + [int(rng.integers(6)) for _ in range(p - 2)]))
    relation = Relation.from_rows([f"a{i}" for i in range(p)], rows)

    def run():
        from ..service import ServiceClient, start_in_thread

        with start_in_thread(workers=2) as handle:
            client = ServiceClient(handle.base_url, timeout=120.0)
            client.wait_until_healthy()
            prepared = client.prepare_discover_body(relation)
            cold = client.discover_prepared(prepared)
            assert cold["cached"] is False
            t0 = time.perf_counter()
            hit = client.discover_prepared(prepared)
            elapsed = time.perf_counter() - t0
            assert hit["cached"] is True
            return elapsed

    return run


def _case_flight_record(smoke: bool) -> Callable[[], object]:
    """Cost of one flight-recorder ``record`` (lock + deque append).

    The recorder is always on in the service — every request log line
    and metric delta passes through it — so the per-event cost is a
    micro hot path with its own ledger trajectory.
    """
    from .flight import FlightRecorder

    n = 10_000 if smoke else 100_000
    recorder = FlightRecorder(capacity=4096)

    def run():
        for i in range(n):
            recorder.record("metric", name="requests_total", delta=1)
        return recorder.stats()["events_total"]

    return run


def _case_fault_hook_disabled(smoke: bool) -> Callable[[], object]:
    """Cost of the production no-injector path of the fault hooks."""
    from ..resilience import faults

    n = 10_000 if smoke else 100_000

    def run():
        fired = 0
        for _ in range(n):
            if faults.fires("glasso.nonconverge"):
                fired += 1
        return fired

    return run


def _case_retry_noop(smoke: bool) -> Callable[[], object]:
    """Overhead of retry_call around an immediately-successful call."""
    from ..resilience.retry import RetryPolicy, retry_call

    n = 2_000 if smoke else 20_000
    policy = RetryPolicy()

    def run():
        total = 0
        for _ in range(n):
            total += retry_call(
                lambda: 1, policy, is_retryable=lambda exc: False
            )
        return total

    return run


def _case_fallback_ladder(smoke: bool) -> Callable[[], object]:
    """End-to-end discovery with the ladder forced to engage
    (glasso_max_iter=1 never converges on this input)."""
    import numpy as np

    from ..core.fdx import FDX
    from ..dataset.relation import Relation

    n, p = (200, 5) if smoke else (800, 10)
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(n):
        base = int(rng.integers(20))
        rows.append(tuple([base, base % 5] + [int(rng.integers(6)) for _ in range(p - 2)]))
    relation = Relation.from_rows([f"a{i}" for i in range(p)], rows)

    def run():
        result = FDX(seed=0, glasso_max_iter=1).discover(relation)
        assert result.diagnostics["degraded"]
        return result

    return run


def _streaming_relation(n: int, p: int, seed: int = 0):
    import numpy as np

    from ..dataset.relation import Relation

    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        base = int(rng.integers(20))
        rows.append(
            tuple([base, base % 5] + [int(rng.integers(6)) for _ in range(p - 2)])
        )
    return Relation.from_rows([f"a{i}" for i in range(p)], rows)


def _streaming_engine(smoke: bool):
    from ..core.incremental import IncrementalFDX

    n, p = (600, 8) if smoke else (3000, 15)
    engine = IncrementalFDX()
    batch = max(150, n // 5)
    for start in range(0, n, batch):
        engine.add_batch(_streaming_relation(batch, p, seed=start))
    return engine


def _case_session_append(smoke: bool) -> Callable[[], object]:
    """Append path of a streaming session: accumulate + drift window,
    no solve. This is the latency appends keep *during* a refresh too,
    since the solve runs outside the session lock."""
    from ..service.protocol import Hyperparameters
    from ..service.sessions import Session

    n, p = (600, 8) if smoke else (3000, 15)
    batch = max(150, n // 5)
    batches = [
        _streaming_relation(batch, p, seed=start) for start in range(0, n, batch)
    ]

    def run():
        session = Session("sess-bench", Hyperparameters())
        for chunk in batches:
            session.append(chunk)
        return session

    return run


def _case_refresh_cold(smoke: bool) -> Callable[[], object]:
    """Stateless solve on a snapshot with no warm start."""
    from ..core.incremental import discover_from_stats

    stats = _streaming_engine(smoke).snapshot()

    def run():
        return discover_from_stats(stats)

    return run


def _case_refresh_warm(smoke: bool) -> Callable[[], object]:
    """Same snapshot, warm-started from the previous solve's precision —
    the refresh path a long-lived session actually takes. The ledger
    exposes the warm-vs-cold gap (warm should be measurably faster)."""
    from ..core.incremental import discover_from_stats

    stats = _streaming_engine(smoke).snapshot()
    theta0 = discover_from_stats(stats).precision

    def run():
        return discover_from_stats(stats, warm_start=theta0)

    return run


def _case_checkpoint_round_trip(smoke: bool) -> Callable[[], object]:
    """Serialize + restore one session's full checkpoint payload."""
    import json

    from ..service.protocol import Hyperparameters
    from ..service.sessions import Session

    n, p = (600, 8) if smoke else (3000, 15)
    session = Session("sess-bench", Hyperparameters())
    batch = max(150, n // 5)
    for start in range(0, n, batch):
        session.append(_streaming_relation(batch, p, seed=start))
    session.refresh()

    def run():
        payload = json.loads(json.dumps(session.checkpoint_payload()))
        return Session.from_checkpoint("sess-restored", payload)

    return run


def _catalog_fixture(n_tables: int, rows_per_table: int) -> str:
    """Build (once per process) a synthetic SQLite catalog; returns its path.

    Tables share a ``customer_id``-style column so the report stage has
    cross-table hints to compute — the sweep cases must price the whole
    pipeline, not just per-table discovery. The fixture's temporary
    directory is removed when the process exits.
    """
    import atexit
    import shutil
    import sqlite3
    import tempfile
    from pathlib import Path

    key = (n_tables, rows_per_table)
    cached = _catalog_fixture._cache.get(key)
    if cached and Path(cached).is_file():
        return cached
    directory = tempfile.mkdtemp(prefix="repro-bench-catalog-")
    atexit.register(shutil.rmtree, directory, ignore_errors=True)
    path = str(Path(directory) / f"catalog_{n_tables}x{rows_per_table}.sqlite")
    conn = sqlite3.connect(path)
    for t in range(n_tables):
        name = f"t{t:02d}"
        conn.execute(
            f"CREATE TABLE {name} "
            "(row_id INT, customer_id INT, zip TEXT, city TEXT, amount REAL)"
        )
        conn.executemany(
            f"INSERT INTO {name} VALUES (?,?,?,?,?)",
            [
                (
                    i,
                    (i * 7 + t) % 97,
                    f"z{(i + t) % 25:02d}",
                    f"c{((i + t) % 25) % 8}",  # zip -> city FD in every table
                    float((i * 13 + t) % 101) / 10.0,
                )
                for i in range(rows_per_table)
            ],
        )
    conn.commit()
    conn.close()
    _catalog_fixture._cache[key] = path
    return path


_catalog_fixture._cache = {}


def _catalog_sweep_case(workers: int) -> Callable[[bool], Callable[[], object]]:
    """Whole-catalog sweep, inline (1 worker) vs process table fan-out.

    The smoke variant sweeps 3 small tables; the full variant the
    8-table catalog the acceptance ledger tracks. Speedup is read off
    the ledger, not asserted: on a single-core host the process fan-out
    pays one child per table with no parallel hardware to win it back.
    """

    def make(smoke: bool) -> Callable[[], object]:
        from ..catalog import SqliteConnector, SweepConfig, sweep

        n_tables, rows = (3, 400) if smoke else (8, 2000)
        path = _catalog_fixture(n_tables, rows)
        config = SweepConfig(sample=500, workers=workers, seed=0)

        def run():
            connector = SqliteConnector(path)
            try:
                return sweep(connector, config)
            finally:
                connector.close()

        return run

    return make


def _case_catalog_sampling(smoke: bool) -> Callable[[], object]:
    """Sampling overhead alone: one streamed reservoir pass + error bars.

    Prices what a sweep pays *before* discovery — batch iteration, the
    Algorithm-R reservoir, and the chunked covariance/SE sums —
    so the ledger separates sampling cost from solver cost.
    """
    from ..catalog import SqliteConnector, sample_table

    n_rows = 2_000 if smoke else 20_000
    path = _catalog_fixture(1, n_rows)

    def run():
        connector = SqliteConnector(path)
        try:
            return sample_table(connector, "t00", 1000, seed=0)
        finally:
            connector.close()

    return run


SUITES: dict[str, tuple[BenchCase, ...]] = {
    "micro": (
        BenchCase("flight_record", _case_flight_record),
    ),
    "scalability": (
        BenchCase("discover_p05", _discover_case(1000, 5)),
        BenchCase("discover_p10", _discover_case(1000, 10)),
        BenchCase("discover_p20", _discover_case(1000, 20)),
    ),
    "service": (
        BenchCase("service_cache_hit", _case_service_cache_hit),
    ),
    "resilience": (
        BenchCase("fault_hook_disabled", _case_fault_hook_disabled),
        BenchCase("retry_call_noop", _case_retry_noop),
        BenchCase("fallback_ladder_discover", _case_fallback_ladder),
    ),
    "catalog": (
        BenchCase("sweep_serial_8tables", _catalog_sweep_case(1)),
        BenchCase("sweep_process_8tables", _catalog_sweep_case(4)),
        BenchCase("sampling_reservoir", _case_catalog_sampling),
    ),
    "streaming": (
        BenchCase("session_append", _case_session_append),
        BenchCase("refresh_cold", _case_refresh_cold),
        BenchCase("refresh_warm", _case_refresh_warm),
        BenchCase("checkpoint_round_trip", _case_checkpoint_round_trip),
    ),
}


def run_suite(suite: str, repeat: int = 3, smoke: bool = False) -> dict:
    """Execute one suite and build its ledger run record.

    Each case runs once to warm caches/imports, then ``repeat`` timed
    iterations; the recorded timing is the median. A case whose
    callable returns a float is trusted to have measured its own
    critical section (the service case times only the cache-hit round
    trip, not server boot). A case whose callable returns an
    :class:`~repro.core.fdx.FDXResult` also records the median of each
    of its ``stage_seconds`` keys as ``<case>.<stage>``, so the
    regression gate applies per pipeline stage.
    """
    from ..core.fdx import FDXResult

    cases = SUITES.get(suite)
    if cases is None:
        raise ValueError(f"unknown suite {suite!r}; options: {sorted(SUITES)}")
    results: dict[str, dict] = {}
    for case in cases:
        fn = case.make(smoke)
        fn()  # warmup (imports, numpy caches)
        timings = []
        stages: dict[str, list[float]] = {}
        for _ in range(max(1, repeat)):
            t0 = time.perf_counter()
            value = fn()
            elapsed = time.perf_counter() - t0
            timings.append(value if isinstance(value, float) else elapsed)
            if isinstance(value, FDXResult):
                for stage, seconds in value.diagnostics["stage_seconds"].items():
                    stages.setdefault(stage, []).append(seconds)
        results[case.name] = {
            "seconds": _median(timings),
            "repeats": len(timings),
        }
        for stage, seconds in stages.items():
            results[f"{case.name}.{stage}"] = {
                "seconds": _median(seconds),
                "repeats": len(seconds),
            }
    return {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": git_sha(),
        "env": env_fingerprint(),
        "smoke": smoke,
        "peak_rss_bytes": peak_rss_bytes(),
        "results": results,
    }


# -- CLI entry point ---------------------------------------------------------

def run_bench(
    suites: list[str],
    *,
    out_dir: str = ".",
    repeat: int = 3,
    smoke: bool = False,
    record: bool = True,
    report_only: bool = False,
    mad_k: float = DEFAULT_MAD_K,
    rel_floor: float = DEFAULT_REL_FLOOR,
    stream=None,
) -> int:
    """Back end of ``python -m repro bench``; returns the exit code.

    For every suite: run it, compare against the recorded trajectory,
    then (unless ``record`` is off) append the new run to the ledger.
    Exit 1 when any suite regressed and ``report_only`` is off.
    """
    stream = stream if stream is not None else sys.stdout
    any_regressed = False
    for suite in suites:
        path = ledger_path(suite, out_dir)
        history = load_ledger(path)["runs"]
        mode = "smoke" if smoke else "full"
        print(f"== bench {suite} ({mode}, {repeat} repeats) ==", file=stream)
        run = run_suite(suite, repeat=repeat, smoke=smoke)
        for name, result in sorted(run["results"].items()):
            print(f"  {name:<24} {result['seconds'] * 1e3:10.2f} ms", file=stream)
        # Smoke runs use reduced workloads: never gate full-size
        # trajectories on them, and never record them into one.
        comparable = [past for past in history if bool(past.get("smoke")) == smoke]
        regressions = detect_regressions(
            comparable, run, mad_k=mad_k, rel_floor=rel_floor
        )
        if regressions:
            any_regressed = True
            for regression in regressions:
                print(f"  REGRESSION {regression.describe()}", file=stream)
        elif comparable:
            print(f"  no regressions vs {len(comparable)} recorded runs", file=stream)
        else:
            print("  no comparable trajectory yet (first recorded run?)", file=stream)
        if record:
            append_run(path, suite, run)
            print(f"  recorded -> {path}", file=stream)
    if any_regressed and not report_only:
        return 1
    return 0
