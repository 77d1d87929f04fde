"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload fig6_wide --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports the program from ``src/``
and writes only under ``.perfbench/``. ``--trace 0`` reports the
``end_to_end`` metrics of ``BENCHMARK.json``, ``--trace 1`` the
``per_layer`` metrics of a traced run. Every result is checked after the
timed window; a readable report goes to stdout, and the last stdout line
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--self-test`` plants a wrong expected answer and exits
0 only if the check catches it. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Server counters printed after a traced service run.
REPORTED_COUNTERS = (
    "fdx_discoveries_total",
    "fdx_glasso_iterations_total",
    'session_refreshes_total{mode="warm"}',
    'session_refreshes_total{mode="cold"}',
    "jobs_queue_seconds_count",
    "jobs_shed_total",
)


def pin_blas_threads() -> None:
    """One BLAS thread, set before numpy loads; the server the benchmark
    starts inherits the environment. Spinning BLAS threads amplify
    contention on few cores, and the CPU pinning in clock.py leaves them
    one core anyway."""
    for name in BLAS_VARIABLES:
        os.environ[name] = "1"


def fix_hash_seed() -> None:
    """Run under ``PYTHONHASHSEED=0``, re-executing this process if needed;
    the server inherits it. The FDs that FDX finds for an instance depend
    on the interpreter's string-hash seed (with seeds 1, 2 and 3, one
    Figure-6 instance set gave three different answers; with one seed,
    every process gives the same), so without this ``fd_f1`` would not
    repeat for a seed, and the service oracle, which compares the server
    with a library call in this process, could flag a right answer."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def git_sha() -> str:
    """HEAD of the git repository rooted at this checkout, if it is one."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def provenance(args, result, usable_cpus: int, pinned_cpu: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus,
        "pinned_cpu": pinned_cpu,
        "blas_threads": {name: os.environ[name] for name in BLAS_VARIABLES},
        "python_hash_seed": os.environ["PYTHONHASHSEED"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **result.provenance,
    }


def percentile(values: list[float], q: int) -> float:
    """Linear-interpolated ``q``-th percentile; 0 without values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latencies(result, kind: str, prefix: str, scaled: bool = False) -> dict[str, float]:
    values = result.latencies_ms(kind, scaled)
    return {f"{prefix}_p50_ms": percentile(values, 50), f"{prefix}_p90_ms": percentile(values, 90)}


def discover_kind(workload: str) -> str:
    return "miss" if workload == "service_mix" else "discover"


def end_to_end(workload: str, result) -> dict[str, float]:
    """The ``end_to_end`` metrics, in CPU time at the reference speed."""
    return {
        **latencies(result, discover_kind(workload), "discover", scaled=True),
        "throughput_ops_s": len(result.ops) / sum(op.scaled_seconds for op in result.ops),
        "fd_f1": result.fd_f1,
        "setup_s": statistics.median(result.setup_seconds),
        "peak_rss_mb": result.peak_rss_mb,
    }


def wall_clock(workload: str, result) -> dict[str, tuple[float, str]]:
    """What the caller's clock saw, for the report: the same operations in
    wall time, including waits that use no CPU."""
    wall = latencies(result, discover_kind(workload), "wall_discover")
    return {
        **{name: (value, "ms") for name, value in wall.items()},
        "wall_throughput_ops_s": (len(result.ops) / result.window_seconds, "ops/s"),
    }


def service_latencies(result) -> dict[str, float]:
    """Latencies of the operations only ``service_mix`` has (0 elsewhere)."""
    return {
        **latencies(result, "hit", "cache_hit"),
        **latencies(result, "append", "append"),
        **latencies(result, "refresh", "refresh"),
    }


def scraped(counts: dict[str, float]) -> dict[str, float]:
    """Per-layer numbers from the server's own counters over the window."""

    def share(part: str, *rest: str) -> float:
        total = counts.get(part, 0.0) + sum(counts.get(name, 0.0) for name in rest)
        return counts.get(part, 0.0) / total if total else 0.0

    queued = counts.get("jobs_queue_seconds_count", 0.0)
    return {
        "service.cache.hit_ratio": share(
            "counter:discover_cache_hits", "counter:discover_cache_misses"
        ),
        "service.cache.body_memo_hit_ratio": share(
            'cache_events_total{cache="bodies",event="hit"}',
            'cache_events_total{cache="bodies",event="miss"}',
        ),
        "service.jobs.queue_wait_ms": (
            1000.0 * counts.get("jobs_queue_seconds_sum", 0.0) / queued if queued else 0.0
        ),
        "service.jobs.shed": counts.get("jobs_shed_total", 0.0),
        "streaming.refresh.warm_ratio": share(
            'session_refreshes_total{mode="warm"}', 'session_refreshes_total{mode="cold"}'
        ),
    }


def self_test(workload, args) -> int:
    """Corrupt one expected answer; pass only if the oracle flags results."""
    result = workload.run(args.seed, args.seconds, corrupt=True)
    checked = len(result.ops) + result.extra_checks
    print(f"self-test {args.workload}: {len(result.failures)} of {checked} results flagged")
    if not result.failures:
        print("self-test FAILED: a corrupted expected answer went unnoticed")
        return 1
    print("self-test OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig6_wide", "ebic_solver", "service_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 runs the traced run and reports per-layer metrics")
    parser.add_argument("--self-test", action="store_true",
                        help="corrupt one expected answer and check that the oracle notices")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    fix_hash_seed()
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import clock
    import tracing
    import workloads

    usable_cpus = len(os.sched_getaffinity(0))
    pinned_cpu = clock.pin_to_one_cpu()

    workload = workloads.WORKLOADS[args.workload]
    if args.self_test:
        return self_test(workload, args)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT_DIR / f"spans-{tag}.json"
    service = isinstance(workload, workloads.ServiceWorkload)
    if args.trace == 0:
        result = workload.run(args.seed, args.seconds)
    elif service:
        result = workload.run(args.seed, args.seconds, spans_out=spans_path)
        spans = tracing.load_spans(spans_path)
    else:
        recorder = tracing.Recorder()
        result = workload.run(args.seed, args.seconds, recorder=recorder)
        recorder.dump(spans_path)
        spans = recorder.spans

    attempted = len(result.ops) + result.extra_checks
    failed = len(result.failures)
    if args.trace == 0:
        computed = end_to_end(args.workload, result)
        listed = "end_to_end"
        reported = {"error_rate": (failed / attempted, "ratio"), **wall_clock(args.workload, result)}
        if service:
            reported.update((k, (v, "ms")) for k, v in service_latencies(result).items())
    else:
        computed = tracing.layer_metrics(
            spans,
            {op.id: op.seconds for op in result.ops},
            "service.server.route" if service else None,
            tracing.span_cost_seconds(),
        )
        computed.update(scraped(result.scrape))
        computed.update(service_latencies(result))
        computed["error_rate"] = failed / attempted
        listed = "per_layer"
        reported = {
            name: (result.scrape[name], "count")
            for name in REPORTED_COUNTERS if name in result.scrape
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: {"value": float(computed[m["name"]]), "unit": m["unit"]} for m in spec[listed]
    }
    record = provenance(args, result, usable_cpus, pinned_cpu)

    kinds = Counter(op.kind for op in result.ops)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(result.ops)} ops ({', '.join(f'{k} {n}' for k, n in kinds.items())}) "
          f"in {result.window_seconds:.2f} s; {failed} of {attempted} results failed")
    for name, entry in metrics.items():
        print(f"  {name:<38} {entry['value']:>14.4f} {entry['unit']}")
    for name, (value, unit) in reported.items():
        print(f"  {name:<38} {value:>14.4f} {unit} (reported, not in BENCHMARK.json here)")
    for failure in result.failures[:10]:
        print(f"  FAILED {failure}")
    print("  provenance " + json.dumps(record, sort_keys=True))
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps({
        "provenance": record,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": result.failures[:100],
    }, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
