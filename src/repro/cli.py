"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``discover``    run FDX on a CSV file and print the discovered FDs.
``profile``     single-column statistics (optionally plus FDs).
``compare``     run every method from the paper's evaluation on a CSV file.
``experiment``  regenerate one of the paper's tables or figures.
``report``      full markdown profiling report (FDs, keys, DCs, outlook).
``constraints`` discover keys / denial constraints / constant CFDs.
``dataset``     materialize a built-in benchmark dataset to CSV.
``sweep``       catalog sweep: discover FDs in every table of a SQLite
                database or a directory of CSVs, with sampling error bars.
``bench``       run curated benchmarks against the regression ledger.
``serve``       run the concurrent FD-discovery HTTP service.
``trace-export``  convert span JSONL / flight dumps to Perfetto JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import __version__
from .core.fdx import FDX
from .dataset.io import read_csv, write_csv
from .errors import ReproError


def _cmd_discover(args: argparse.Namespace) -> int:
    relation = read_csv(args.csv)
    tracer = None
    trace_sink = None
    perfetto_out = None
    if args.trace or args.trace_out:
        from .obs import JsonlSink, ListSink, Tracer

        if args.trace_out and args.trace_out.endswith(".perfetto.json"):
            # Collect spans in memory and convert to the Chrome
            # trace-event format on exit (load at ui.perfetto.dev).
            perfetto_out = args.trace_out
            trace_sink = ListSink()
        elif args.trace_out:
            trace_sink = JsonlSink(args.trace_out)
        tracer = Tracer(enabled=True, sinks=[trace_sink] if trace_sink else [])
    profiler = None
    if args.profile or args.profile_out:
        from .obs import SamplingProfiler

        profiler = SamplingProfiler(hz=args.profile_hz)
    try:
        fdx = FDX(
            lam=args.lam,
            sparsity=args.sparsity,
            ordering=args.ordering,
            max_rows_per_attribute=args.max_rows,
            tracer=tracer,
            track_memory=args.memory,
        )
    except ValueError as exc:  # an option out of range: one line, exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if profiler is not None:
        with profiler:
            result = fdx.discover(relation)
    else:
        result = fdx.discover(relation)
    if perfetto_out is not None:
        from .obs import write_chrome_trace

        summary = write_chrome_trace(trace_sink.events, perfetto_out)
        print(f"wrote {summary['spans']} spans to {perfetto_out} "
              f"(open at https://ui.perfetto.dev)")
    elif trace_sink is not None:
        trace_sink.close()
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, default=str))
        if tracer is None and profiler is None:
            return 0
    else:
        print(f"{relation.n_rows} rows x {relation.n_attributes} attributes")
        print(f"discovered {len(result.fds)} FDs in {result.total_seconds:.2f}s:")
        for fd in result.fds:
            print(f"  {fd}")
        if args.heatmap:
            print("\nautoregression |B|:")
            for line in result.heatmap_rows(relation.schema.names):
                print(f"  {line}")
        if args.explain:
            _print_evidence(result)
    if args.explain_out:
        _write_evidence(result, args.explain_out)
    if tracer is not None:
        _print_trace_summary(tracer, result)
    if args.memory:
        _print_memory_summary(result)
    if profiler is not None:
        _write_profile(profiler, args.profile_out or f"{args.csv}.collapsed")
    return 0


def _print_evidence(result) -> None:
    """Per-FD evidence table for ``discover --explain``."""
    from .obs import render_evidence_table

    evidence = result.diagnostics.get("evidence")
    if not isinstance(evidence, dict):
        print("\nno evidence ledger recorded (discovery ran with evidence disabled)")
        return
    print()
    for line in render_evidence_table(evidence):
        print(line)


def _write_evidence(result, path: str) -> None:
    """Dump the full evidence ledger (emits + near-misses) as JSON."""
    evidence = result.diagnostics.get("evidence")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(evidence, fh, indent=2)
        fh.write("\n")
    n_records = len((evidence or {}).get("records", []))
    n_near = len((evidence or {}).get("near_misses", []))
    print(f"wrote evidence ledger ({n_records} FDs, {n_near} near-misses) to {path}")


def _print_memory_summary(result) -> None:
    """Per-stage peak-memory table for ``discover --memory``."""
    stage_bytes = result.diagnostics.get("stage_bytes", {})
    print("\nper-stage peak memory (tracemalloc):")
    for name, n_bytes in stage_bytes.items():
        print(f"  {name:<16} {n_bytes / 1024:12.1f} KiB")


def _write_profile(profiler, path: str) -> None:
    """Persist collapsed stacks and print the hottest frames."""
    n_samples = profiler.write(path)
    print(f"\nprofile: {n_samples} samples -> {path} (collapsed stacks)")
    for frame, count in profiler.top(5):
        print(f"  {count:6d}  {frame}")


def _print_trace_summary(tracer, result) -> None:
    """Stage-tree timing summary for ``discover --trace``."""
    from .obs import render_tree

    root = tracer.last_root
    if root is None:
        return
    print(f"\ntrace {root.trace_id}:")
    for line in render_tree(root):
        print(f"  {line}")
    stage_seconds = result.diagnostics.get("stage_seconds", {})
    stage_sum = result.total_seconds
    # The root span wraps every stage: the share of it left unstaged is
    # the clock's coverage gap.
    total = root.duration_seconds
    coverage = 100.0 * stage_sum / total if total > 0 else 100.0
    print(f"  stages: " + "  ".join(
        f"{name}={seconds * 1000:.2f}ms" for name, seconds in stage_seconds.items()
    ))
    print(f"  stage sum {stage_sum:.4f}s of total {total:.4f}s ({coverage:.1f}%)")


def _cmd_profile(args: argparse.Namespace) -> int:
    from .prep.statistics import profile_relation

    relation = read_csv(args.csv)
    profile = profile_relation(relation)
    print(profile.render())
    if args.fds:
        result = FDX().discover(relation)
        print(f"\ndiscovered FDs ({len(result.fds)}):")
        for fd in result.fds:
            print(f"  {fd}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .experiments.report import Table
    from .experiments.runner import METHOD_ORDER, run_method

    relation = read_csv(args.csv)
    noise = max(relation.missing_fraction(), 0.01)
    table = Table(
        title=f"FD discovery on {args.csv}",
        headers=["Method", "# FDs", "seconds"],
    )
    for method in METHOD_ORDER:
        outcome = run_method(method, relation, noise_rate=noise, time_limit=args.time_limit)
        if outcome.timed_out:
            table.add_row(method, "-", "-")
        else:
            table.add_row(method, outcome.n_fds, round(outcome.seconds, 2))
    print(table.render())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import figures, tables

    registry = {
        "table1": tables.table1,
        "table2": tables.table2,
        "table3": tables.table3,
        "table4": tables.table4,
        "table5": tables.table5,
        "table6": tables.table6,
        "table7": tables.table7,
        "table8": tables.table8,
        "table9": tables.table9,
        "lambda": tables.lambda_sensitivity,
        "figure2": figures.figure2,
        "figure3": figures.figure3,
        "figure4": figures.figure4,
        "figure5": figures.figure5,
        "figure6": figures.figure6,
        "figure7": figures.figure7,
    }
    fn = registry.get(args.name)
    if fn is None:
        print(f"unknown experiment {args.name!r}; options: {sorted(registry)}",
              file=sys.stderr)
        return 2
    result = fn()
    print(result if isinstance(result, str) else result.render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .prep.reporting import build_profiling_report

    relation = read_csv(args.csv)
    report = build_profiling_report(relation, n_resamples=args.resamples)
    text = report.to_markdown(title=f"Data profile: {args.csv}")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_constraints(args: argparse.Namespace) -> int:
    from .constraints import CfdDiscovery, DenialConstraintDiscovery, discover_keys

    relation = read_csv(args.csv)
    print(f"{relation.n_rows} rows x {relation.n_attributes} attributes\n")
    keys = discover_keys(relation, max_size=args.max_size)
    print("possible keys:", [sorted(k) for k in keys.possible_keys] or "(none)")
    print("certain keys: ", [sorted(k) for k in keys.certain_keys] or "(none)")
    dcs = DenialConstraintDiscovery(
        max_predicates=args.max_size,
        max_violation_rate=args.tolerance,
    ).discover(relation)
    print(f"\ndenial constraints ({len(dcs.constraints)} minimal):")
    for dc in dcs.constraints:
        print(f"  {dc}")
    if args.cfds:
        rules = CfdDiscovery(min_support=args.min_support).discover_constant(relation)
        print(f"\nconstant CFDs ({len(rules)}):")
        for rule in rules[: args.limit]:
            print(f"  {rule}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from .datagen.realworld import REAL_WORLD_DATASETS, load_dataset

    if args.name == "list":
        for name in sorted(REAL_WORLD_DATASETS):
            print(name)
        return 0
    ds = load_dataset(args.name, seed=args.seed)
    out = args.output or f"{args.name}.csv"
    write_csv(ds.relation, out)
    print(f"wrote {ds.relation.n_rows} rows x {ds.relation.n_attributes} "
          f"attributes to {out}")
    if ds.embedded_fds:
        print("embedded dependencies:")
        for fd in ds.embedded_fds:
            print(f"  {fd}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .catalog import SweepConfig, open_connector, sweep

    hyperparameters = {}
    if args.lam is not None:
        hyperparameters["lam"] = args.lam
    if args.sparsity is not None:
        hyperparameters["sparsity"] = args.sparsity
    config = SweepConfig(
        sample=args.sample,
        method=args.method,
        seed=args.seed,
        tolerance=args.tolerance,
        workers=args.workers,
        table_timeout=args.timeout,
        hyperparameters=hyperparameters,
    )
    connector = open_connector(input_path=args.input, input_dir=args.input_dir)
    try:
        report = sweep(connector, config)
    finally:
        connector.close()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(f"wrote catalog report to {args.report}")
    if args.json and not args.report:
        print(report.to_json())
    else:
        print(report.render_text())
    totals = report.totals
    # Partial failure is visible but not fatal; a sweep with zero
    # successful tables is a failed sweep.
    return 0 if totals["tables_ok"] > 0 else 2


def _cmd_bench(args: argparse.Namespace) -> int:
    from .obs import bench

    if args.suite == "all":
        suites = sorted(bench.SUITES)
    elif args.suite in bench.SUITES:
        suites = [args.suite]
    else:
        print(f"unknown suite {args.suite!r}; options: "
              f"{sorted(bench.SUITES) + ['all']}", file=sys.stderr)
        return 2
    detector = {}
    if args.mad_k is not None:
        detector["mad_k"] = args.mad_k
    if args.rel_floor is not None:
        detector["rel_floor"] = args.rel_floor
    return bench.run_bench(
        suites,
        out_dir=args.out,
        repeat=1 if args.smoke else args.repeat,
        smoke=args.smoke,
        record=not args.no_record,
        report_only=args.report_only,
        **detector,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.server import serve

    return serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        executor=args.executor,
        job_timeout=args.job_timeout,
        cache_entries=args.cache_entries,
        cache_ttl=args.cache_ttl,
        max_sessions=args.max_sessions,
        session_ttl=args.session_ttl,
        max_queue_depth=args.max_queue_depth if args.max_queue_depth > 0 else None,
        obs_jsonl=args.obs_jsonl,
        checkpoint_dir=args.checkpoint_dir,
        flight_dir=args.flight_dir,
        flight_capacity=args.flight_capacity,
        flight_debounce=args.flight_debounce,
        journal_dir=args.journal_dir,
        recover=args.recover,
        max_attempts=args.max_attempts,
        hang_timeout=args.hang_timeout,
    )


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from .obs import load_events, write_chrome_trace

    events = load_events(args.input)
    if not events:
        print(f"no events in {args.input}", file=sys.stderr)
        return 2
    out = args.out or f"{args.input}.perfetto.json"
    summary = write_chrome_trace(events, out, trace_id=args.trace_id)
    if summary["spans"] == 0:
        print(
            f"no spans matched"
            + (f" trace {args.trace_id}" if args.trace_id else "")
            + f" in {args.input}",
            file=sys.stderr,
        )
        return 2
    print(f"wrote {summary['trace_events']} trace events "
          f"({summary['spans']} spans, {summary['traces']} traces) to {out}")
    print("open at https://ui.perfetto.dev (or chrome://tracing)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FDX (SIGMOD 2020) reproduction: FD discovery in noisy data",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discover", help="run FDX on a CSV file")
    p.add_argument("csv")
    p.add_argument("--lam", type=float, default=0.02, help="graphical-lasso penalty")
    p.add_argument("--sparsity", type=float, default=0.05, help="|B| threshold")
    p.add_argument("--ordering", default="natural", help="variable ordering")
    p.add_argument("--max-rows", type=int, default=None,
                   help="cap rows per attribute in the transform (at least 2)")
    p.add_argument("--heatmap", action="store_true", help="print |B| heatmap")
    p.add_argument("--explain", action="store_true",
                   help="print the per-FD evidence table (precision entry, "
                        "partial correlation, threshold margin, lambda "
                        "provenance, ranked near-misses)")
    p.add_argument("--explain-out", default=None, metavar="FILE",
                   help="write the full evidence ledger as JSON to FILE")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--trace", action="store_true",
                   help="print a per-stage span timing tree")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="also append span events as JSONL to FILE (implies "
                        "--trace); a FILE ending in .perfetto.json is written "
                        "as a Chrome trace-event file instead, loadable at "
                        "ui.perfetto.dev")
    p.add_argument("--profile", action="store_true",
                   help="sample the run's wall-clock stacks and write a "
                        "collapsed-stack profile (flamegraph input)")
    p.add_argument("--profile-out", default=None, metavar="FILE",
                   help="collapsed-stack output path (implies --profile; "
                        "default <csv>.collapsed)")
    p.add_argument("--profile-hz", type=float, default=200.0,
                   help="profiler sampling rate in samples/second")
    p.add_argument("--memory", action="store_true",
                   help="record per-stage peak memory (tracemalloc) into "
                        "diagnostics['stage_bytes']")
    p.set_defaults(func=_cmd_discover)

    p = sub.add_parser("profile", help="single-column statistics of a CSV file")
    p.add_argument("csv")
    p.add_argument("--fds", action="store_true", help="also run FDX")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("compare", help="run all methods on a CSV file")
    p.add_argument("csv")
    p.add_argument("--time-limit", type=float, default=60.0)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("name", help="table1..table9 or figure2..figure7")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("report", help="full markdown profiling report for a CSV file")
    p.add_argument("csv")
    p.add_argument("--output", default=None, help="write to a file instead of stdout")
    p.add_argument("--resamples", type=int, default=5, help="stability resamples")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("constraints", help="discover keys/DCs/CFDs in a CSV file")
    p.add_argument("csv")
    p.add_argument("--max-size", type=int, default=2,
                   help="max key size / DC predicates")
    p.add_argument("--tolerance", type=float, default=0.0,
                   help="approximate-DC violation tolerance")
    p.add_argument("--cfds", action="store_true", help="also mine constant CFDs")
    p.add_argument("--min-support", type=int, default=10)
    p.add_argument("--limit", type=int, default=20, help="max CFDs to print")
    p.set_defaults(func=_cmd_constraints)

    p = sub.add_parser("dataset", help="materialize a benchmark dataset")
    p.add_argument("name", help="dataset name, or 'list'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_dataset)

    p = sub.add_parser(
        "sweep",
        help="discover FDs in every table of a database (catalog sweep)",
    )
    p.add_argument("--input", default=None, metavar="DB",
                   help="SQLite database file to sweep")
    p.add_argument("--input-dir", default=None, metavar="DIR",
                   help="directory of CSV files to sweep (one table per file)")
    p.add_argument("--sample", type=int, default=10_000, metavar="N",
                   help="rows sampled per table (seeded; tables at or under "
                        "N rows are read whole); the report carries per-table "
                        "covariance standard-error bars and an adequacy flag")
    p.add_argument("--method", choices=("reservoir", "block"),
                   default="reservoir",
                   help="row-level reservoir (uniform) or block sampling "
                        "(contiguous batches; cheaper, order-biased)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--tolerance", type=float, default=0.05,
                   help="adequacy tolerance on the max covariance standard "
                        "error (standardized scale)")
    p.add_argument("--workers", type=int, default=1, metavar="K",
                   help="tables processed concurrently (1 = one table at a "
                        "time); above 1 each table runs in its own supervised "
                        "child process, so one crashing table becomes an "
                        "error record")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-table wall-clock budget at any --workers; a "
                        "table past it becomes a TaskTimeoutError record")
    p.add_argument("--lam", type=float, default=None,
                   help="graphical-lasso penalty forwarded to FDX")
    p.add_argument("--sparsity", type=float, default=None,
                   help="|B| threshold forwarded to FDX")
    p.add_argument("--report", default=None, metavar="FILE",
                   help="write the consolidated JSON report to FILE")
    p.add_argument("--json", action="store_true",
                   help="print the JSON report instead of the text summary")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "bench",
        help="run curated benchmark suites and gate on the regression ledger",
    )
    p.add_argument("--suite", default="micro", metavar="NAME",
                   help="suite to run: micro, scalability, service, "
                        "resilience, streaming, catalog, or all")
    p.add_argument("--repeat", type=int, default=3,
                   help="timed iterations per benchmark (median is recorded)")
    p.add_argument("--smoke", action="store_true",
                   help="reduced workloads, one repeat (fast CI gate; smoke "
                        "runs only ever compare against other smoke runs)")
    p.add_argument("--out", default=".", metavar="DIR",
                   help="directory holding the BENCH_<suite>.json ledgers")
    p.add_argument("--no-record", action="store_true",
                   help="compare against the ledger without appending this run")
    p.add_argument("--report-only", action="store_true",
                   help="print regressions but always exit 0")
    p.add_argument("--mad-k", type=float, default=None,
                   help="MAD multiplier of the regression threshold")
    p.add_argument("--rel-floor", type=float, default=None,
                   help="minimum relative slowdown flagged as a regression")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("serve", help="run the FD-discovery HTTP service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080, help="0 picks a free port")
    p.add_argument("--workers", type=int, default=4,
                   help="concurrent discovery job slots (default: 4)")
    p.add_argument("--executor", choices=("thread", "process"), default="thread",
                   help="where each job's pipeline runs: 'thread' executes "
                        "in-process (default); 'process' forks one worker "
                        "process per job so cancellation kills the worker "
                        "and heavy jobs cannot block the HTTP threads")
    p.add_argument("--job-timeout", type=float, default=300.0,
                   help="per-job wall-clock budget in seconds")
    p.add_argument("--cache-entries", type=int, default=128,
                   help="result-cache capacity (0 disables caching)")
    p.add_argument("--cache-ttl", type=float, default=3600.0,
                   help="result-cache entry lifetime in seconds")
    p.add_argument("--max-queue-depth", type=int, default=64,
                   help="queued jobs before submits are shed with 429 "
                        "(0 disables admission control)")
    p.add_argument("--max-sessions", type=int, default=256)
    p.add_argument("--session-ttl", type=float, default=1800.0,
                   help="idle streaming-session lifetime in seconds")
    p.add_argument("--obs-jsonl", default=None, metavar="FILE",
                   help="append span + request events as JSONL to FILE "
                        "(also enables span tracing of the pipeline)")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="persist streaming sessions as per-session JSON "
                        "checkpoints in DIR and restore them on startup, so "
                        "a restarted server keeps its sessions (statistics, "
                        "FD changelog, drift window, warm-start precision)")
    p.add_argument("--flight-dir", default=None, metavar="DIR",
                   help="write flight-recorder dumps (the in-memory ring of "
                        "recent spans, request lines, metric deltas and "
                        "state changes) to DIR when a trigger fires: any "
                        "5xx, SLO budget burn, fallback-ladder engagement, "
                        "worker crash, or drift alert; also enables span "
                        "tracing")
    p.add_argument("--flight-capacity", type=int, default=4096,
                   help="flight-recorder ring size in events")
    p.add_argument("--flight-debounce", type=float, default=30.0,
                   help="minimum seconds between dumps for the same trigger "
                        "reason")
    p.add_argument("--journal-dir", default=None, metavar="DIR",
                   help="journal every job state transition to an append-only "
                        "JSONL file in DIR and replay it on startup: finished "
                        "jobs stay pollable across restarts, jobs in flight "
                        "at crash time surface as INTERRUPTED, and repeated "
                        "worker-crashing jobs stay QUARANTINED")
    p.add_argument("--recover", choices=("mark", "resubmit"), default="mark",
                   help="what to do with jobs interrupted by a crash: 'mark' "
                        "leaves them terminal INTERRUPTED; 'resubmit' re-runs "
                        "the ones whose journal record carries the request "
                        "payload (default: mark)")
    p.add_argument("--max-attempts", type=int, default=2,
                   help="abnormal worker deaths allowed per dataset before "
                        "the job is quarantined (default: 2)")
    p.add_argument("--hang-timeout", type=float, default=None,
                   help="seconds of solver heartbeat silence before the "
                        "watchdog cancels a hung solve (escalating to "
                        "SIGTERM/SIGKILL in process mode; default: disabled)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "trace-export",
        help="convert span JSONL (serve --obs-jsonl, discover --trace-out, "
             "or a flight-recorder dump) to a Chrome trace-event file for "
             "ui.perfetto.dev",
    )
    p.add_argument("input", help="span JSONL or flight-recorder dump")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="output path (default: <input>.perfetto.json)")
    p.add_argument("--trace-id", default=None, metavar="ID",
                   help="export only this trace (default: all traces, one "
                        "Perfetto 'process' per trace)")
    p.set_defaults(func=_cmd_trace_export)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        # Deliberate, typed failures (unreadable file, malformed CSV,
        # unusable relation) exit with one actionable line, not a
        # traceback. Genuine bugs still traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
