"""Tests for sweep orchestration: discovery, isolation, timeouts."""

import sqlite3

import pytest

from repro.catalog import SqliteConnector, SweepConfig, sweep
from repro.errors import CatalogError
from repro.obs.registry import MetricsRegistry
from repro.obs.sinks import ListSink
from repro.obs.trace import Tracer
from repro.resilience.faults import FaultInjector


@pytest.fixture
def catalog_db(tmp_path):
    path = tmp_path / "cat.sqlite"
    conn = sqlite3.connect(path)
    conn.execute(
        "CREATE TABLE orders (order_id INT, customer_id INT, zip TEXT, city TEXT)"
    )
    conn.execute("CREATE TABLE customers (customer_id INT, name TEXT, region TEXT)")
    conn.execute("CREATE TABLE items (item_id INT, amount REAL, grade TEXT)")
    conn.executemany(
        "INSERT INTO orders VALUES (?,?,?,?)",
        [(i, i % 50, f"z{i % 20:02d}", f"c{(i % 20) % 10}") for i in range(400)],
    )
    conn.executemany(
        "INSERT INTO customers VALUES (?,?,?)",
        [(i, f"n{i}", f"r{i % 5}") for i in range(50)],
    )
    conn.executemany(
        "INSERT INTO items VALUES (?,?,?)",
        [(i, (i % 13) / 2.0, f"g{i % 4}") for i in range(200)],
    )
    conn.commit()
    conn.close()
    return str(path)


def test_serial_sweep_finds_fds_and_hints(catalog_db):
    report = sweep(SqliteConnector(catalog_db), SweepConfig(sample=500))
    totals = report.totals
    assert totals["tables"] == 3 and totals["tables_error"] == 0
    orders = report.table("orders")
    # city is functionally determined (zip -> city by construction; the
    # model may pick the equivalent determinant through customer_id).
    assert any(fd["rhs"] == "city" for fd in orders.fds)
    assert orders.sampling["adequate"]
    assert any(h["kind"] == "foreign_key_candidate" for h in report.hints)
    # sampled error bars ride every successful table
    for t in report.tables:
        assert t.sampling["standard_error"]


def test_sweep_is_deterministic(catalog_db):
    config = SweepConfig(sample=300, seed=11)
    a = sweep(SqliteConnector(catalog_db), config).to_dict()
    b = sweep(SqliteConnector(catalog_db), config).to_dict()
    a.pop("seconds"), b.pop("seconds")
    for t in a["tables"] + b["tables"]:
        t.pop("seconds")
        t["diagnostics"].pop("stage_seconds", None)
        t["diagnostics"].pop("timing", None)
    assert [t["fds"] for t in a["tables"]] == [t["fds"] for t in b["tables"]]
    assert [t["sampling"] for t in a["tables"]] == [t["sampling"] for t in b["tables"]]
    assert a["hints"] == b["hints"]


def _assert_one_injected_error_record(catalog_db, workers):
    injector = FaultInjector(seed=1)
    injector.inject("catalog.table", times=1)
    with injector.install():
        report = sweep(
            SqliteConnector(catalog_db),
            SweepConfig(sample=300, workers=workers),
        )
    totals = report.totals
    assert totals["tables_error"] == 1 and totals["tables_ok"] == 2
    (failed,) = [t for t in report.tables if t.status == "error"]
    assert failed.error["type"] == "InjectedFault"
    assert failed.table in failed.error["message"]


def test_injected_table_fault_yields_one_error_record(catalog_db):
    """An injected failure of a table on the job thread is one record,
    and the other tables still succeed."""
    _assert_one_injected_error_record(catalog_db, workers=1)


def test_thread_backend_guards_logical_failures(catalog_db):
    """With workers > 1 the fault fires in the table's job before its
    child starts, and is still one record."""
    _assert_one_injected_error_record(catalog_db, workers=2)


def test_worker_crash_isolated_to_its_table(catalog_db):
    """A hard child-process death becomes error records, never an abort.

    The injector travels into every forked child (each inherits its own
    times=1 budget), so every table's worker dies — the sweep must still
    return a full report of typed error records.
    """
    injector = FaultInjector(seed=1)
    injector.inject("parallel.worker_crash", times=1)
    with injector.install():
        report = sweep(
            SqliteConnector(catalog_db),
            SweepConfig(sample=300, workers=2),
        )
    assert len(report.tables) == 3
    assert all(t.status == "error" for t in report.tables)
    assert all(t.error["type"] == "WorkerCrashError" for t in report.tables)


def test_process_backend_matches_serial_results(catalog_db):
    serial = sweep(SqliteConnector(catalog_db), SweepConfig(sample=300))
    process = sweep(
        SqliteConnector(catalog_db), SweepConfig(sample=300, workers=2)
    )
    assert [t.fds for t in serial.tables] == [t.fds for t in process.tables]
    assert [t.sampling for t in serial.tables] == [
        t.sampling for t in process.tables
    ]
    assert serial.hints == process.hints


def test_table_timeout_applies_at_one_worker(catalog_db):
    """``table_timeout`` bounds every table at any worker count: with one
    worker, each table past its 1 ms budget is a TaskTimeoutError record."""
    report = sweep(
        SqliteConnector(catalog_db),
        SweepConfig(sample=300, workers=1, table_timeout=0.001),
    )
    assert len(report.tables) == 3
    assert all(t.status == "error" for t in report.tables)
    assert all(t.error["type"] == "TaskTimeoutError" for t in report.tables)


def test_sweep_metrics_and_span_tree(catalog_db):
    """A sweep opened under a span is one trace: every table span, run
    on a job thread, is a child of the sweep span, and with workers > 1
    each child's spans are stitched under their table."""
    for workers in (1, 2):
        registry = MetricsRegistry()
        sink = ListSink()
        tracer = Tracer(enabled=True, sinks=[sink])
        with tracer.span("request.root") as outer:
            sweep(
                SqliteConnector(catalog_db),
                SweepConfig(sample=300, workers=workers),
                registry=registry, tracer=tracer,
            )
        snapshot = registry.snapshot()
        assert snapshot["counters"].get("catalog_tables_total{status=ok}") == 3.0
        assert snapshot["histograms"]["catalog_sweep_seconds"]["count"] == 1
        spans = [e for e in sink.events if e.get("type") == "span"]
        assert len({s["trace_id"] for s in spans}) == 1, workers
        (root,) = [s for s in spans if s["name"] == "catalog.sweep"]
        assert root["parent_id"] == outer.span_id
        tables = [s for s in spans if s["name"] == "catalog.table"]
        assert len(tables) == 3
        assert all(t["parent_id"] == root["span_id"] for t in tables), workers
        jobs = [s for s in spans if s["name"] == "worker.job"]
        assert sorted(j["parent_id"] for j in jobs) == (
            [] if workers == 1 else sorted(t["span_id"] for t in tables)
        )


def test_sweep_config_validation():
    with pytest.raises(CatalogError, match="workers"):
        SweepConfig(workers=0)
    # Configs that still name a backend are rejected, not mapped.
    with pytest.raises(CatalogError, match="unknown sweep config"):
        SweepConfig.from_dict({"backend": "thread"})
    with pytest.raises(CatalogError, match="sample size"):
        SweepConfig(sample=1)
    with pytest.raises(CatalogError, match="unknown sweep config"):
        SweepConfig.from_dict({"samples": 10})
    # FDX options are checked once, when the config is built.
    for bad in ({"lam": -1}, {"lam": "foo"}, {"shrinkage": 2.0},
                {"ordering": "bogus"}, {"estimator": "bogus"}, {"lamda": 0.1}):
        with pytest.raises(CatalogError, match="hyperparameters"):
            SweepConfig(hyperparameters=bad)
    config = SweepConfig(sample=64, hyperparameters={"lam": 0.1})
    assert SweepConfig.from_dict(config.to_dict()) == config
