"""Tests for the service's catalog batch mode (POST/GET /v1/catalog)."""

import sqlite3
import time

import pytest

from repro.catalog import SqliteConnector, SweepConfig, sweep
from repro.resilience.faults import FaultInjector
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import DiscoveryService, start_in_thread


@pytest.fixture
def catalog_db(tmp_path):
    path = tmp_path / "cat.sqlite"
    conn = sqlite3.connect(path)
    conn.execute(
        "CREATE TABLE orders (order_id INT, customer_id INT, zip TEXT, city TEXT)"
    )
    conn.execute("CREATE TABLE customers (customer_id INT, name TEXT, region TEXT)")
    conn.executemany(
        "INSERT INTO orders VALUES (?,?,?,?)",
        [(i, i % 50, f"z{i % 20:02d}", f"c{(i % 20) % 10}") for i in range(400)],
    )
    conn.executemany(
        "INSERT INTO customers VALUES (?,?,?)",
        [(i, f"n{i}", f"r{i % 5}") for i in range(50)],
    )
    conn.commit()
    conn.close()
    return str(path)


@pytest.fixture
def server():
    handle = start_in_thread(workers=2)
    try:
        client = ServiceClient(handle.base_url)
        client.wait_until_healthy()
        yield handle, client
    finally:
        handle.shutdown()


def test_catalog_submit_wait_and_report(server, catalog_db):
    _, client = server
    status = client.sweep({"kind": "sqlite", "path": catalog_db}, sample=500)
    assert status["complete"]
    assert status["counts"] == {"total": 2, "done": 2, "error": 0, "pending": 0}
    report = status["report"]
    assert report["totals"]["fds"] >= 1
    assert report["totals"]["hints"] >= 1
    orders = [t for t in report["tables"] if t["table"] == "orders"][0]
    assert orders["sampling"]["standard_error"]  # error bars on the wire
    assert orders["sampling"]["adequate"] is True


def test_catalog_incremental_get(server, catalog_db):
    _, client = server
    submitted = client.sweep(
        {"kind": "sqlite", "path": catalog_db}, wait=False, sample=400
    )
    catalog_id = submitted["catalog_id"]
    assert {e["table"] for e in submitted["tables"]} == {"customers", "orders"}
    deadline = time.monotonic() + 60
    while True:
        status = client.catalog(catalog_id)
        assert status["counts"]["total"] == 2
        if status["complete"]:
            break
        assert "report" not in status
        assert time.monotonic() < deadline
        time.sleep(0.02)
    assert status["report"]["totals"]["tables_ok"] == 2
    # a repeat GET serves the same assembled report
    assert client.catalog(catalog_id)["report"] == status["report"]


def test_catalog_injected_failure_is_per_table(catalog_db):
    service = DiscoveryService(workers=2)
    try:
        injector = FaultInjector(seed=1)
        injector.inject("catalog.table", times=1)
        with injector.install():
            status_code, body = service.catalog_submit(
                {"source": {"kind": "sqlite", "path": catalog_db},
                 "sample": 300, "wait": True}
            )
        assert status_code == 200
        report = body["report"]
        assert report["totals"]["tables_error"] == 1
        assert report["totals"]["tables_ok"] == 1
        (failed,) = [t for t in report["tables"] if t["status"] == "error"]
        assert failed["error"]["type"] == "InjectedFault"
        assert "injected failure" in failed["error"]["message"]
        snapshot = service.registry.snapshot()
        assert snapshot["counters"]["catalog_tables_total{status=error}"] == 1.0
        assert snapshot["histograms"]["catalog_sweep_seconds"]["count"] == 1
    finally:
        service.close()


@pytest.mark.parametrize("fault,workers,executor,config,expected", [
    ("catalog.table", 1, "thread", {}, ["InjectedFault"]),
    ("parallel.worker_crash", 2, "process", {}, ["WorkerCrashError"] * 2),
    (None, 1, "thread", {"table_timeout": 0.001}, ["TaskTimeoutError"] * 2),
])
def test_sweep_and_service_record_the_same_failure(
    catalog_db, fault, workers, executor, config, expected
):
    """``repro sweep`` and ``POST /v1/catalog`` plan through one
    orchestrator, so the same failure gives records of the same type."""

    def error_types(tables):
        return sorted(t["error"]["type"] for t in tables if t["status"] == "error")

    def injected(run):
        injector = FaultInjector(seed=1)
        if fault is not None:
            injector.inject(fault, times=1)
        with injector.install():
            return run()

    report = injected(lambda: sweep(
        SqliteConnector(catalog_db),
        SweepConfig(sample=300, workers=workers, **config),
    ))
    service = DiscoveryService(workers=workers, executor=executor)
    try:
        status_code, body = injected(lambda: service.catalog_submit(
            {"source": {"kind": "sqlite", "path": catalog_db},
             "sample": 300, "wait": True, **config}
        ))
    finally:
        service.close()
    assert status_code == 200
    assert error_types(report.to_dict()["tables"]) == expected
    assert error_types(body["report"]["tables"]) == expected


def test_catalog_validation_errors(server, tmp_path):
    _, client = server
    with pytest.raises(ServiceError) as exc:
        client.sweep({"kind": "oracle", "path": "x"})
    assert exc.value.status == 400
    with pytest.raises(ServiceError) as exc:
        client.sweep({"kind": "sqlite", "path": str(tmp_path / "nope.db")})
    assert exc.value.status == 400
    with pytest.raises(ServiceError) as exc:
        client.catalog("doesnotexist")
    assert exc.value.status == 404


def test_catalog_unknown_fields_rejected(catalog_db):
    service = DiscoveryService(workers=1)
    try:
        status_code, body = service.catalog_submit(
            {"source": {"kind": "sqlite", "path": catalog_db}, "smaple": 10}
        )
        assert status_code == 400
        assert "smaple" in body["error"]["message"]
        status_code, body = service.catalog_submit(
            {"source": {"kind": "sqlite", "path": catalog_db},
             "hyperparameters": {"lam": -1}}
        )
        assert status_code == 400
        assert "lam" in body["error"]["message"]
    finally:
        service.close()


def test_catalog_idempotent_replay(catalog_db):
    service = DiscoveryService(workers=2)
    try:
        payload = {
            "source": {"kind": "sqlite", "path": catalog_db},
            "sample": 300, "wait": True,
        }
        first_code, first = service.catalog_submit(payload, idempotency_key="k1")
        replay_code, replay = service.catalog_submit(payload, idempotency_key="k1")
        assert first_code == replay_code == 200
        assert replay["idempotent_replay"] is True
        assert replay["catalog_id"] == first["catalog_id"]
        assert replay["report"] == first["report"]
    finally:
        service.close()


def test_catalog_jobs_visible_in_job_api(catalog_db):
    service = DiscoveryService(workers=2)
    try:
        _, body = service.catalog_submit(
            {"source": {"kind": "sqlite", "path": catalog_db},
             "sample": 300, "wait": True}
        )
        for entry in body["tables"]:
            status_code, job_body = service.job_status(entry["job_id"])
            assert status_code == 200
            assert job_body["kind"] == "catalog"
            assert job_body["state"] == "done"
    finally:
        service.close()
