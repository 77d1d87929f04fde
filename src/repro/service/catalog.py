"""Catalog sweeps as groups of per-table jobs: the one orchestrator.

:meth:`CatalogManager.plan` submits one
:class:`~repro.service.jobs.JobManager` job per table, so every piece of
machinery a single job has applies per table: the job's executor runs
the table inline or in a supervised child, its timeout bounds the
table, and a failure of any kind ends that job alone. ``POST
/v1/catalog`` (through :meth:`CatalogManager.submit`) and
:func:`repro.catalog.sweep` (on a private manager) both plan here, so a
failure becomes the same per-table error record either way. In the
service the journal records each table job, repeated worker-crashers
are quarantined by their stable ``<catalog_id>:<table>`` key, and
flight-recorder triggers fire on table-job crashes.

Status is incremental: while jobs run, :meth:`CatalogManager.status`
reports per-table states (queued/running/done/error); once every job is
terminal it assembles — exactly once — the consolidated
:class:`~repro.catalog.report.CatalogReport` (a table job that did not
finish becomes an error record typed by :attr:`Job.error_type`) and
caches it for subsequent polls.
"""

from __future__ import annotations

import threading
import time
import uuid

from ..catalog.connector import connector_from_spec
from ..catalog.report import CatalogReport, TableReport
from ..catalog.sweep import SweepConfig, _table_job
from ..errors import CatalogError
from ..obs.registry import MetricsRegistry
from ..obs.trace import Tracer
from ..resilience.faults import maybe_raise
from .jobs import DONE, Job, JobManager, TERMINAL_STATES

__all__ = ["CatalogManager", "CatalogRun"]

#: Config fields a ``POST /v1/catalog`` body may set; the parallelism
#: fields stay server-side (the job manager's workers/executor govern).
_CONFIG_FIELDS = (
    "sample", "method", "seed", "tolerance", "table_timeout",
    "max_key_size", "hyperparameters",
)


class CatalogRun:
    """One submitted sweep: the job group plus assembly state."""

    def __init__(self, catalog_id: str, source: dict, config: SweepConfig,
                 tables: list[str]) -> None:
        self.id = catalog_id
        self.source = source
        self.config = config
        self.tables = tables
        self.jobs: dict[str, Job] = {}
        self.submitted_at = time.monotonic()
        self.seconds: float | None = None
        self.final: dict | None = None   # assembled report, cached
        self.counted: set[str] = set()   # tables already metered
        self.lock = threading.Lock()


class CatalogManager:
    """Plans, tracks and assembles catalog sweeps over the job manager."""

    def __init__(
        self,
        jobs: JobManager,
        registry: MetricsRegistry,
        tracer: Tracer,
        max_runs: int = 64,
    ) -> None:
        self.jobs = jobs
        self.registry = registry
        self.tracer = tracer
        self.max_runs = max_runs
        self._runs: dict[str, CatalogRun] = {}
        self._lock = threading.Lock()

    # -- submission --------------------------------------------------------

    def submit(self, payload: dict) -> CatalogRun:
        """Validate the request, enumerate its tables and plan them.

        Raises :class:`CatalogError` for an unusable source or config
        (the service maps it to a 400).
        """
        if not isinstance(payload, dict):
            raise CatalogError("request body must be a JSON object")
        source = payload.get("source")
        if not isinstance(source, dict):
            raise CatalogError(
                "body needs a 'source' object, e.g. "
                '{"kind": "sqlite", "path": "/data/catalog.db"}'
            )
        config_fields = {
            key: payload[key] for key in _CONFIG_FIELDS if key in payload
        }
        unknown = set(payload) - set(_CONFIG_FIELDS) - {"source", "wait"}
        if unknown:
            raise CatalogError(
                f"unknown catalog request fields: {sorted(unknown)}"
            )
        config = SweepConfig.from_dict(config_fields)
        connector = connector_from_spec(source)
        try:
            names = connector.table_names()
            spec = connector.spec()
            describe = connector.describe()
        finally:
            connector.close()
        if not names:
            raise CatalogError(f"source {describe} has no tables to sweep")
        return self.plan(spec, describe, names, config)

    def plan(self, spec: dict, describe: str, names: list[str],
             config: SweepConfig) -> CatalogRun:
        """Submit one job per table of ``names``; the run tracks them."""
        run = CatalogRun(
            catalog_id=uuid.uuid4().hex[:12],
            source={"describe": describe, **spec},
            config=config,
            tables=names,
        )
        config_dict = config.to_dict()
        try:
            for name in names:
                task = {"source": spec, "table": name, "config": config_dict}
                run.jobs[name] = self.jobs.submit(
                    self._make_run(run.id, task),
                    timeout=config.table_timeout,
                    kind="catalog",
                    key=f"{run.id}:{name}",
                )
        except Exception:
            # Partial plan (queue filled / quarantine mid-loop): cancel
            # what was admitted so the rejected sweep leaves no orphans.
            for job in run.jobs.values():
                job.cancel()
            raise
        with self._lock:
            self._runs[run.id] = run
            # Bounded history: forget the oldest *finished* runs first.
            while len(self._runs) > self.max_runs:
                for stale_id, stale in list(self._runs.items()):
                    if stale.final is not None and stale_id != run.id:
                        del self._runs[stale_id]
                        break
                else:
                    break
        return run

    def _make_run(self, catalog_id: str, task: dict):
        """Job body for one table (closure; the worker fn is picklable)."""

        def body() -> dict:
            table = task["table"]
            with self.tracer.span(
                "catalog.table", table=table, catalog_id=catalog_id,
                executor=self.jobs.executor_mode,
            ):
                # Fires in the job, before any child starts, so a times=1
                # plan fails exactly one table whatever the executor.
                maybe_raise(
                    "catalog.table", f"injected failure for table {table!r}"
                )
                timeout = task["config"].get("table_timeout")
                return self.jobs.run_in_worker(
                    _table_job, (task,),
                    timeout=(timeout if timeout is not None
                             else self.jobs.default_timeout),
                )

        return body

    # -- status / assembly -------------------------------------------------

    def get(self, catalog_id: str) -> CatalogRun | None:
        with self._lock:
            return self._runs.get(catalog_id)

    def wait(self, run: CatalogRun) -> None:
        for job in run.jobs.values():
            job.wait()

    def status(self, run: CatalogRun) -> dict:
        """Incremental per-table view; the final report once all terminal."""
        with run.lock:
            return self._status_locked(run)

    def _status_locked(self, run: CatalogRun) -> dict:
        states: list[dict] = []
        n_done = n_error = 0
        all_terminal = True
        for name in run.tables:
            job = run.jobs[name]
            state = job.state
            entry = {"table": name, "job_id": job.id, "state": state}
            if state == DONE:
                n_done += 1
            elif state in TERMINAL_STATES:
                n_error += 1
                entry["error"] = job.error
            else:
                all_terminal = False
            states.append(entry)
            if state in TERMINAL_STATES and name not in run.counted:
                run.counted.add(name)
                self.registry.counter(
                    "catalog_tables_total",
                    labels={"status": "ok" if state == DONE else "error"},
                    help="Tables processed by catalog sweeps",
                ).inc()
        body = {
            "catalog_id": run.id,
            "source": dict(run.source),
            "config": run.config.to_dict(),
            "tables": states,
            "counts": {
                "total": len(run.tables),
                "done": n_done,
                "error": n_error,
                "pending": len(run.tables) - n_done - n_error,
            },
            "complete": all_terminal,
        }
        if all_terminal:
            if run.final is None:
                run.seconds = time.monotonic() - run.submitted_at
                run.final = self._assemble(run)
                self.registry.histogram(
                    "catalog_sweep_seconds",
                    help="Wall-clock seconds per catalog sweep",
                ).observe(run.seconds)
            body["report"] = run.final
        return body

    def _assemble(self, run: CatalogRun) -> dict:
        reports: list[TableReport] = []
        for name in run.tables:
            job = run.jobs[name]
            if job.state == DONE and isinstance(job.result, dict):
                reports.append(TableReport.from_dict(job.result))
            else:
                reports.append(TableReport.from_error(
                    name,
                    job.error_type or job.state,
                    job.error or f"table job ended in state {job.state}",
                ))
        report = CatalogReport(
            source=dict(run.source),
            config=run.config.to_dict(),
            tables=reports,
            seconds=run.seconds or 0.0,
        )
        return report.finalize().to_dict()
