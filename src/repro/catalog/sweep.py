"""Sweep orchestration: one discovery job per table.

:func:`sweep` plans one job per table (the connector's sorted table
list) through :class:`repro.service.catalog.CatalogManager`, the
orchestrator ``POST /v1/catalog`` uses too, on a private
:class:`~repro.service.jobs.JobManager` of ``workers`` slots. A table
whose job raises, crashes, times out or is cancelled becomes a
per-table **error record** in the report — a single bad table never
aborts the catalog.

``workers`` alone decides where the tables run:

* ``workers == 1`` — on the manager's one job thread, one at a time;
  the reference path.
* ``workers > 1`` — the manager's process executor: each table in its
  own supervised child process, ``workers`` at a time. A child dies
  alone on a crash (``WorkerCrashError`` → error record), and its trace
  spans are stitched back under its table's span.

``table_timeout`` bounds every table at any worker count: a table job
past its deadline is a ``TaskTimeoutError`` record (its child is
terminated; on the job thread the observed deadline sets the job's
cancel token, which the pipeline polls at stage boundaries).
Tables never run on threads in parallel: each table is one CPU-bound
Python/NumPy pipeline, and on threads the tables contend for the GIL
(measured slower than serial; see docs/PARALLEL.md). Inside each table
job the discovery runs the FDX fallback ladder, so solver trouble
degrades within the table before its job ever fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.fdx import FDX
from ..constraints.keys import discover_keys
from ..errors import CatalogError
from ..obs.registry import MetricsRegistry, get_registry
from ..obs.trace import Tracer, get_tracer
from .connector import DEFAULT_BATCH_ROWS, Connector, connector_from_spec
from .report import CatalogReport, column_signature
from .sampling import DEFAULT_TOLERANCE, sample_table

__all__ = ["SweepConfig", "sweep"]

#: Levelwise key search budget per table; keys are a report garnish, not
#: the sweep's product, so they never dominate a table's wall time.
KEY_TIME_LIMIT = 2.0


@dataclass
class SweepConfig:
    """Everything a sweep (and each of its table jobs) needs to know.

    ``hyperparameters`` is forwarded to :class:`repro.FDX` verbatim
    (``lam``, ``sparsity``, ``seed``, ...) and checked here, so a bad
    value fails the sweep once instead of every table. Parallelism lives
    at the table level (``workers``; above 1, each table runs in its own
    child process), ``table_timeout`` bounds each table at any worker
    count, and each table's discovery is one serial pipeline.
    """

    sample: int = 10_000
    method: str = "reservoir"  # "reservoir" | "block"
    seed: int = 0
    batch_size: int = DEFAULT_BATCH_ROWS
    tolerance: float = DEFAULT_TOLERANCE
    workers: int = 1
    table_timeout: float | None = None
    max_key_size: int = 2
    hyperparameters: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise CatalogError(f"workers must be >= 1, got {self.workers}")
        if self.sample < 2:
            raise CatalogError(f"sample size must be >= 2 rows, got {self.sample}")
        try:
            FDX(**self.hyperparameters)
        except (TypeError, ValueError) as exc:
            raise CatalogError(f"bad FDX hyperparameters: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "sample": self.sample,
            "method": self.method,
            "seed": self.seed,
            "batch_size": self.batch_size,
            "tolerance": self.tolerance,
            "workers": self.workers,
            "table_timeout": self.table_timeout,
            "max_key_size": self.max_key_size,
            "hyperparameters": dict(self.hyperparameters),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepConfig":
        if not isinstance(payload, dict):
            raise CatalogError(
                f"sweep config must be a dict, got {type(payload).__name__}"
            )
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise CatalogError(
                f"unknown sweep config fields: {sorted(unknown)}; "
                f"options: {sorted(known)}"
            )
        return cls(**payload)


def _serialize_keys(result) -> dict:
    return {
        "possible": [sorted(key) for key in sorted(result.possible_keys, key=sorted)],
        "certain": [sorted(key) for key in sorted(result.certain_keys, key=sorted)],
        "candidates_checked": result.candidates_checked,
    }


def _table_job(task: dict) -> dict:
    """Run one table end-to-end; module-level so process workers can pickle it.

    ``task`` carries the connector spec, the table name and the sweep
    config as plain dicts — the worker rebuilds its own connector
    (handles never cross the process boundary).
    """
    start = time.perf_counter()
    table = task["table"]
    config = SweepConfig.from_dict(task["config"])
    connector = connector_from_spec(task["source"])
    try:
        info = connector.table_info(table)
        sample = sample_table(
            connector,
            table,
            config.sample,
            method=config.method,
            seed=config.seed,
            batch_size=config.batch_size,
            tolerance=config.tolerance,
        )
    finally:
        connector.close()
    relation = sample.relation
    result = FDX(**config.hyperparameters).discover(relation).to_dict()
    keys = discover_keys(
        relation, max_size=config.max_key_size, time_limit=KEY_TIME_LIMIT
    )
    signatures = [
        column_signature(relation, name) for name in relation.schema.names
    ]
    return {
        "table": table,
        "status": "ok",
        "info": info.to_dict(),
        "sampling": sample.summary(),
        "fds": result["fds"],
        "diagnostics": result["diagnostics"],
        "keys": _serialize_keys(keys),
        "signatures": signatures,
        "seconds": time.perf_counter() - start,
    }


def sweep(
    connector: Connector,
    config: SweepConfig | None = None,
    *,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> CatalogReport:
    """Sweep every table of ``connector`` and consolidate the report.

    Tables are planned in sorted-name order as jobs of a private
    :class:`~repro.service.jobs.JobManager` (``workers`` slots; child
    processes above 1), which is shut down before the report returns.
    """
    # Imported here: repro.service imports repro.catalog.
    from ..service.catalog import CatalogManager
    from ..service.jobs import JobManager

    config = config if config is not None else SweepConfig()
    registry = registry if registry is not None else get_registry()
    tracer = tracer if tracer is not None else get_tracer()
    names = connector.table_names()
    describe = connector.describe()
    jobs = JobManager(
        workers=config.workers,
        executor="process" if config.workers > 1 else "thread",
        default_timeout=None,
        registry=registry,
        tracer=tracer,
    )
    try:
        catalogs = CatalogManager(jobs, registry, tracer)
        with tracer.span(
            "catalog.sweep", source=describe, tables=len(names),
            workers=config.workers,
        ):
            run = catalogs.plan(connector.spec(), describe, names, config)
            catalogs.wait(run)
        report = catalogs.status(run)["report"]
    finally:
        jobs.shutdown()
    return CatalogReport.from_dict(report)
