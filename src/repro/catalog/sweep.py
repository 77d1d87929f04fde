"""Sweep orchestration: one guarded discovery job per table.

The sweep plans one task per table (the connector's sorted table list)
and *guards* every task: a table whose job raises, crashes, times out
or is cancelled becomes a per-table **error record** in the report — a
single bad table never aborts the catalog.

``workers`` alone decides the fan-out:

* ``workers == 1`` — tables run inline, one at a time; the reference
  path.
* ``workers > 1`` — each table runs in its own supervised
  :func:`~repro.parallel.worker.run_in_process` child, and a stdlib
  ``ThreadPoolExecutor`` of ``workers`` threads supervises the
  children. A child gets its own cancel token and the ``table_timeout``
  budget, dies alone on a crash (``WorkerCrashError`` → error record),
  and its trace spans are stitched back under its table's span.

Tables never run on threads in one interpreter: each table is one
CPU-bound Python/NumPy pipeline, and on threads the tables contend for
the GIL (measured slower than serial; see docs/PARALLEL.md). Inside each
table job the discovery runs the FDX fallback ladder, so solver trouble
degrades within the table before the guard ever sees it.

The fault point ``catalog.table`` fires in each table's *guard* (parent
side, so an injected ``times=1`` plan fails exactly one table whatever
``workers`` is); ``parallel.worker_crash`` fires inside the children
for hard-crash isolation. The chaos tests use both to prove injected
failures yield error records, never sweep aborts.
"""

from __future__ import annotations

import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..core.fdx import FDX
from ..constraints.keys import discover_keys
from ..errors import CatalogError
from ..obs.registry import MetricsRegistry, get_registry
from ..obs.trace import Tracer, get_tracer
from ..parallel.worker import run_in_process
from ..resilience.cancel import CancelToken, set_current_cancel_token
from ..resilience.faults import maybe_raise
from .connector import DEFAULT_BATCH_ROWS, Connector, connector_from_spec
from .report import CatalogReport, TableReport, column_signature
from .sampling import DEFAULT_TOLERANCE, sample_table

__all__ = ["SweepConfig", "sweep"]

#: Levelwise key search budget per table; keys are a report garnish, not
#: the sweep's product, so they never dominate a table's wall time.
KEY_TIME_LIMIT = 2.0


@dataclass
class SweepConfig:
    """Everything a sweep (and each of its table jobs) needs to know.

    ``hyperparameters`` is forwarded to :class:`repro.FDX` verbatim
    (``lam``, ``sparsity``, ``seed``, ...). Parallelism lives at the
    table level (``workers``; above 1, each table runs in its own child
    process under ``table_timeout``); each table's discovery is one
    serial pipeline.
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


class _LinkedToken(CancelToken):
    """Per-table token that also trips when the sweep-level token does."""

    __slots__ = ("_parent",)

    def __init__(self, parent: CancelToken | None = None) -> None:
        super().__init__()
        self._parent = parent

    def is_set(self) -> bool:
        if super().is_set():
            return True
        if self._parent is not None and self._parent.is_set():
            self.set(self._parent.reason)
            return True
        return False

    def raise_if_cancelled(self) -> None:
        if self.is_set():
            super().raise_if_cancelled()


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


def _guarded_table(
    task: dict,
    *,
    in_child: bool,
    token: CancelToken,
    timeout: float | None,
    registry: MetricsRegistry,
    tracer: Tracer,
) -> dict:
    """Run one table under its guard: any failure -> an error record.

    ``in_child`` runs the job in a supervised child process under
    ``timeout``; otherwise it runs inline under ``token``.
    """
    table = task["table"]
    start = time.perf_counter()
    try:
        with tracer.span("catalog.table", table=table):
            token.raise_if_cancelled()
            maybe_raise("catalog.table", f"injected failure for table {table!r}")
            if in_child:
                record = run_in_process(
                    _table_job,
                    (task,),
                    cancel_token=token,
                    timeout=timeout,
                    registry=registry,
                    tracer=tracer,
                )
            else:
                reset = set_current_cancel_token(token)
                try:
                    record = _table_job(task)
                finally:
                    reset.var.reset(reset)
        status = "ok"
    except Exception as exc:  # the guard: one table, one record
        record = TableReport.from_error(
            table,
            type(exc).__name__,
            str(exc),
            seconds=time.perf_counter() - start,
        ).to_dict()
        status = "error"
    registry.counter(
        "catalog_tables_total",
        labels={"status": status},
        help="Tables processed by catalog sweeps",
    ).inc()
    return record


def sweep(
    connector: Connector,
    config: SweepConfig | None = None,
    *,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    cancel_token: CancelToken | None = None,
) -> CatalogReport:
    """Sweep every table of ``connector`` and consolidate the report.

    Tables are planned in sorted-name order; each runs under its own
    guard (and, with ``workers > 1``, its own supervised child with a
    cancel token and timeout). ``cancel_token`` — typically a service
    job's — trips every per-table token, so cancellation drains fast but
    still yields a report whose unfinished tables are ``cancelled``
    error records rather than silence.
    """
    config = config if config is not None else SweepConfig()
    registry = registry if registry is not None else get_registry()
    tracer = tracer if tracer is not None else get_tracer()
    start = time.perf_counter()
    names = connector.table_names()
    source_spec = connector.spec()
    config_dict = config.to_dict()
    tasks = [
        {"source": source_spec, "table": name, "config": config_dict}
        for name in names
    ]

    def run_one(task: dict) -> dict:
        return _guarded_table(
            task,
            in_child=config.workers > 1,
            token=_LinkedToken(cancel_token),
            timeout=config.table_timeout,
            registry=registry,
            tracer=tracer,
        )

    with tracer.span(
        "catalog.sweep",
        source=connector.describe(),
        tables=len(names),
        workers=config.workers,
    ):
        if config.workers == 1:
            records = [run_one(task) for task in tasks]
        else:
            # The pool threads only supervise children. Each task runs in
            # a copy of this context, so its catalog.table span nests
            # under catalog.sweep and keeps its trace id. The guard turns
            # every failure into a record, so no future raises.
            with ThreadPoolExecutor(
                max_workers=config.workers, thread_name_prefix="repro-sweep"
            ) as pool:
                futures = [
                    pool.submit(contextvars.copy_context().run, run_one, task)
                    for task in tasks
                ]
                records = [future.result() for future in futures]

    seconds = time.perf_counter() - start
    registry.histogram(
        "catalog_sweep_seconds",
        help="Wall-clock seconds per catalog sweep",
    ).observe(seconds)
    report = CatalogReport(
        source={"describe": connector.describe(), **source_spec},
        config=config_dict,
        tables=[TableReport.from_dict(record) for record in records],
        seconds=seconds,
    )
    return report.finalize()
