"""Catalog-scale discovery: sweep every table of a database in one batch.

Layers (each its own module):

* :mod:`~repro.catalog.connector` — enumerate tables and stream row
  batches from a SQLite database or a directory of CSV files.
* :mod:`~repro.catalog.sampling` — seeded reservoir / block samplers
  with per-entry standard-error bars on the sampled covariance and an
  ``adequate`` flag (undersampled tables are flagged, never silent).
* :mod:`~repro.catalog.sweep` — one job per table, planned through the
  service's :class:`~repro.service.catalog.CatalogManager` on a private
  job manager (a job thread at one worker, supervised child processes
  above), with per-table timeouts and crash isolation; single-table
  failures become per-table error records, never sweep aborts.
* :mod:`~repro.catalog.report` — the consolidated :class:`CatalogReport`
  (per-table FDs + diagnostics + sampling adequacy, cross-table
  shared-key hints) with JSON and rendered-text output.

Entry points: ``python -m repro sweep`` (CLI) and ``POST /v1/catalog``
(service). See ``docs/CATALOG.md``.
"""

from .connector import (
    Connector,
    CsvDirectoryConnector,
    SqliteConnector,
    TableInfo,
    connector_from_spec,
    open_connector,
)
from .report import CatalogReport, TableReport, column_signature, shared_key_hints
from .sampling import (
    DEFAULT_TOLERANCE,
    BlockSampler,
    ReservoirSampler,
    TableSample,
    covariance_standard_error,
    sample_table,
)
from .sweep import SweepConfig, sweep

__all__ = [
    "BlockSampler",
    "CatalogReport",
    "Connector",
    "CsvDirectoryConnector",
    "DEFAULT_TOLERANCE",
    "ReservoirSampler",
    "SqliteConnector",
    "SweepConfig",
    "TableInfo",
    "TableReport",
    "TableSample",
    "column_signature",
    "connector_from_spec",
    "covariance_standard_error",
    "open_connector",
    "sample_table",
    "shared_key_hints",
    "sweep",
]
