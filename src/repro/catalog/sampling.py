"""Seeded table sampling with covariance error bars.

A catalog sweep cannot afford to read every row of every table, but a
sample that is silently too small yields silently wrong FDs. The paper's
framing (§4) makes the covariance matrix the sufficient statistic of the
whole pipeline, so sampling adequacy is measured exactly there: after
drawing ``n`` rows, every entry of the sampled covariance gets a
plug-in standard error and the table is flagged ``adequate`` only when
the worst entry's error is within tolerance.

Samplers
--------
* :class:`ReservoirSampler` — Vitter's Algorithm R over a stream of row
  batches: a uniform ``k``-subset of the table in one pass, seeded.
* :class:`BlockSampler` — Algorithm R over whole *batches* (blocks):
  contiguous I/O and intact local row order, at the cost of bias when
  the table is sorted; the cheap alternative for huge tables.

Error bars
----------
Columns of the sampled matrix are standardized (zero mean, unit
variance), so covariance entries live on the correlation scale and one
tolerance applies to every table. For the entry ``S_jk = mean(z_j z_k)``
over ``n`` sampled rows, the plug-in standard error is::

    se_jk = sqrt( (mean((z_j z_k)^2) - S_jk^2) / n )

computed by summing, over the sample's fixed row chunks, the products
``ZᵀZ`` and ``(Z∘Z)ᵀ(Z∘Z)`` (``Z∘Z`` the elementwise square, whose
second-moment matrix is exactly ``Σ (z_j z_k)^2``). Both sums run in
chunk order, so the bars are deterministic. The error decays at the
~1/√n Monte-Carlo rate (the property the test suite pins down), and
``adequate = max_jk se_jk <= tolerance`` with the documented default
:data:`DEFAULT_TOLERANCE` = 0.05.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset.relation import Relation, concat_rows
from ..errors import CatalogError
from ..linalg.covariance import chunk_bounds
from .connector import DEFAULT_BATCH_ROWS, Connector

__all__ = [
    "DEFAULT_TOLERANCE",
    "BlockSampler",
    "ReservoirSampler",
    "TableSample",
    "covariance_standard_error",
    "sample_table",
]

#: Documented adequacy tolerance: the worst per-entry standard error of
#: the standardized sampled covariance must stay within this bound.
DEFAULT_TOLERANCE = 0.05

#: Row-chunk size of the error-bar sums.
_SE_CHUNK_ROWS = 2048

SAMPLER_METHODS = ("reservoir", "block")


class ReservoirSampler:
    """Seeded Algorithm R over streamed batches: uniform k-subset, one pass.

    Rows are fed as :class:`Relation` batches; :meth:`result` returns
    the retained rows **in source order** (sorted by original row
    index) so downstream discovery is deterministic in the seed alone.
    """

    def __init__(self, k: int, seed: int = 0) -> None:
        if k < 1:
            raise ValueError(f"sample size must be >= 1, got {k}")
        self.k = k
        self._rng = np.random.default_rng(seed)
        self._rows: list[tuple] = []      # the reservoir
        self._indices: list[int] = []     # source index of each slot
        self._seen = 0

    @property
    def n_seen(self) -> int:
        return self._seen

    def feed(self, batch: Relation) -> None:
        rows = list(batch.rows())
        m = len(rows)
        if m == 0:
            return
        start = self._seen
        fill = 0
        if len(self._rows) < self.k:
            fill = min(self.k - len(self._rows), m)
            self._rows.extend(tuple(r) for r in rows[:fill])
            self._indices.extend(range(start, start + fill))
        if fill < m:
            # Algorithm R, vectorized draw: row t (0-based global index)
            # replaces a uniform slot j ~ U[0, t] iff j < k. Replacements
            # apply in arrival order, preserving the sequential algorithm.
            t = np.arange(start + fill, start + m)
            draws = self._rng.integers(0, t + 1)
            for offset, slot in zip(np.nonzero(draws < self.k)[0], draws[draws < self.k]):
                i = fill + int(offset)
                self._rows[int(slot)] = tuple(rows[i])
                self._indices[int(slot)] = start + i
        self._seen += m

    def result(self, schema) -> Relation:
        order = np.argsort(self._indices, kind="stable")
        return Relation.from_rows(schema, [self._rows[int(i)] for i in order])


class BlockSampler:
    """Seeded Algorithm R over whole batches (blocks of contiguous rows).

    Keeps enough blocks to cover ``k`` rows, reservoir-sampling at block
    granularity; :meth:`result` concatenates the surviving blocks in
    source order and trims to ``k`` rows. Cheaper than row-level
    reservoir (no per-row bookkeeping, contiguous reads) but biased when
    row order correlates with content — the report records which method
    produced the sample for exactly this reason.
    """

    def __init__(self, k: int, seed: int = 0, block_rows: int = DEFAULT_BATCH_ROWS) -> None:
        if k < 1:
            raise ValueError(f"sample size must be >= 1, got {k}")
        self.k = k
        self.block_rows = max(1, block_rows)
        self._n_blocks = max(1, -(-k // self.block_rows))
        self._rng = np.random.default_rng(seed)
        self._blocks: list[tuple[int, Relation]] = []
        self._block_index = 0
        self._seen = 0

    @property
    def n_seen(self) -> int:
        return self._seen

    def feed(self, batch: Relation) -> None:
        if batch.n_rows == 0:
            return
        t = self._block_index
        if len(self._blocks) < self._n_blocks:
            self._blocks.append((t, batch))
        else:
            j = int(self._rng.integers(0, t + 1))
            if j < self._n_blocks:
                self._blocks[j] = (t, batch)
        self._block_index += 1
        self._seen += batch.n_rows

    def result(self, schema) -> Relation:
        if not self._blocks:
            return Relation(schema, {name: [] for name in schema.names})
        ordered = [block for _, block in sorted(self._blocks, key=lambda kv: kv[0])]
        merged = ordered[0] if len(ordered) == 1 else concat_rows(ordered)
        if merged.n_rows > self.k:
            merged = merged.select_rows(range(self.k))
        return merged


def _standardized_matrix(relation: Relation) -> np.ndarray:
    """Encode the sample as a standardized float matrix.

    Numeric columns use their values (missing → column mean); other
    columns use the relation's integer value codes (missing is its own
    code). Each column is then centered and scaled to unit variance
    (constant columns become zeros), putting every covariance entry on
    the correlation scale the tolerance is defined against.
    """
    n, p = relation.n_rows, relation.n_attributes
    X = np.empty((n, p), dtype=np.float64)
    for j, attr in enumerate(relation.schema.attributes):
        if attr.dtype.name == "NUMERIC":
            raw = relation.column(attr.name)
            col = np.array(
                [float(v) if v is not None else np.nan for v in raw], dtype=np.float64
            )
            if np.isnan(col).any():
                finite = col[~np.isnan(col)]
                col = np.nan_to_num(col, nan=float(finite.mean()) if finite.size else 0.0)
        else:
            col = relation.value_codes(attr.name).astype(np.float64)
        X[:, j] = col
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0.0] = 1.0
    return (X - mean) / std


def covariance_standard_error(
    Z: np.ndarray, chunk_rows: int = _SE_CHUNK_ROWS
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled covariance of standardized rows plus per-entry SE bars.

    Sums the products of fixed row chunks (values and elementwise
    squares) in chunk order — deterministic for any chunking, one pass
    over the sample.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[0] == 0:
        raise ValueError("need a non-empty 2-D sample matrix")
    n, p = Z.shape
    products = np.zeros((p, p))
    squares = np.zeros((p, p))
    for start, stop in chunk_bounds(n, chunk_rows):
        chunk = Z[start:stop]
        products += chunk.T @ chunk
        chunk_sq = chunk * chunk
        squares += chunk_sq.T @ chunk_sq
    S = products / n                     # E[z_j z_k] (columns are centered)
    Q = squares / n                      # E[(z_j z_k)^2]
    variance = np.clip(Q - S * S, 0.0, None)
    return S, np.sqrt(variance / n)


@dataclass
class TableSample:
    """One table's sample plus its adequacy statistics."""

    relation: Relation
    n_source_rows: int
    method: str
    seed: int
    covariance: np.ndarray
    standard_error: np.ndarray
    max_standard_error: float
    tolerance: float
    adequate: bool
    exact: bool  # the sample covers every source row

    @property
    def n_sampled(self) -> int:
        return self.relation.n_rows

    def summary(self) -> dict:
        """JSON-able adequacy record for reports (matrices elided to bars)."""
        return {
            "n_source_rows": self.n_source_rows,
            "n_sampled": self.n_sampled,
            "method": self.method,
            "seed": self.seed,
            "exact": self.exact,
            "tolerance": self.tolerance,
            "max_standard_error": round(float(self.max_standard_error), 6),
            "adequate": self.adequate,
            "standard_error": [
                [round(float(v), 6) for v in row] for row in self.standard_error
            ],
        }


def sample_table(
    connector: Connector,
    table: str,
    n_sample: int,
    *,
    method: str = "reservoir",
    seed: int = 0,
    batch_size: int = DEFAULT_BATCH_ROWS,
    tolerance: float = DEFAULT_TOLERANCE,
) -> TableSample:
    """Draw a seeded sample of ``table`` and score its adequacy.

    One streaming pass over the table's batches feeds the configured
    sampler; the retained rows then give the covariance error bars. A table with at most ``n_sample``
    rows is taken whole (``exact=True``) — its bars then measure
    estimate noise, not sampling loss, and small tables can still flag
    inadequate when ``n`` itself is too small for a stable covariance.
    """
    if method not in SAMPLER_METHODS:
        raise CatalogError(
            f"unknown sampling method {method!r}; options: {SAMPLER_METHODS}"
        )
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    info = connector.table_info(table)
    if method == "reservoir":
        sampler = ReservoirSampler(n_sample, seed=seed)
    else:
        sampler = BlockSampler(n_sample, seed=seed, block_rows=batch_size)
    schema = None
    for batch in connector.iter_batches(table, batch_size=batch_size):
        if schema is None:
            schema = batch.schema
        sampler.feed(batch)
    if schema is None or sampler.n_seen == 0:
        raise CatalogError(f"table {table!r} has no rows to sample")
    sample = sampler.result(schema)
    S, se = covariance_standard_error(_standardized_matrix(sample))
    max_se = float(se.max()) if se.size else 0.0
    return TableSample(
        relation=sample,
        n_source_rows=info.n_rows,
        method=method,
        seed=seed,
        covariance=S,
        standard_error=se,
        max_standard_error=max_se,
        tolerance=tolerance,
        adequate=max_se <= tolerance,
        exact=sample.n_rows >= info.n_rows,
    )
