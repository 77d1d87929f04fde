"""Incremental FD discovery over growing data (extension).

The paper's related work (§6) discusses dynamic FD discovery (DynFD);
FDX's statistical formulation makes the incremental case natural: the
only data-dependent state is the second-moment matrix of the transformed
sample, which is additive over batches. :class:`IncrementalFDX`
accumulates each batch's block-centered scatter ``XᵀX − MᵀM / r`` (the
batch estimator's, :func:`repro.linalg.covariance.block_centered_scatter`)
and the sample count as row batches arrive and can
produce up-to-date FDs at any point without revisiting old rows: the
accumulated covariance and its (decayed) sample count go straight to
structure learning, which takes nothing else.

Each batch is transformed independently (Algorithm 2 within the batch,
block-centered), so the estimate converges to the batch estimate as
batch sizes grow while the per-update cost stays proportional to the
batch, not the history.

The module separates the *stateful* accumulator from the *stateless*
solve: :meth:`IncrementalFDX.snapshot` freezes the accumulated
statistics into an immutable :class:`StreamStats`, and
:func:`discover_from_stats` turns any such snapshot into an
:class:`FDXResult` — optionally warm-started from a previous precision
matrix. The streaming service builds on exactly this split: it
snapshots under the session lock and solves outside it, so appends
never wait on a refresh.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..dataset.relation import MISSING, Relation
from ..dataset.schema import Attribute, AttributeType, Schema
from ..linalg.covariance import block_centered_scatter
from ..obs.profile import StageClock
from ..obs.trace import Tracer
# generate_fds is not called here (build_result generates the FDs); it
# stays importable because perfbench/tracing.py patches it by this name.
from .fdx import FDXResult, build_result, generate_fds  # noqa: F401
from .structure import learn_structure
from .transform import pair_difference_transform
# Not called here (block_centered_scatter centers the blocks from the 0/1
# counts); it stays importable because perfbench/tracing.py patches it
# by this name.
from .transform import center_within_blocks  # noqa: F401


@dataclass(frozen=True)
class BatchUpdate:
    """What one :meth:`IncrementalFDX.add_batch` call contributed.

    ``outer`` is the batch's own (undecayed) second-moment matrix — the
    drift detector's sliding window is built from these. ``None`` is
    returned instead when the batch was buffered or empty.
    """

    n_rows: int
    n_samples: int
    outer: np.ndarray


@dataclass(frozen=True)
class StreamStats:
    """An immutable snapshot of accumulated streaming statistics.

    This is the complete input of the stateless solve: holders can call
    :func:`discover_from_stats` on it at any time without touching the
    accumulator it came from (the arrays are copies).
    """

    schema: Schema
    sum_outer: np.ndarray
    n_samples: float
    n_rows_seen: int
    n_batches: int

    def covariance(self) -> np.ndarray:
        """The (centered) second-moment estimate this snapshot implies."""
        if self.n_samples <= 0:
            raise RuntimeError("snapshot holds no accumulated samples")
        return self.sum_outer / self.n_samples


def discover_from_stats(
    stats: StreamStats,
    lam: float = 0.02,
    sparsity: float = 0.05,
    ordering: str = "natural",
    shrinkage: float = 0.01,
    warm_start: np.ndarray | None = None,
    tracer: Tracer | None = None,
) -> FDXResult:
    """Stateless solve: FDs implied by a :class:`StreamStats` snapshot.

    The snapshot's covariance and sample count go to structure learning
    as they are, and the batch result path assembles the result.
    ``warm_start`` (a previous solve's precision matrix) threads through
    to the graphical lasso's ``Theta0`` initialization — on a refresh
    whose statistics moved only slightly, the solver converges in one or
    two outer sweeps instead of re-deriving the structure cold.
    """
    clock = StageClock(tracer)
    started = time.perf_counter()
    estimate = learn_structure(
        stats.covariance(),
        stats.n_samples,
        lam=lam,
        ordering=ordering,
        shrinkage=shrinkage,
        clock=clock,
        warm_start=warm_start,
    )
    return build_result(
        estimate, stats.schema.names, clock,
        started=started,
        sparsity=sparsity,
        n_pair_samples=int(stats.n_samples),
        n_rows=stats.n_rows_seen,
        diagnostics={
            "incremental": True,
            "n_batches": stats.n_batches,
            "warm_start": warm_start is not None,
        },
    )


# -- checkpoint helpers (JSON-friendly relation/schema state) ----------------

def _schema_to_state(schema: Schema) -> list[dict]:
    return [{"name": a.name, "dtype": a.dtype.value} for a in schema.attributes]


def _schema_from_state(state: list[dict]) -> Schema:
    return Schema(
        [Attribute(str(a["name"]), AttributeType(a["dtype"])) for a in state]
    )


def _relation_to_state(relation: Relation) -> dict:
    return {
        "attributes": _schema_to_state(relation.schema),
        "columns": {
            name: [None if v is MISSING else v for v in relation.column(name)]
            for name in relation.schema.names
        },
    }


def _relation_from_state(state: dict) -> Relation:
    return Relation(_schema_from_state(state["attributes"]), state["columns"])


class IncrementalFDX:
    """Streaming FDX: feed row batches, ask for FDs at any time.

    Parameters mirror :class:`repro.core.fdx.FDX`; ``min_batch_rows``
    batches smaller than this are buffered until enough rows accumulate
    (the transform needs enough rows per batch for meaningful pairs).
    :meth:`discover` force-flushes that buffer first, so the tail rows of
    a stream are never silently excluded from the answer.

    ``decay`` in ``(0, 1]`` is an exponential forgetting factor applied to
    the accumulated statistics before each batch update: 1.0 weighs all
    history equally (the convergent setting); smaller values track
    concept drift — dependencies broken upstream fade from the output at
    a rate set by the decay.
    """

    def __init__(
        self,
        lam: float = 0.02,
        sparsity: float = 0.05,
        ordering: str = "natural",
        shrinkage: float = 0.01,
        min_batch_rows: int = 50,
        decay: float = 1.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.lam = lam
        self.sparsity = sparsity
        self.ordering = ordering
        self.shrinkage = shrinkage
        self.min_batch_rows = min_batch_rows
        self.decay = decay
        self.seed = seed
        self._schema: Schema | None = None
        self._sum_outer: np.ndarray | None = None
        self._n_samples = 0
        self._n_rows_seen = 0
        self._n_batches = 0
        self._pending: Relation | None = None

    # -- state -------------------------------------------------------------

    @property
    def n_rows_seen(self) -> int:
        """Total input rows consumed (including buffered ones)."""
        pending = self._pending.n_rows if self._pending is not None else 0
        return self._n_rows_seen + pending

    @property
    def n_pair_samples(self) -> int:
        """Accumulated transformed samples."""
        return int(self._n_samples)

    @property
    def n_batches(self) -> int:
        return self._n_batches

    def reset(self) -> None:
        """Forget all accumulated statistics."""
        self._schema = None
        self._sum_outer = None
        self._n_samples = 0
        self._n_rows_seen = 0
        self._n_batches = 0
        self._pending = None

    def snapshot(self, flush: bool = True) -> StreamStats:
        """Freeze the accumulated statistics into a :class:`StreamStats`.

        With ``flush`` (default) the ``min_batch_rows`` buffer is folded
        in first, so the snapshot covers every row the stream has seen.
        Raises ``RuntimeError`` when nothing usable has accumulated yet.
        """
        if self._schema is None:
            raise RuntimeError("no data accumulated yet; call add_batch() first")
        if flush:
            self._flush_pending()
        if self._sum_outer is None or self._n_samples <= 0:
            raise RuntimeError("not enough rows accumulated to discover FDs")
        return StreamStats(
            schema=self._schema,
            sum_outer=self._sum_outer.copy(),
            n_samples=self._n_samples,
            n_rows_seen=self._n_rows_seen,
            n_batches=self._n_batches,
        )

    def state_dict(self) -> dict:
        """JSON-serializable accumulator state (checkpoint payload).

        The inverse is :meth:`load_state`; hyperparameters are *not*
        included — they belong to whoever constructs the engine.
        """
        return {
            "schema": (
                _schema_to_state(self._schema) if self._schema is not None else None
            ),
            "sum_outer": (
                self._sum_outer.tolist() if self._sum_outer is not None else None
            ),
            "n_samples": float(self._n_samples),
            "n_rows_seen": self._n_rows_seen,
            "n_batches": self._n_batches,
            "pending": (
                _relation_to_state(self._pending) if self._pending is not None else None
            ),
        }

    def load_state(self, state: dict) -> None:
        """Restore accumulator state from a :meth:`state_dict` payload."""
        schema = state.get("schema")
        self._schema = _schema_from_state(schema) if schema is not None else None
        sum_outer = state.get("sum_outer")
        self._sum_outer = (
            np.asarray(sum_outer, dtype=np.float64) if sum_outer is not None else None
        )
        self._n_samples = float(state.get("n_samples", 0.0))
        self._n_rows_seen = int(state.get("n_rows_seen", 0))
        self._n_batches = int(state.get("n_batches", 0))
        pending = state.get("pending")
        self._pending = _relation_from_state(pending) if pending is not None else None

    # -- updates -------------------------------------------------------------

    def add_batch(self, batch: Relation) -> BatchUpdate | None:
        """Consume a batch of new rows.

        Batches smaller than ``min_batch_rows`` are buffered and merged
        with the next batch so that the within-batch transform always has
        enough rows to form representative pairs. An empty batch is a
        no-op (it does not even pin the schema), so pollers that flush
        whatever they have cannot wedge the stream.

        Returns the batch's own contribution (:class:`BatchUpdate`) when
        the statistics were updated, or ``None`` when the rows were only
        buffered — drift detectors feed their sliding window from these.
        """
        if batch.n_rows == 0:
            return None
        if self._schema is None:
            self._schema = batch.schema
        elif batch.schema != self._schema:
            raise ValueError("batch schema does not match the accumulated schema")
        if self._pending is not None:
            from ..dataset.relation import concat_rows

            batch = concat_rows([self._pending, batch])
            self._pending = None
        if batch.n_rows < max(self.min_batch_rows, 2):
            self._pending = batch
            return None
        rng = np.random.default_rng(self.seed + self._n_batches)
        samples = pair_difference_transform(batch, rng)
        outer = block_centered_scatter(samples, batch.n_attributes)
        if self._sum_outer is None:
            self._sum_outer = outer.copy()
        else:
            self._sum_outer = self.decay * self._sum_outer + outer
            self._n_samples = self.decay * self._n_samples
        self._n_samples += samples.shape[0]
        self._n_rows_seen += batch.n_rows
        self._n_batches += 1
        return BatchUpdate(
            n_rows=batch.n_rows, n_samples=samples.shape[0], outer=outer
        )

    def _flush_pending(self) -> None:
        """Fold the buffered tail into the accumulated statistics.

        A single buffered row stays buffered — the pair-difference
        transform needs at least two rows to form a pair.
        """
        if self._pending is None or self._pending.n_rows < 2:
            return
        pending, self._pending = self._pending, None
        saved = self.min_batch_rows
        self.min_batch_rows = 2
        try:
            self.add_batch(pending)
        finally:
            self.min_batch_rows = saved

    # -- queries -------------------------------------------------------------

    def covariance(self) -> np.ndarray:
        """Current (centered) second-moment estimate."""
        if self._sum_outer is None or self._n_samples == 0:
            raise RuntimeError("no data accumulated yet; call add_batch() first")
        return self._sum_outer / self._n_samples

    def discover(self, warm_start: np.ndarray | None = None) -> FDXResult:
        """FDs implied by everything consumed so far.

        The ``min_batch_rows`` buffer is flushed first, so tail rows that
        never filled a batch still count. ``warm_start`` threads a
        previous precision matrix into the solver (see
        :func:`discover_from_stats`).
        """
        return discover_from_stats(
            self.snapshot(flush=True),
            lam=self.lam,
            sparsity=self.sparsity,
            ordering=self.ordering,
            shrinkage=self.shrinkage,
            warm_start=warm_start,
        )

