"""FDX: FD discovery via structure learning (paper Algorithm 1).

End-to-end pipeline::

    Dt    = Transform(D')            # Algorithm 2, repro.core.transform
    Theta = GraphicalLasso(cov(Dt))  # repro.linalg.glasso
    U,D   = udu(Theta[perm, perm])   # ordered factorization
    B     = I - U                    # autoregression matrix
    FDs   = GenerateFDs(B)           # Algorithm 3, generate_fds below

Usage::

    from repro import FDX
    result = FDX().discover(relation)
    for fd in result.fds:
        print(fd)
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ..dataset.relation import Relation
from ..dataset.schema import AttributeType
from ..errors import (
    DegenerateColumnError,
    EmptyRelationError,
    InputValidationError,
    InsufficientRowsError,
)
from ..linalg.ordering import ORDERING_METHODS
from ..obs.explain import build_evidence
from ..obs.profile import MemoryTracker, StageClock
from ..obs.trace import Tracer, get_tracer
from ..resilience.cancel import current_cancel_token
from .fd import FD
from .structure import (
    StructureEstimate,
    learn_structure_resilient,
    sample_covariance,
)
from .transform import pair_difference_transform, uniform_pair_transform
# Not called here (sample_covariance centers the blocks from the 0/1
# counts); it stays importable because perfbench/tracing.py patches it
# by this name.
from .transform import center_within_blocks  # noqa: F401

#: Magnitudes below this are treated as structural zeros of ``B`` even when
#: the user-facing sparsity threshold is 0 (paper Table 8's "0" column).
NUMERICAL_ZERO = 1e-8


def check_cell_values(relation: Relation) -> None:
    """Raise :class:`repro.errors.InputValidationError`, naming the
    column, for a cell the transform cannot encode: a value that cannot
    be hashed (a list or a dict), or a numeric column's value that
    ``float()`` rejects.

    No pass over the cells is added: building the (cached)
    :meth:`Relation.value_codes` hashes every cell anyway, and ``float()``
    sees only each numeric column's distinct values.
    """
    for attr in relation.schema:
        try:
            codes = relation.value_codes(attr.name)
        except TypeError as exc:
            raise InputValidationError(
                f"column {attr.name!r} holds a value that is not a scalar "
                f"({exc}); cells must be numbers, strings, booleans or null"
            ) from None
        if attr.dtype is AttributeType.NUMERIC:
            # Codes count up in first-seen order (missing is -1), so a value
            # first appears where its code exceeds every code before it.
            seen = np.maximum.accumulate(codes)
            first = np.flatnonzero(codes > np.concatenate(([-1], seen[:-1])))
            try:
                # numpy's object-to-float cast calls float() on each value.
                relation._column_view(attr.name)[first].astype(np.float64)
            except (TypeError, ValueError, OverflowError) as exc:
                raise InputValidationError(
                    f"numeric column {attr.name!r} holds a value that does not "
                    f"convert to a float ({exc})"
                ) from None


def validate_relation(relation: Relation, strict: bool = False) -> list[str]:
    """Pre-math input guard for :meth:`FDX.discover`.

    Raises a typed, actionable error for inputs the pipeline cannot
    process at all:

    * :class:`repro.errors.EmptyRelationError` — zero rows;
    * :class:`repro.errors.InsufficientRowsError` — one row (the
      pair-difference transform needs at least one tuple *pair*);
    * :class:`repro.errors.InputValidationError` — a cell the transform
      cannot encode (:func:`check_cell_values`).

    Degenerate-but-processable columns — constant, entirely missing, or
    exact duplicates of an earlier column — are returned as warning
    strings (surfaced in ``diagnostics["input_warnings"]``). They skew
    the estimated structure rather than crash it, so they only become
    errors under ``strict=True`` (:class:`repro.errors.DegenerateColumnError`,
    which carries the same strings as ``.findings``).
    """
    if relation.n_rows == 0:
        raise EmptyRelationError(
            "relation has no rows; FD discovery needs data to learn from "
            "(check the input file or upstream filter)"
        )
    if relation.n_rows == 1:
        raise InsufficientRowsError(
            "relation has a single row; the pair-difference transform "
            "(paper Algorithm 2) needs at least two rows to form a tuple pair"
        )
    check_cell_values(relation)
    warnings: list[str] = []
    seen: dict[bytes, str] = {}
    for name in relation.schema.names:
        codes = relation.value_codes(name)
        if (codes == -1).all():
            warnings.append(
                f"column {name!r} is entirely missing; it carries no FD signal"
            )
            continue
        non_missing = codes[codes != -1]
        if non_missing.size and (non_missing == non_missing[0]).all():
            warnings.append(
                f"column {name!r} is constant; constant columns are trivially "
                "determined by everything and dilute the sparsity budget"
            )
        digest = codes.tobytes()
        if digest in seen:
            warnings.append(
                f"column {name!r} duplicates column {seen[digest]!r}; "
                "duplicates are mutually determined and can mask other FDs"
            )
        else:
            seen[digest] = name
    if strict and warnings:
        raise DegenerateColumnError(
            "strict validation rejected degenerate columns: "
            + "; ".join(warnings),
            findings=warnings,
        )
    return warnings


@dataclass
class FDXResult:
    """Everything FDX produces for one input relation.

    Its durations are views of ``diagnostics["stage_seconds"]``, the
    run's one clock, so they cannot disagree with it.
    """

    fds: list[FD]
    attribute_order: list[str]
    autoregression: np.ndarray  # B in schema (original) attribute order
    precision: np.ndarray
    covariance: np.ndarray
    n_pair_samples: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Wall seconds of the discovery: the sum of its stages."""
        return sum(self.diagnostics.get("stage_seconds", {}).values())

    @property
    def transform_seconds(self) -> float:
        """Seconds of the tuple-pair transform stage."""
        return self.diagnostics.get("stage_seconds", {}).get("transform", 0.0)

    @property
    def model_seconds(self) -> float:
        """Seconds of structure learning and FD generation, without the
        transform: paper Figure 6's model runtime."""
        stages = self.diagnostics.get("stage_seconds", {})
        return sum(
            stages.get(key, 0.0)
            for key in ("covariance", "glasso", "factorization", "fd_generation")
        )

    def fd_for(self, attribute: str) -> FD | None:
        """The discovered FD determining ``attribute``, if any."""
        for fd in self.fds:
            if fd.rhs == attribute:
                return fd
        return None

    def to_dict(self) -> dict:
        """JSON-friendly summary of the discovery result.

        The inverse is :meth:`from_dict`; ``to_dict`` deliberately omits
        the (dense, derivable) precision/covariance matrices, so a
        round-tripped result carries identity placeholders for them.
        """
        return {
            "fds": [fd.to_dict() for fd in self.fds],
            "attribute_order": list(self.attribute_order),
            "autoregression": self.autoregression.tolist(),
            "n_pair_samples": self.n_pair_samples,
            "diagnostics": dict(self.diagnostics),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FDXResult":
        """Rebuild a result from a :meth:`to_dict` payload (wire inverse).

        Accepts optional ``precision`` / ``covariance`` keys for payloads
        that carry the full model; otherwise identity matrices of matching
        size stand in, keeping ``from_dict(d).to_dict() == d``.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"expected a result dict, got {type(payload)!r}")
        try:
            order = list(payload["attribute_order"])
            fds = [FD.from_dict(d) for d in payload["fds"]]
            autoregression = np.asarray(payload["autoregression"], dtype=float)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed FDXResult payload: {exc}") from exc
        p = len(order)
        if p == 0:
            autoregression = autoregression.reshape((0, 0))
        precision = payload.get("precision")
        covariance = payload.get("covariance")
        return cls(
            fds=fds,
            attribute_order=order,
            autoregression=autoregression,
            precision=np.asarray(precision, dtype=float) if precision is not None else np.eye(p),
            covariance=np.asarray(covariance, dtype=float) if covariance is not None else np.eye(p),
            n_pair_samples=int(payload.get("n_pair_samples", 0)),
            diagnostics=dict(payload.get("diagnostics", {})),
        )

    def heatmap_rows(self, names: list[str]) -> list[str]:
        """ASCII rendering of the autoregression matrix (paper Fig. 3/5)."""
        b = np.abs(self.autoregression)
        peak = b.max() if b.size else 0.0
        shades = " .:-=+*#%@"
        rows = []
        width = max(len(n) for n in names)
        for i, name in enumerate(names):
            cells = []
            for j in range(len(names)):
                level = 0 if peak == 0 else int(min(b[i, j] / peak, 1.0) * (len(shades) - 1))
                cells.append(shades[level])
            rows.append(f"{name:>{width}} |{''.join(cells)}|")
        return rows


def generate_fds(
    B: np.ndarray,
    order: np.ndarray,
    names: list[str],
    sparsity: float = 0.0,
) -> list[FD]:
    """Paper Algorithm 3: read FDs off the autoregression matrix.

    ``B`` is strictly upper-triangular in the permuted system defined by
    ``order`` (position -> original attribute index). For every position
    ``j``, the attributes at earlier positions with ``|B[i, j]|`` above the
    sparsity threshold determine the attribute at position ``j``.
    """
    threshold = max(sparsity, NUMERICAL_ZERO)
    fds: list[FD] = []
    p = B.shape[0]
    for j in range(p):
        lhs = [names[order[i]] for i in range(j) if abs(B[i, j]) > threshold]
        if lhs:
            fds.append(FD(lhs, names[order[j]]))
    return fds


def build_result(
    estimate: StructureEstimate,
    names: list[str],
    clock: StageClock,
    *,
    sparsity: float,
    n_pair_samples: int,
    n_rows: int,
    evidence: bool = True,
    input_warnings: list[str] | None = None,
    diagnostics: dict | None = None,
) -> FDXResult:
    """FD generation on a fitted structure and the result around it: the
    one result path of batch and streaming discovery.

    FD generation and the evidence ledger are the clock's last stages
    (``fd_generation``, ``evidence``); ``stage_seconds`` is read after
    them, so it holds every stage of the run. ``diagnostics`` holds the
    caller's own leading keys.
    """
    with clock.stage("fd_generation", "fdx.generate_fds", sparsity=sparsity):
        fds = generate_fds(
            estimate.autoregression, estimate.order, names, sparsity=sparsity
        )
        autoregression = estimate.factorization.autoregression_in_original_order()
    diagnostics = {
        **(diagnostics or {}),
        "glasso_iterations": estimate.glasso_iterations,
        "glasso_converged": estimate.glasso_converged,
        "final_objective": estimate.glasso_objective,
        "degraded": estimate.degraded,
        "solver_health": {
            "runs": list(estimate.solver_runs),
            "lambda": estimate.lambda_info,
        },
    }
    if evidence:
        with clock.stage("evidence", "fdx.evidence"):
            diagnostics["evidence"] = build_evidence(
                autoregression=estimate.autoregression,
                order=estimate.order,
                names=names,
                precision=estimate.precision,
                sparsity=sparsity,
                n_pair_samples=n_pair_samples,
                n_rows=n_rows,
                lambda_info=estimate.lambda_info,
                fallback_chain=estimate.fallback_chain,
            )
    if estimate.fallback_chain:
        diagnostics["fallback_chain"] = estimate.fallback_chain
    if input_warnings:
        diagnostics["input_warnings"] = input_warnings
    return FDXResult(
        fds=fds,
        attribute_order=[names[i] for i in estimate.order],
        autoregression=autoregression,
        precision=estimate.precision,
        covariance=estimate.covariance,
        n_pair_samples=n_pair_samples,
        diagnostics=_read_clock(clock, diagnostics),
    )


def _read_clock(clock: StageClock, diagnostics: dict) -> dict:
    """``diagnostics`` with the finished run's ``stage_seconds`` (and
    ``stage_bytes`` when memory is tracked) added."""
    diagnostics["stage_seconds"] = dict(clock.seconds)
    if clock.memory.enabled:
        diagnostics["stage_bytes"] = dict(clock.memory.stage_bytes)
    return diagnostics


class FDX:
    """The FDX FD-discovery method.

    Parameters
    ----------
    lam:
        Graphical-lasso penalty (precision-matrix sparsity), or the
        string ``"ebic"`` to select it automatically by the extended BIC
        (see :mod:`repro.linalg.model_selection`).
    sparsity:
        Post-factorization threshold on ``|B|`` entries (paper Table 8).
    ordering:
        Variable-ordering heuristic (paper Table 9). The default is
        ``natural``: the paper reports its minimum-degree heuristic and
        the natural order "generate the best results for most data sets";
        our exact minimum-degree implementation reorders more aggressively
        than CHOLMOD's AMD, so the natural order is the faithful default
        (the heuristics are compared in the Table 9 reproduction).
    shrinkage:
        Identity shrinkage on the empirical covariance.
    max_rows_per_attribute:
        Optional per-attribute row cap in the transform, the sampling
        speed-up the paper applies to very tall relations; at least 2,
        so that no row is paired with itself.
    transform:
        ``"circular"`` (Algorithm 2, default) or ``"uniform"`` (ablation).
    center_blocks:
        Center each per-attribute block of the circular transform in the
        covariance estimate (see
        :func:`repro.linalg.covariance.block_centered_scatter`); disabling
        this is the "no zero-mean correction" ablation.
    seed:
        Seed for the transform's row shuffle.
    tracer:
        Observability tracer (:class:`repro.obs.Tracer`) used to emit
        per-stage spans from :meth:`discover`. Defaults to the
        process-global tracer, which is a near-free no-op unless enabled
        (e.g. by ``python -m repro discover --trace`` or the service's
        ``--obs-jsonl``).
    track_memory:
        Record per-stage peak traced memory (``tracemalloc``) into
        ``diagnostics["stage_bytes"]`` with the same keys as
        ``stage_seconds``. Off by default: tracemalloc slows allocation
        by a multiple, so this is a diagnosis knob (CLI
        ``discover --memory``), not an always-on metric.
    strict:
        Make :func:`validate_relation` reject degenerate columns
        (constant / all-missing / duplicate) with
        :class:`repro.errors.DegenerateColumnError` instead of recording
        them as ``diagnostics["input_warnings"]``.
    glasso_max_iter:
        Cap on the proximal-Newton steps of every graphical-lasso solve,
        each point of the eBIC grid included. Lowering it bounds
        worst-case solve time; the fallback ladder absorbs a solve it
        leaves uncertified.
    evidence:
        Record the per-FD evidence ledger (:mod:`repro.obs.explain`) in
        ``diagnostics["evidence"]``: precision/partial-correlation
        entries, threshold margins, and ranked near-misses for every
        emitted and suppressed edge. On by default (it is one extra
        O(p²) pass); the benchmark suite holds its overhead under 5%.
    """

    def __init__(
        self,
        lam: float | str = 0.02,
        sparsity: float = 0.05,
        ordering: str = "natural",
        shrinkage: float = 0.01,
        max_rows_per_attribute: int | None = None,
        transform: str = "circular",
        center_blocks: bool = True,
        estimator: str = "glasso",
        numeric_tolerance: float | None = None,
        text_jaccard: float | None = None,
        seed: int = 0,
        tracer: Tracer | None = None,
        track_memory: bool = False,
        strict: bool = False,
        glasso_max_iter: int = 100,
        evidence: bool = True,
    ) -> None:
        if transform not in ("circular", "uniform"):
            raise ValueError(f"unknown transform {transform!r}")
        if lam != "ebic" and not (
            isinstance(lam, numbers.Real) and not isinstance(lam, bool)
            and 0 <= lam < math.inf
        ):
            raise ValueError(
                f"lam must be a finite non-negative number or 'ebic', got {lam!r}"
            )
        if not 0.0 <= shrinkage <= 1.0:
            raise ValueError(f"shrinkage must be in [0, 1], got {shrinkage!r}")
        if ordering not in ORDERING_METHODS:
            raise ValueError(
                f"unknown ordering {ordering!r}; options: {sorted(ORDERING_METHODS)}"
            )
        if estimator not in ("glasso", "neighborhood"):
            raise ValueError(
                f"unknown estimator {estimator!r}; options: glasso, neighborhood"
            )
        if sparsity < 0:
            raise ValueError("sparsity threshold must be non-negative")
        if max_rows_per_attribute is not None and max_rows_per_attribute < 2:
            raise ValueError("max_rows_per_attribute must be None or at least 2")
        if glasso_max_iter < 1:
            raise ValueError("glasso_max_iter must be >= 1")
        self.lam = lam
        self.sparsity = sparsity
        self.ordering = ordering
        self.shrinkage = shrinkage
        self.max_rows_per_attribute = max_rows_per_attribute
        self.transform = transform
        self.center_blocks = center_blocks
        self.estimator = estimator
        self.numeric_tolerance = numeric_tolerance
        self.text_jaccard = text_jaccard
        self.seed = seed
        self.tracer = tracer
        self.track_memory = track_memory
        self.strict = strict
        self.glasso_max_iter = glasso_max_iter
        self.evidence = evidence

    def transform_relation(self, relation: Relation) -> np.ndarray:
        """Run the configured tuple-pair transform (exposed for ablation).

        Returns the ``uint8`` agreement sample; ``center_blocks`` acts in
        the covariance estimate (:func:`repro.core.structure.sample_covariance`),
        not here.
        """
        from .transform import DEFAULT_NUMERIC_TOLERANCE, DEFAULT_TEXT_JACCARD

        rng = np.random.default_rng(self.seed)
        kwargs = {
            "numeric_tolerance": (
                self.numeric_tolerance
                if self.numeric_tolerance is not None
                else DEFAULT_NUMERIC_TOLERANCE
            ),
            "text_jaccard": (
                self.text_jaccard if self.text_jaccard is not None else DEFAULT_TEXT_JACCARD
            ),
        }
        if self.transform == "uniform":
            return uniform_pair_transform(relation, rng, **kwargs)
        return pair_difference_transform(
            relation, rng,
            max_rows_per_attribute=self.max_rows_per_attribute,
            **kwargs,
        )

    def discover(self, relation: Relation) -> FDXResult:
        """Discover FDs in ``relation`` (paper Algorithm 1).

        Raises :class:`repro.errors.InputValidationError` subclasses for
        inputs the pipeline cannot process (see :func:`validate_relation`);
        every other solver-side failure is absorbed by the fallback
        ladder (:func:`repro.core.structure.learn_structure_resilient`:
        recondition + boosted penalty, then neighborhood selection, then
        an empty model), so a valid input always yields an
        :class:`FDXResult` (possibly a degraded one — check
        ``diagnostics["degraded"]`` and ``diagnostics["fallback_chain"]``).
        One :class:`StageClock` times the whole call, validation and the
        evidence ledger included.
        """
        tracer = self.tracer if self.tracer is not None else get_tracer()
        clock = StageClock(tracer, MemoryTracker(enabled=self.track_memory))
        cancel_token = current_cancel_token()
        names = relation.schema.names
        with tracer.span(
            "fdx.discover",
            n_rows=relation.n_rows,
            n_attributes=relation.n_attributes,
        ) as root, clock.memory:
            with clock.stage("validate", "fdx.validate"):
                input_warnings = validate_relation(relation, strict=self.strict)
            if relation.n_attributes < 2:
                return self._no_model_result(relation, clock, input_warnings)
            with clock.stage("transform", "fdx.transform", kind=self.transform):
                samples = self.transform_relation(relation)
            if cancel_token is not None:
                cancel_token.raise_if_cancelled()
            # One centered block per sorted attribute (Algorithm 2), or
            # one global mean for the uniform and uncentered ablations.
            centered = self.center_blocks and self.transform == "circular"
            S = sample_covariance(
                samples, relation.n_attributes if centered else 1, clock=clock
            )
            estimate = learn_structure_resilient(
                S,
                samples.shape[0],
                lam=self.lam,
                ordering=self.ordering,
                shrinkage=self.shrinkage,
                estimator=self.estimator,
                max_iter=self.glasso_max_iter,
                clock=clock,
            )
            if cancel_token is not None:
                cancel_token.raise_if_cancelled()
            result = build_result(
                estimate, names, clock,
                sparsity=self.sparsity,
                n_pair_samples=int(samples.shape[0]),
                n_rows=relation.n_rows,
                evidence=self.evidence,
                input_warnings=input_warnings,
            )
            root.set_attributes(
                n_fds=len(result.fds),
                n_pair_samples=result.n_pair_samples,
                glasso_iterations=estimate.glasso_iterations,
            )
        return result

    def _no_model_result(
        self, relation: Relation, clock: StageClock, input_warnings: list[str]
    ) -> FDXResult:
        """Fewer than two attributes: nothing to learn. The explainability
        keys of a full run, so explain surfaces answer (with empty
        ledgers)."""
        p = relation.n_attributes
        names = relation.schema.names
        diagnostics = {
            "degraded": False,
            "solver_health": {"runs": [], "lambda": None},
        }
        if self.evidence:
            with clock.stage("evidence", "fdx.evidence"):
                diagnostics["evidence"] = build_evidence(
                    autoregression=np.zeros((p, p)),
                    order=np.arange(p),
                    names=names,
                    precision=np.eye(p),
                    sparsity=self.sparsity,
                    n_pair_samples=0,
                    n_rows=relation.n_rows,
                    lambda_info=None,
                    fallback_chain=[],
                )
        if input_warnings:
            diagnostics["input_warnings"] = input_warnings
        return FDXResult(
            fds=[],
            attribute_order=names,
            autoregression=np.zeros((p, p)),
            precision=np.eye(p),
            covariance=np.eye(p),
            n_pair_samples=0,
            diagnostics=_read_clock(clock, diagnostics),
        )
