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

import time
from dataclasses import dataclass, field

import numpy as np

from ..dataset.relation import Relation
from ..errors import (
    DegenerateColumnError,
    EmptyRelationError,
    InsufficientRowsError,
)
from ..obs.explain import build_evidence
from ..obs.profile import MemoryTracker, StageClock
from ..obs.trace import Tracer, get_tracer
from ..resilience.cancel import current_cancel_token
from .fd import FD
from .structure import (
    StructureEstimate,
    learn_structure,
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


def validate_relation(relation: Relation, strict: bool = False) -> list[str]:
    """Pre-math input guard for :meth:`FDX.discover`.

    Raises a typed, actionable error for inputs the pipeline cannot
    process at all:

    * :class:`repro.errors.EmptyRelationError` — zero rows;
    * :class:`repro.errors.InsufficientRowsError` — one row (the
      pair-difference transform needs at least one tuple *pair*).

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
    """Everything FDX produces for one input relation."""

    fds: list[FD]
    attribute_order: list[str]
    autoregression: np.ndarray  # B in schema (original) attribute order
    precision: np.ndarray
    covariance: np.ndarray
    transform_seconds: float
    model_seconds: float
    n_pair_samples: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.transform_seconds + self.model_seconds

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
            "transform_seconds": self.transform_seconds,
            "model_seconds": self.model_seconds,
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
            transform_seconds=float(payload.get("transform_seconds", 0.0)),
            model_seconds=float(payload.get("model_seconds", 0.0)),
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
    started: float,
    sparsity: float,
    n_pair_samples: int,
    n_rows: int,
    evidence: bool = True,
    transform_seconds: float = 0.0,
    input_warnings: list[str] | None = None,
    diagnostics: dict | None = None,
) -> FDXResult:
    """FD generation on a fitted structure and the result around it: the
    one result path of batch and streaming discovery.

    ``model_seconds`` runs from ``started`` to the end of the clock's
    ``fd_generation`` stage; the evidence ledger is built after it (it
    reads the fitted model, it is not part of the pipeline's budget).
    ``diagnostics`` holds the caller's own leading keys.
    """
    with clock.stage("fd_generation", "fdx.generate_fds", sparsity=sparsity):
        fds = generate_fds(
            estimate.autoregression, estimate.order, names, sparsity=sparsity
        )
    model_seconds = time.perf_counter() - started
    diagnostics = {
        **(diagnostics or {}),
        "glasso_iterations": estimate.glasso_iterations,
        "glasso_converged": estimate.glasso_converged,
        "final_objective": estimate.glasso_objective,
        "stage_seconds": dict(clock.seconds),
        "degraded": estimate.degraded,
        "solver_health": {
            "runs": list(estimate.solver_runs),
            "lambda": estimate.lambda_info,
        },
    }
    if evidence:
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
    if clock.memory.enabled:
        diagnostics["stage_bytes"] = dict(clock.memory.stage_bytes)
    if estimate.glasso_trace is not None:
        diagnostics["glasso_objective_trace"] = [
            step["objective"] for step in estimate.glasso_trace
        ]
    return FDXResult(
        fds=fds,
        attribute_order=[names[i] for i in estimate.order],
        autoregression=estimate.factorization.autoregression_in_original_order(),
        precision=estimate.precision,
        covariance=estimate.covariance,
        transform_seconds=transform_seconds,
        model_seconds=model_seconds,
        n_pair_samples=n_pair_samples,
        diagnostics=diagnostics,
    )


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
        speed-up the paper applies to very tall relations.
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
    resilient:
        Route structure learning through the fallback ladder
        (:func:`repro.core.structure.learn_structure_resilient`): solver
        non-convergence or ill-conditioning degrades gracefully —
        recondition + boosted penalty, then neighborhood selection, then
        an empty model — instead of raising or silently returning a bad
        fit. The ladder's provenance lands in ``diagnostics["degraded"]``
        / ``diagnostics["fallback_chain"]``. On by default; turn off for
        research runs that must see raw solver behavior.
    strict:
        Make :func:`validate_relation` reject degenerate columns
        (constant / all-missing / duplicate) with
        :class:`repro.errors.DegenerateColumnError` instead of recording
        them as ``diagnostics["input_warnings"]``.
    glasso_max_iter:
        Outer-iteration cap for the graphical lasso. Lowering it bounds
        worst-case solve time (the service's latency lever); with
        ``resilient`` the ladder absorbs the resulting non-convergence.
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
        resilient: bool = True,
        strict: bool = False,
        glasso_max_iter: int = 100,
        evidence: bool = True,
    ) -> None:
        if transform not in ("circular", "uniform"):
            raise ValueError(f"unknown transform {transform!r}")
        if sparsity < 0:
            raise ValueError("sparsity threshold must be non-negative")
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
        self.resilient = resilient
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
        ladder when ``resilient`` is on, so a valid input always yields
        an :class:`FDXResult` (possibly a degraded one — check
        ``diagnostics["degraded"]``).
        """
        input_warnings = validate_relation(relation, strict=self.strict)
        cancel_token = current_cancel_token()
        names = relation.schema.names
        if relation.n_attributes < 2:
            # Nothing to learn; the explainability keys of a full run, so
            # explain surfaces answer (with empty ledgers).
            p = relation.n_attributes
            diagnostics = {
                "degraded": False,
                "solver_health": {"runs": [], "lambda": None},
            }
            if self.evidence:
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
                transform_seconds=0.0,
                model_seconds=0.0,
                n_pair_samples=0,
                diagnostics=diagnostics,
            )
        tracer = self.tracer if self.tracer is not None else get_tracer()
        clock = StageClock(tracer, MemoryTracker(enabled=self.track_memory))
        learner = learn_structure_resilient if self.resilient else learn_structure
        t0 = time.perf_counter()
        with tracer.span(
            "fdx.discover",
            n_rows=relation.n_rows,
            n_attributes=relation.n_attributes,
        ) as root, clock.memory:
            with clock.stage("transform", "fdx.transform", kind=self.transform):
                samples = self.transform_relation(relation)
            if cancel_token is not None:
                cancel_token.raise_if_cancelled()
            t1 = time.perf_counter()
            # One centered block per sorted attribute (Algorithm 2), or
            # one global mean for the uniform and uncentered ablations.
            centered = self.center_blocks and self.transform == "circular"
            S = sample_covariance(
                samples, relation.n_attributes if centered else 1, clock=clock
            )
            estimate = learner(
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
                started=t1,
                sparsity=self.sparsity,
                n_pair_samples=int(samples.shape[0]),
                n_rows=relation.n_rows,
                evidence=self.evidence,
                transform_seconds=t1 - t0,
                input_warnings=input_warnings,
            )
            root.set_attributes(
                n_fds=len(result.fds),
                n_pair_samples=result.n_pair_samples,
                glasso_iterations=estimate.glasso_iterations,
            )
        return result
