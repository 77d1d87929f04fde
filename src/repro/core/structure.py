"""Structure learning for FDX (paper §4.2).

Estimates the sparse precision matrix of the transformed sample and
factorizes it under a global attribute order:

``Theta = U D U^T`` with ``U`` unit upper-triangular, so ``B = I - U`` is
the strictly-upper autoregression matrix of the linear SEM
``Z = B^T Z + eps`` whose non-zero pattern encodes the FDs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import InputValidationError
from ..linalg.cholesky import OrderedFactorization, factorize_with_order
from ..linalg.covariance import (
    correlation_from_covariance,
    empirical_covariance_chunked,
    shrunk_covariance,
)
from ..linalg.glasso import graphical_lasso
from ..linalg.neighborhood import neighborhood_selection
from ..linalg.ordering import compute_order
from ..linalg.robust import condition_number_estimate, psd_projection
from ..obs.profile import MemoryTracker
from ..obs.trace import Tracer, get_tracer
from ..resilience import faults
from ..resilience.cancel import CancelledError, current_cancel_token
from ..resilience.watchdog import current_heartbeat


@dataclass
class StructureEstimate:
    """Fitted structure: covariance, precision and ordered factorization."""

    covariance: np.ndarray
    precision: np.ndarray
    factorization: OrderedFactorization
    glasso_iterations: int
    glasso_converged: bool
    #: Final graphical-lasso objective (None for the neighborhood estimator).
    glasso_objective: float | None = None
    #: Per-stage wall-clock seconds: covariance / glasso / factorization.
    stage_seconds: dict = field(default_factory=dict)
    #: Per-stage peak traced bytes (same keys), only when a
    #: :class:`repro.obs.MemoryTracker` was enabled for the run.
    stage_bytes: dict = field(default_factory=dict)
    #: Per-iteration ``{iteration, objective, duality_gap, change}`` dicts,
    #: recorded only when tracing is enabled (the callback costs O(p^3)).
    glasso_trace: list | None = None
    #: True when the fallback ladder had to leave the configured solver.
    degraded: bool = False
    #: One record per ladder rung attempted: ``{"stage", "ok", ...}``.
    fallback_chain: list = field(default_factory=list)
    #: λ-selection provenance: ``{"mode", "selected"}`` plus — for eBIC —
    #: ``"grid"``, ``"grid_index"`` and a per-grid-point ``"path"`` with
    #: the fit telemetry of every λ tried. Plain values only.
    lambda_info: dict | None = None
    #: One plain-value record per solve (every fallback rung included):
    #: estimator, λ, iterations, convergence, objective, duality gap,
    #: active-set size, input condition number, warm/cold start. No
    #: wall-clock fields — records are identical across repeated runs.
    solver_runs: list = field(default_factory=list)

    @property
    def order(self) -> np.ndarray:
        """Position -> variable-index permutation used for the factorization."""
        return self.factorization.order

    @property
    def autoregression(self) -> np.ndarray:
        """``B = I - U`` in the permuted coordinate system."""
        return self.factorization.autoregression


def _finite_or_none(value) -> float | None:
    """Plain finite float or ``None`` — keeps telemetry JSON-exact."""
    if value is None:
        return None
    value = float(value)
    return value if np.isfinite(value) else None


def learn_structure(
    samples: np.ndarray,
    lam: float | str = 0.05,
    ordering: str = "mindegree",
    shrinkage: float = 0.01,
    assume_centered: bool = False,
    standardize: bool = True,
    estimator: str = "glasso",
    covariance: str = "empirical",
    max_iter: int = 100,
    precondition: bool = False,
    tracer: Tracer | None = None,
    memory: MemoryTracker | None = None,
    warm_start: np.ndarray | None = None,
) -> StructureEstimate:
    """Estimate the ordered linear-SEM structure of ``samples``.

    Parameters
    ----------
    samples:
        The transformed binary sample ``Dt`` (rows = tuple pairs).
    lam:
        Graphical-lasso L1 penalty controlling the sparsity of the
        estimated precision matrix.
    ordering:
        Variable-ordering heuristic for the factorization (paper Table 9);
        one of :data:`repro.linalg.ordering.ORDERING_METHODS`.
    shrinkage:
        Identity shrinkage applied to the empirical covariance before the
        graphical lasso, stabilizing near-singular covariances produced by
        (near-)constant agreement columns.
    assume_centered:
        Fix the sample mean at zero (second-moment estimator).
    standardize:
        Run the graphical lasso on the correlation matrix instead of the
        raw covariance, making ``lam`` comparable across data sets whose
        agreement variances differ (nearly-constant agreement columns have
        tiny variance and would otherwise be penalized out of existence).
    estimator:
        ``"glasso"`` (paper default) or ``"neighborhood"`` — Meinshausen-
        Buehlmann nodewise-lasso selection, the "efficient regression
        methods" family the paper cites as the alternative (§2.2).
    covariance:
        ``"empirical"`` (default), ``"trimmed"`` or ``"spearman"`` —
        robust alternatives from :mod:`repro.linalg.robust` for inputs
        with adversarial rows (the paper's refs [6, 12]).
    tracer:
        Observability tracer; defaults to the process-global one (a
        no-op unless enabled). Emits ``structure.covariance``,
        ``structure.glasso`` and ``structure.factorization`` spans, and
        — when enabled — records a per-iteration objective/duality-gap
        trace from the graphical lasso.
    precondition:
        Project the covariance estimate onto the PD cone (eigenvalue
        floor ``1e-6``) before the solver — the reconditioning step of
        the fallback ladder for ill-conditioned inputs.
    memory:
        Per-stage peak-memory tracker (:class:`repro.obs.MemoryTracker`);
        when enabled, records ``covariance`` / ``glasso`` /
        ``factorization`` entries in ``stage_bytes``. Defaults to a
        disabled no-op tracker.
    warm_start:
        Optional previous precision matrix handed to the graphical lasso
        as its ``Theta0`` initialization (streaming refreshes re-solve
        nearly identical covariances; starting at the previous solution
        cuts the outer sweeps to one or two). Only the ``"glasso"``
        estimator uses it; the estimate is unchanged within solver
        tolerance.
    """
    tracer = tracer if tracer is not None else get_tracer()
    memory = memory if memory is not None else MemoryTracker(enabled=False)
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError("samples must be a 2-D matrix")
    if samples.size and not np.isfinite(samples).all():
        raise InputValidationError(
            "transformed samples contain non-finite values (NaN/Inf); "
            "clean or impute the input before discovery"
        )
    cancel_token = current_cancel_token()
    heartbeat = current_heartbeat()
    if heartbeat is not None:
        heartbeat.beat()
    if cancel_token is not None and heartbeat is not None:
        # The glasso calls should_abort once per outer iteration (cheap,
        # unlike callback): piggyback the watchdog heartbeat on it so a
        # converging solve keeps proving liveness while a hung one goes
        # silent and gets cancelled.
        def should_abort() -> None:
            heartbeat.beat()
            cancel_token.raise_if_cancelled()
    elif cancel_token is not None:
        should_abort = cancel_token.raise_if_cancelled
    elif heartbeat is not None:
        should_abort = heartbeat.beat
    else:
        should_abort = None
    t0 = time.perf_counter()
    with tracer.span("structure.covariance", estimator=covariance,
                     shrinkage=shrinkage, standardize=standardize), \
            memory.stage("covariance"):
        if covariance == "empirical":
            S = empirical_covariance_chunked(
                samples, assume_centered=assume_centered
            )
        elif covariance == "trimmed":
            from ..linalg.robust import trimmed_covariance

            S = trimmed_covariance(samples, assume_centered=assume_centered)
        elif covariance == "spearman":
            from ..linalg.robust import spearman_covariance

            S = spearman_covariance(samples)
        else:
            raise ValueError(f"unknown covariance estimator {covariance!r}")
        if standardize:
            S = correlation_from_covariance(S)
        if shrinkage > 0:
            S = shrunk_covariance(S, shrinkage)
        if precondition:
            S = psd_projection(S, min_eigenvalue=1e-6)
        condition_number = condition_number_estimate(S)
        if not np.isfinite(condition_number):
            # Keep the record JSON-exact while never hiding singularity.
            condition_number = float(np.finfo(float).max)
        if isinstance(lam, str):
            if lam != "ebic":
                raise ValueError(f"unknown penalty rule {lam!r}; use a float or 'ebic'")
            from ..linalg.model_selection import select_lambda_ebic

            selection = select_lambda_ebic(S, n_samples=samples.shape[0])
            grid = [float(g) for g in selection.scores]
            lam = selection.best_lambda
            lambda_info = {
                "mode": "ebic",
                "selected": float(lam),
                "grid": grid,
                "grid_index": grid.index(float(lam)),
                "path": [
                    {
                        "lam": float(g),
                        "score": _finite_or_none(selection.scores[g]),
                        **selection.fits.get(g, {}),
                    }
                    for g in selection.scores
                ],
            }
        else:
            lambda_info = {"mode": "fixed", "selected": float(lam)}
    t1 = time.perf_counter()
    glasso_objective: float | None = None
    glasso_trace: list | None = None
    with tracer.span("structure.glasso", estimator=estimator, lam=float(lam),
                     warm_start=warm_start is not None) as span, \
            memory.stage("glasso"):
        if estimator == "glasso":
            callback = None
            if tracer.enabled:
                glasso_trace = []
                callback = glasso_trace.append
            result = graphical_lasso(
                S, lam, max_iter=max_iter, callback=callback,
                should_abort=should_abort, Theta0=warm_start,
            )
            precision = result.precision
            iterations, converged = result.n_iter, result.converged
            if faults.fires("glasso.nonconverge"):
                converged = False  # chaos harness: simulated non-convergence
            glasso_objective = result.objective
            solver_run = {
                "stage": "configured",
                "estimator": "glasso",
                "lam": float(lam),
                "iterations": int(iterations),
                "converged": bool(converged),
                "objective": _finite_or_none(result.objective),
                "duality_gap": _finite_or_none(result.dual_gap),
                "active_set_size": int(result.support.sum()) // 2,
                "condition_number": float(condition_number),
                "warm_start": warm_start is not None,
            }
            span.set_attributes(
                iterations=iterations,
                converged=converged,
                objective=result.objective,
                duality_gap=result.dual_gap,
            )
            if glasso_trace is not None:
                span.set_attribute(
                    "objective_trace", [step["objective"] for step in glasso_trace]
                )
                span.set_attribute(
                    "duality_gap_trace",
                    [step["duality_gap"] for step in glasso_trace],
                )
        elif estimator == "neighborhood":
            nb = neighborhood_selection(S, lam)
            precision = nb.precision
            iterations, converged = 1, True
            off_support = np.abs(precision) > 1e-10
            np.fill_diagonal(off_support, False)
            solver_run = {
                "stage": "configured",
                "estimator": "neighborhood",
                "lam": float(lam),
                "iterations": 1,
                "converged": True,
                "objective": None,
                "duality_gap": None,
                "active_set_size": int(off_support.sum()) // 2,
                "condition_number": float(condition_number),
                "warm_start": False,
            }
            span.set_attributes(iterations=1, converged=True)
        else:
            raise ValueError(f"unknown estimator {estimator!r}")
    t2 = time.perf_counter()
    with tracer.span("structure.factorization", ordering=ordering), \
            memory.stage("factorization"):
        order = compute_order(precision, method=ordering)
        factorization = factorize_with_order(precision, order)
    t3 = time.perf_counter()
    return StructureEstimate(
        covariance=S,
        precision=precision,
        factorization=factorization,
        glasso_iterations=iterations,
        glasso_converged=converged,
        glasso_objective=glasso_objective,
        stage_seconds={
            "covariance": t1 - t0,
            "glasso": t2 - t1,
            "factorization": t3 - t2,
        },
        stage_bytes=dict(memory.stage_bytes) if memory.enabled else {},
        glasso_trace=glasso_trace,
        lambda_info=lambda_info,
        solver_runs=[solver_run],
    )


#: Penalty multiplier for the reconditioned retry rung of the ladder; a
#: larger λ convexifies harder and converges on inputs the first pass
#: could not handle (at the price of a sparser, more conservative graph).
LAM_BOOST = 5.0

#: Identity shrinkage used by the reconditioned retry (well above the
#: 0.01 default, pulling near-singular covariances toward the identity).
RECONDITION_SHRINKAGE = 0.1


def _estimate_is_sound(estimate: StructureEstimate) -> bool:
    """Did a ladder rung produce a usable model? (converged + finite)"""
    return bool(
        estimate.glasso_converged
        and np.isfinite(estimate.precision).all()
        and np.isfinite(estimate.factorization.autoregression).all()
    )


def learn_structure_resilient(
    samples: np.ndarray,
    lam: float | str = 0.05,
    ordering: str = "mindegree",
    shrinkage: float = 0.01,
    assume_centered: bool = False,
    standardize: bool = True,
    estimator: str = "glasso",
    covariance: str = "empirical",
    max_iter: int = 100,
    tracer: Tracer | None = None,
    memory: MemoryTracker | None = None,
    warm_start: np.ndarray | None = None,
) -> StructureEstimate:
    """:func:`learn_structure` behind a graceful-degradation ladder.

    Production entry point of the solver stack: instead of raising (or
    silently returning a non-converged model), failures walk a fixed
    ladder and the survivor is returned with its provenance recorded in
    ``fallback_chain`` / ``degraded``:

    1. **configured** — the caller's estimator and penalty, verbatim;
    2. **reconditioned** — PSD-project the covariance (eigenvalue floor),
       heavier shrinkage, and a ``LAM_BOOST``-times larger penalty;
    3. **neighborhood** — Meinshausen-Bühlmann nodewise regression on
       the reconditioned covariance, the paper's "efficient regression
       methods" alternative (§2.2), which cannot fail to converge;
    4. **identity** — an empty model (no FDs) as the last resort, so a
       valid input *always* yields a result.

    Cancellation (:class:`repro.resilience.CancelledError`) and input
    validation errors are never swallowed — they are contracts with the
    caller, not solver failures.
    """
    boosted = lam * LAM_BOOST if isinstance(lam, (int, float)) else 0.1
    rungs: list[tuple[str, dict]] = [
        ("configured", dict(lam=lam, estimator=estimator, shrinkage=shrinkage,
                            precondition=False)),
        ("reconditioned", dict(lam=boosted, estimator=estimator,
                               shrinkage=max(shrinkage, RECONDITION_SHRINKAGE),
                               precondition=True)),
    ]
    if estimator != "neighborhood":
        rungs.append(
            ("neighborhood", dict(lam=lam if isinstance(lam, (int, float)) else 0.1,
                                  estimator="neighborhood", shrinkage=shrinkage,
                                  precondition=True))
        )
    chain: list[dict] = []
    all_runs: list[dict] = []
    estimate: StructureEstimate | None = None
    for stage, overrides in rungs:
        entry = {
            "stage": stage,
            "estimator": overrides["estimator"],
            "lam": overrides["lam"] if isinstance(overrides["lam"], (int, float)) else str(overrides["lam"]),
        }
        try:
            candidate = learn_structure(
                samples,
                ordering=ordering,
                assume_centered=assume_centered,
                standardize=standardize,
                covariance=covariance,
                max_iter=max_iter,
                tracer=tracer,
                memory=memory,
                warm_start=warm_start if stage == "configured" else None,
                **overrides,
            )
        except (CancelledError, InputValidationError):
            raise
        except Exception as exc:  # noqa: BLE001 - ladder absorbs solver faults
            entry.update(ok=False, reason=f"{type(exc).__name__}: {exc}")
            chain.append(entry)
            continue
        for run in candidate.solver_runs:
            run["stage"] = stage
        all_runs.extend(candidate.solver_runs)
        if _estimate_is_sound(candidate):
            entry["ok"] = True
            chain.append(entry)
            estimate = candidate
            break
        entry.update(
            ok=False,
            reason=(
                "converged=False"
                if not candidate.glasso_converged
                else "non-finite model"
            ),
        )
        chain.append(entry)
        estimate = candidate  # best effort so far, may still be returned
    degraded = len(chain) > 1 or not chain[-1]["ok"]
    if estimate is None:
        # Every rung raised: synthesize the identity model so callers
        # still receive a (maximally conservative) result.
        p = samples.shape[1]
        eye = np.eye(p)
        estimate = StructureEstimate(
            covariance=eye,
            precision=eye,
            factorization=factorize_with_order(eye, np.arange(p)),
            glasso_iterations=0,
            glasso_converged=False,
        )
        chain.append({"stage": "identity", "estimator": "identity",
                      "lam": None, "ok": True,
                      "reason": "all solver rungs failed"})
        all_runs.append({
            "stage": "identity",
            "estimator": "identity",
            "lam": None,
            "iterations": 0,
            "converged": False,
            "objective": None,
            "duality_gap": None,
            "active_set_size": 0,
            "condition_number": 1.0,
            "warm_start": False,
        })
        degraded = True
    estimate.degraded = degraded
    estimate.fallback_chain = chain
    estimate.solver_runs = all_runs
    return estimate
