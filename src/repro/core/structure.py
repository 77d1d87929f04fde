"""Structure learning for FDX (paper §4.2).

Estimates the sparse precision matrix from the covariance ``S`` of the
transformed sample and factorizes it under a global attribute order:

``Theta = U D U^T`` with ``U`` unit upper-triangular, so ``B = I - U`` is
the strictly-upper autoregression matrix of the linear SEM
``Z = B^T Z + eps`` whose non-zero pattern encodes the FDs.

``S`` and its sample count are the whole input (paper Algorithm 1:
``Theta = GraphicalLasso(cov(Dt))``): batch discovery estimates it once
with :func:`sample_covariance`, and streaming discovery passes its
accumulated second moment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InputValidationError
from ..linalg.cholesky import OrderedFactorization, factorize_with_order
from ..linalg.covariance import (
    block_centered_scatter,
    condition_number_estimate,
    correlation_from_covariance,
    psd_projection,
    shrunk_covariance,
)
# Not called here (sample_covariance reads the 0/1 counts); it stays
# importable because perfbench/tracing.py patches it by this name.
from ..linalg.covariance import empirical_covariance_chunked  # noqa: F401
from ..linalg.glasso import graphical_lasso
from ..linalg.model_selection import _finite_or_none
from ..linalg.neighborhood import neighborhood_selection
from ..linalg.ordering import compute_order
from ..obs.profile import StageClock
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
    #: True when the fallback ladder had to leave the configured solver.
    degraded: bool = False
    #: One record per ladder rung attempted: ``{"stage", "ok", ...}``.
    fallback_chain: list = field(default_factory=list)
    #: λ-selection provenance: ``{"mode", "selected"}`` plus — for eBIC —
    #: ``"grid"``, ``"grid_index"`` and a per-grid-point ``"path"`` with
    #: the fit telemetry of every λ tried. Plain values only.
    lambda_info: dict | None = None
    #: One plain-value record per solve (every fallback rung included):
    #: estimator, λ, iterations, convergence (certified), objective, KKT
    #: residual, active-set size, input condition number, warm/cold
    #: start. No wall-clock fields — records are identical across
    #: repeated runs.
    solver_runs: list = field(default_factory=list)

    @property
    def order(self) -> np.ndarray:
        """Position -> variable-index permutation used for the factorization."""
        return self.factorization.order

    @property
    def autoregression(self) -> np.ndarray:
        """``B = I - U`` in the permuted coordinate system."""
        return self.factorization.autoregression


def sample_covariance(
    samples: np.ndarray,
    n_blocks: int = 1,
    clock: StageClock | None = None,
) -> np.ndarray:
    """Covariance ``S`` of the 0/1 transformed sample ``Dt`` (rows =
    tuple pairs), timed as part of the clock's ``covariance`` stage.

    Each of ``n_blocks`` equal row blocks is centered at its own mean:
    ``k`` for the block-centered circular transform, 1 for a sample with
    one global mean (see :func:`repro.linalg.covariance.block_centered_scatter`).
    """
    clock = clock if clock is not None else StageClock()
    with clock.stage("covariance", "structure.covariance", estimator="empirical"):
        return block_centered_scatter(samples, n_blocks) / np.shape(samples)[0]


def learn_structure(
    S: np.ndarray,
    n_samples: float,
    lam: float | str = 0.05,
    ordering: str = "mindegree",
    shrinkage: float = 0.01,
    estimator: str = "glasso",
    max_iter: int = 100,
    precondition: bool = False,
    clock: StageClock | None = None,
    warm_start: np.ndarray | None = None,
) -> StructureEstimate:
    """Estimate the ordered linear-SEM structure implied by covariance ``S``.

    Parameters
    ----------
    S:
        Covariance of the transformed binary sample ``Dt`` — from
        :func:`sample_covariance` or a stream's accumulated second moment.
    n_samples:
        Number of samples behind ``S`` (a stream's decayed count may be
        fractional); the eBIC penalty rule scores with it.
    lam:
        Graphical-lasso L1 penalty controlling the sparsity of the
        estimated precision matrix, or ``"ebic"`` to select it.
    ordering:
        Variable-ordering heuristic for the factorization (paper Table 9);
        one of :data:`repro.linalg.ordering.ORDERING_METHODS`.
    shrinkage:
        Identity shrinkage applied to the correlation matrix before the
        graphical lasso, stabilizing near-singular covariances produced by
        (near-)constant agreement columns.
    estimator:
        ``"glasso"`` (paper default) or ``"neighborhood"`` — Meinshausen-
        Buehlmann nodewise-lasso selection, the "efficient regression
        methods" family the paper cites as the alternative (§2.2).
    precondition:
        Project the covariance estimate onto the PD cone (eigenvalue
        floor ``1e-6``) before the solver — the reconditioning step of
        the fallback ladder for ill-conditioned inputs.
    clock:
        The run's :class:`repro.obs.StageClock`: times the
        ``covariance`` / ``glasso`` / ``factorization`` stages into its
        ``seconds`` (and memory tracker) and emits the
        ``structure.covariance``, ``structure.glasso`` and
        ``structure.factorization`` spans; the ``glasso`` stage holds
        every graphical-lasso solve, the eBIC grid included. Defaults to
        a clock on the global tracer.
    warm_start:
        Optional previous precision matrix handed to the graphical lasso
        as its ``Theta0`` initialization (streaming refreshes re-solve
        nearly identical covariances; starting at the previous solution
        cuts the Newton steps to two or three). Only the ``"glasso"``
        estimator at a fixed ``lam`` uses it (the eBIC grid solves cold);
        the estimate is unchanged within solver tolerance.

    The graphical lasso always runs on the correlation matrix of ``S``,
    making ``lam`` comparable across data sets whose agreement variances
    differ (nearly-constant agreement columns have tiny variance and
    would otherwise be penalized out of existence).
    """
    clock = clock if clock is not None else StageClock()
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be a square covariance matrix")
    if not np.isfinite(S).all():
        # Any non-finite sample makes its column's variance non-finite.
        raise InputValidationError(
            "transformed samples contain non-finite values (NaN/Inf); "
            "clean or impute the input before discovery"
        )
    cancel_token = current_cancel_token()
    heartbeat = current_heartbeat()
    if heartbeat is not None:
        heartbeat.beat()
    if cancel_token is not None and heartbeat is not None:
        # The glasso calls should_abort once per outer iteration:
        # piggyback the watchdog heartbeat on it so a converging solve
        # keeps proving liveness while a hung one goes silent and gets
        # cancelled.
        def should_abort() -> None:
            heartbeat.beat()
            cancel_token.raise_if_cancelled()
    elif cancel_token is not None:
        should_abort = cancel_token.raise_if_cancelled
    elif heartbeat is not None:
        should_abort = heartbeat.beat
    else:
        should_abort = None
    if isinstance(lam, str) and lam != "ebic":
        raise ValueError(f"unknown penalty rule {lam!r}; use a float or 'ebic'")
    if isinstance(lam, str) or estimator != "glasso":
        # Only a fixed-λ graphical lasso starts from Theta0: the eBIC
        # grid solves cold. Every warm/cold report reads this decision.
        warm_start = None
    with clock.stage("covariance", "structure.covariance",
                     shrinkage=shrinkage, standardize=True):
        S = correlation_from_covariance(S)
        if shrinkage > 0:
            S = shrunk_covariance(S, shrinkage)
        if precondition:
            S = psd_projection(S, min_eigenvalue=1e-6)
        condition_number = condition_number_estimate(S)
        if not np.isfinite(condition_number):
            # Keep the record JSON-exact while never hiding singularity.
            condition_number = float(np.finfo(float).max)
    glasso_objective: float | None = None
    with clock.stage("glasso", "structure.glasso", estimator=estimator,
                     warm_start=warm_start is not None) as span:
        fit = None
        if lam == "ebic":
            from ..linalg.model_selection import select_lambda_ebic

            selection = select_lambda_ebic(
                S, n_samples=n_samples, max_iter=max_iter,
                should_abort=should_abort,
            )
            fit = selection.best_fit
            lam = selection.best_lambda
            grid = [float(g) for g in selection.scores]
            lambda_info = {
                "mode": "ebic",
                "selected": float(lam),
                "grid": grid,
                "grid_index": grid.index(float(lam)),
                "path": [
                    {"lam": float(g), **selection.fits[g]}
                    for g in selection.scores
                ],
            }
        else:
            lambda_info = {"mode": "fixed", "selected": float(lam)}
        span.set_attribute("lam", float(lam))
        if estimator == "glasso":
            if fit is None:
                fit = graphical_lasso(
                    S, lam, max_iter=max_iter,
                    should_abort=should_abort, Theta0=warm_start,
                )
            precision = fit.precision
            iterations, converged = fit.n_iter, fit.converged
            if faults.fires("glasso.nonconverge"):
                converged = False  # chaos harness: simulated non-convergence
            glasso_objective = fit.objective
            kkt_residual = fit.kkt_residual
            active_set_size = int(fit.support.sum()) // 2
            span.set_attributes(
                iterations=iterations,
                converged=converged,
                objective=fit.objective,
                kkt_residual=fit.kkt_residual,
            )
        elif estimator == "neighborhood":
            precision = neighborhood_selection(S, lam).precision
            iterations, converged, kkt_residual = 1, True, None
            off_support = np.abs(precision) > 1e-10
            np.fill_diagonal(off_support, False)
            active_set_size = int(off_support.sum()) // 2
            span.set_attributes(iterations=1, converged=True)
        else:
            raise ValueError(f"unknown estimator {estimator!r}")
    with clock.stage("factorization", "structure.factorization", ordering=ordering):
        order = compute_order(precision, method=ordering)
        factorization = factorize_with_order(precision, order)
    return StructureEstimate(
        covariance=S,
        precision=precision,
        factorization=factorization,
        glasso_iterations=iterations,
        glasso_converged=converged,
        glasso_objective=glasso_objective,
        lambda_info=lambda_info,
        solver_runs=[{
            "stage": "configured",
            "estimator": estimator,
            "lam": float(lam),
            "iterations": int(iterations),
            "converged": bool(converged),
            "objective": _finite_or_none(glasso_objective),
            "kkt_residual": _finite_or_none(kkt_residual),
            "active_set_size": active_set_size,
            "condition_number": float(condition_number),
            "warm_start": warm_start is not None,
        }],
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
    S: np.ndarray,
    n_samples: float,
    lam: float | str = 0.05,
    ordering: str = "mindegree",
    shrinkage: float = 0.01,
    estimator: str = "glasso",
    max_iter: int = 100,
    clock: StageClock | None = None,
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

    Every rung solves from the same ``S`` and times its stages on the
    same ``clock``, so the clock's seconds cover every rung attempted.
    Cancellation (:class:`repro.resilience.CancelledError`) and input
    validation errors are never swallowed — they are contracts with the
    caller, not solver failures.
    """
    clock = clock if clock is not None else StageClock()
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
                S,
                n_samples,
                ordering=ordering,
                max_iter=max_iter,
                clock=clock,
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
        p = np.shape(S)[0]
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
            "kkt_residual": None,
            "active_set_size": 0,
            "condition_number": 1.0,
            "warm_start": False,
        })
        degraded = True
    estimate.degraded = degraded
    estimate.fallback_chain = chain
    estimate.solver_runs = all_runs
    return estimate
