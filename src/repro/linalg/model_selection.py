"""Penalty selection for the graphical lasso.

The paper advertises FDX as usable "without any tedious fine tuning";
this module makes the one remaining knob — the graphical-lasso penalty —
self-tuning via the extended Bayesian information criterion (eBIC,
Foygel & Drton 2010):

    eBIC(lam) = -2 n loglik(Theta_lam) + k log n + 4 gamma k log p

where ``k`` counts the estimated non-zero off-diagonal pairs and ``gamma``
trades off false edges against missed ones (0 = classic BIC; 0.5 is the
standard high-dimensional default). ``FDX(lam="ebic")`` uses this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .glasso import GraphicalLassoResult, graphical_lasso

#: Default penalty grid searched by :func:`select_lambda_ebic`.
DEFAULT_LAMBDA_GRID = (0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32)


@dataclass
class LambdaSelection:
    """Outcome of the eBIC search.

    ``best_fit`` is the graphical-lasso solve at ``best_lambda``: the
    model itself, so the selected penalty is never solved twice.
    ``fits`` carries one plain-value record per grid point — score,
    active-set size, iterations, convergence, objective, KKT residual —
    the raw material of the λ-path solver telemetry
    (``diagnostics["solver_health"]``).
    """

    best_lambda: float
    best_fit: GraphicalLassoResult
    scores: dict[float, float]
    n_edges: dict[float, int]
    fits: dict[float, dict] = field(default_factory=dict)


def gaussian_loglik(S: np.ndarray, precision: np.ndarray) -> float:
    """Average Gaussian log-likelihood term ``logdet(Theta) - tr(S Theta)``."""
    sign, logdet = np.linalg.slogdet(precision)
    if sign <= 0:
        return -np.inf
    return float(logdet - np.trace(S @ precision))


def ebic_score(
    S: np.ndarray, precision: np.ndarray, n_samples: int, gamma: float = 0.5
) -> float:
    """The eBIC of a precision estimate (lower is better)."""
    p = S.shape[0]
    off = np.abs(precision) > 1e-10
    np.fill_diagonal(off, False)
    k = int(off.sum()) // 2
    loglik = gaussian_loglik(S, precision)
    if not np.isfinite(loglik):
        return np.inf
    return (
        -2.0 * n_samples * loglik
        + k * np.log(max(n_samples, 2))
        + 4.0 * gamma * k * np.log(max(p, 2))
    )


def constrained_mle(
    S: np.ndarray, support: np.ndarray, sweeps: int = 25, ridge: float = 1e-8
) -> np.ndarray:
    """Gaussian MLE restricted to a given edge support (covariance
    selection via vertex-wise iterative proportional fitting).

    Finds ``W`` with ``W[i, j] = S[i, j]`` on edges/diagonal and
    ``(W^-1)[i, j] = 0`` off the support, then returns ``W^-1``. Scoring
    the *refit* (instead of the shrunken lasso estimate) is what makes
    eBIC comparisons meaningful — penalized likelihoods always favor the
    smallest penalty.
    """
    S = np.asarray(S, dtype=float)
    p = S.shape[0]
    W = np.diag(np.diag(S)).astype(float)
    idx = np.arange(p)
    for _ in range(sweeps):
        change = 0.0
        for j in range(p):
            neighbors = idx[support[:, j] & (idx != j)]
            if neighbors.size == 0:
                continue
            Wnn = W[np.ix_(neighbors, neighbors)]
            beta = np.linalg.solve(Wnn + ridge * np.eye(len(neighbors)), S[neighbors, j])
            w_col = W[:, neighbors] @ beta
            w_col[j] = S[j, j]
            change = max(change, float(np.max(np.abs(W[:, j] - w_col))))
            W[:, j] = w_col
            W[j, :] = w_col
        if change < 1e-9:
            break
    try:
        return np.linalg.inv(W)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(W)


def _finite_or_none(value) -> float | None:
    """Plain finite float or ``None`` — keeps telemetry JSON-exact."""
    if value is None:
        return None
    value = float(value)
    return value if np.isfinite(value) else None


def select_lambda_ebic(
    S: np.ndarray,
    n_samples: int,
    grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID,
    gamma: float = 0.5,
    max_iter: int = 100,
    should_abort: Callable[[], None] | None = None,
) -> LambdaSelection:
    """Pick the graphical-lasso penalty minimizing the *refit* eBIC.

    For each penalty: estimate the support with the graphical lasso,
    refit the support-constrained MLE, and score that refit — so the
    criterion compares supports rather than shrinkage levels. Penalties
    that select an already-seen support reuse its score instead of
    refitting. The selected penalty's solve comes back as ``best_fit``.

    ``max_iter`` and ``should_abort`` are handed to every grid solve
    (see :func:`repro.linalg.glasso.graphical_lasso`): the outer-iteration
    cap bounds each of them, and the grid beats a watchdog heartbeat and
    stops on cancellation.
    """
    if not grid:
        raise ValueError("penalty grid must be non-empty")
    solves: dict[float, GraphicalLassoResult] = {}
    scores: dict[float, float] = {}
    edges: dict[float, int] = {}
    fit_records: dict[float, dict] = {}
    seen_supports: dict[bytes, float] = {}
    for lam in grid:
        result = graphical_lasso(
            S, lam, max_iter=max_iter, should_abort=should_abort
        )
        support = result.support | np.eye(S.shape[0], dtype=bool)
        key = np.packbits(support).tobytes()
        if key not in seen_supports:
            refit = constrained_mle(S, support)
            seen_supports[key] = ebic_score(S, refit, n_samples, gamma=gamma)
        solves[lam] = result
        scores[lam] = seen_supports[key]
        edges[lam] = int(result.support.sum()) // 2
        fit_records[lam] = {
            "score": _finite_or_none(scores[lam]),
            "n_edges": edges[lam],
            "iterations": int(result.n_iter),
            "converged": bool(result.converged),
            "objective": _finite_or_none(result.objective),
            "kkt_residual": _finite_or_none(result.kkt_residual),
        }
    best = min(scores, key=lambda lam: (scores[lam], lam))
    return LambdaSelection(
        best_lambda=best, best_fit=solves[best], scores=scores, n_edges=edges,
        fits=fit_records,
    )
