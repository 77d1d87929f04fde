"""Penalty selection for the graphical lasso.

The paper advertises FDX as usable "without any tedious fine tuning";
this module makes the one remaining knob — the graphical-lasso penalty —
self-tuning via the extended Bayesian information criterion (eBIC,
Foygel & Drton 2010):

    eBIC(lam) = -2 n loglik(Theta_A) + k log n + 4 gamma k log p

where ``A`` is the support (off-diagonal edges) the graphical lasso
selects at ``lam``, ``Theta_A`` its support-constrained MLE, ``k = |A|``,
and ``gamma`` trades off false edges against missed ones (0 = classic
BIC; 0.5 is the standard high-dimensional default). ``FDX(lam="ebic")``
uses this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .glasso import (
    GraphicalLassoResult,
    _inverse,
    _logdet,
    _newton_direction,
    graphical_lasso,
)

#: Default penalty grid searched by :func:`select_lambda_ebic`.
DEFAULT_LAMBDA_GRID = (0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32)


@dataclass
class LambdaSelection:
    """Outcome of the eBIC search.

    ``best_fit`` is the graphical-lasso solve at ``best_lambda``: the
    model itself, so the selected penalty is never solved twice.
    ``scores`` and ``fits`` hold one entry per grid point, in grid order;
    a pruned point scores ``inf``. Each ``fits`` record is plain values —
    score, active-set size, the grid solve's iterations, convergence,
    objective and KKT residual, and the refit's ``pruned``,
    ``refit_residual`` and ``refit_certified`` — the raw material of the
    λ-path solver telemetry (``diagnostics["solver_health"]``).
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


def _edge_penalty(n_edges: int, n_samples: float, p: int, gamma: float) -> float:
    """The eBIC's complexity term ``k log n + 4 gamma k log p``."""
    return n_edges * (np.log(max(n_samples, 2)) + 4.0 * gamma * np.log(max(p, 2)))


def ebic_score(
    S: np.ndarray,
    precision: np.ndarray,
    n_edges: int,
    n_samples: float,
    gamma: float = 0.5,
) -> float:
    """The eBIC of a precision estimate with ``n_edges`` off-diagonal
    edges (lower is better)."""
    loglik = gaussian_loglik(S, precision)
    if not np.isfinite(loglik):
        return np.inf
    return -2.0 * n_samples * loglik + _edge_penalty(n_edges, n_samples, S.shape[0], gamma)


#: A support refit is certified when its residual, ``max |W - S|`` over
#: the support (diagonal included) with ``W = Theta^-1``, is at most this.
REFIT_TOL = 1e-9
#: Newton steps after which an uncertified refit stops.
REFIT_MAX_STEPS = 50


@dataclass
class ConstrainedMLE:
    """A support refit: the Gaussian MLE with ``Theta`` zero off a support,
    certified when ``residual <= REFIT_TOL``."""

    precision: np.ndarray
    #: ``max |W - S|`` over the support, diagonal included; ``inf`` when
    #: ``precision`` could not be inverted.
    residual: float


def constrained_mle(
    S: np.ndarray, support: np.ndarray, Theta0: np.ndarray | None = None
) -> ConstrainedMLE:
    """Gaussian MLE restricted to an edge support (Dempster's covariance
    selection), certified.

    Maximizes ``log det Theta - tr(S Theta)`` over positive-definite
    ``Theta`` that are exactly zero off ``support`` (its diagonal is always
    free). At the optimum ``W = Theta^-1`` equals ``S`` on the support, so
    ``max |W - S|`` there is the certificate, and the solve stops once it
    is at most :data:`REFIT_TOL`. Scoring the *refit* (instead of the
    shrunken lasso estimate) is what makes eBIC comparisons meaningful —
    penalized likelihoods always favor the smallest penalty.

    An attribute with no edge in the support has the exact refit
    ``Theta_ii = 1 / S_ii``; the others are solved on their sub-matrix, as
    :func:`repro.linalg.glasso.graphical_lasso` solves only the
    attributes it cannot close. Damped Newton on the free entries, each
    step from :func:`repro.linalg.glasso._newton_direction`: the step is
    ``1 / (1 + delta)`` for a Newton decrement ``delta >= 0.25`` and 1
    below it, which keeps every iterate positive definite and decreases
    the (self-concordant) objective without evaluating it (Nesterov &
    Nemirovski). The solve starts at ``Theta0`` restricted to the support
    — in :func:`select_lambda_ebic` the graphical-lasso fit that chose it
    — or at ``diag(1 / S_ii)`` when that is not positive definite.
    """
    S = np.asarray(S, dtype=float)
    p = S.shape[0]
    edges = np.asarray(support, dtype=bool) & ~np.eye(p, dtype=bool)
    touched = np.flatnonzero(edges.any(axis=0))
    precision = np.diag(1.0 / np.diag(S))
    if not touched.size:
        return ConstrainedMLE(precision, 0.0)
    sub = np.ix_(touched, touched)
    S = S[sub]
    mask = edges[sub] | np.eye(touched.size, dtype=bool)
    Theta = None if Theta0 is None else np.where(mask, np.asarray(Theta0)[sub], 0.0)
    if Theta is not None and _logdet(Theta) is not None:
        W = _inverse(Theta)
    else:
        Theta, W = np.diag(1.0 / np.diag(S)), np.diag(np.diag(S))
    for step in range(REFIT_MAX_STEPS + 1):
        G = W - S
        G *= mask
        residual = float(max(G.max(), -G.min()))
        if residual <= REFIT_TOL or step == REFIT_MAX_STEPS:
            break
        D = _newton_direction(W, Theta, G, mask)
        decrement = np.sqrt(max(float(np.vdot(D, W @ D @ W)), 0.0))
        D *= 1.0 if decrement < 0.25 else 1.0 / (1.0 + decrement)
        Theta += D
        del W, D, G  # freed first: a refit's peak memory stays below a grid solve's
        if _logdet(Theta) is None:  # only rounding can leave the Dikin ellipsoid
            residual = float("inf")
            break
        W = _inverse(Theta)
    precision[sub] = Theta
    return ConstrainedMLE(precision, residual if np.isfinite(residual) else float("inf"))


def _finite_or_none(value) -> float | None:
    """Plain finite float or ``None`` — keeps telemetry JSON-exact."""
    if value is None:
        return None
    value = float(value)
    return value if np.isfinite(value) else None


def select_lambda_ebic(
    S: np.ndarray,
    n_samples: float,
    grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID,
    gamma: float = 0.5,
    max_iter: int = 100,
    should_abort: Callable[[], None] | None = None,
) -> LambdaSelection:
    """Pick the graphical-lasso penalty minimizing the *refit* eBIC.

    Every penalty's graphical lasso chooses a support ``A``; the point
    scores ``A``'s certified :func:`constrained_mle`, started at that
    fit, with ``k = |A|`` — so the criterion compares supports rather
    than shrinkage levels. Penalties that select an already-seen support
    reuse its score. The selected penalty's solve comes back as
    ``best_fit``.

    Refits run in order of increasing ``|A|``, and a point is **pruned**
    (``fits[lam]["pruned"]``, score ``inf``) when its lower bound
    ``-2n(-log det S - p) + |A|(log n + 4 gamma log p)`` already exceeds
    the best score so far: no ``Theta`` beats the unconstrained MLE
    ``S^-1``, so a pruned point cannot win and the selection is the one
    every refit would give. When ``S`` is not positive definite the
    bound is ``-inf`` and nothing is pruned.

    ``max_iter`` and ``should_abort`` are handed to every grid solve
    (see :func:`repro.linalg.glasso.graphical_lasso`): the Newton-step
    cap bounds each of them, and the grid beats a watchdog heartbeat and
    stops on cancellation.
    """
    if not grid:
        raise ValueError("penalty grid must be non-empty")
    p = S.shape[0]
    solves: dict[float, GraphicalLassoResult] = {}
    edges: dict[float, int] = {}
    for lam in grid:
        solves[lam] = graphical_lasso(
            S, lam, max_iter=max_iter, should_abort=should_abort
        )
        edges[lam] = int(solves[lam].support.sum()) // 2
    sign, logdet = np.linalg.slogdet(S)
    floor = 2.0 * n_samples * (logdet + p) if sign > 0 else -np.inf
    scores: dict[float, float] = {}
    residuals: dict[float, float | None] = {}  # None: pruned
    seen_supports: dict[bytes, tuple[float, float]] = {}
    best_score = np.inf
    for lam in sorted(grid, key=lambda lam: (edges[lam], -lam)):
        support = solves[lam].support
        key = np.packbits(support).tobytes()
        if key not in seen_supports:
            bound = floor + _edge_penalty(edges[lam], n_samples, p, gamma)
            if bound > best_score:
                scores[lam], residuals[lam] = np.inf, None
                continue
            refit = constrained_mle(S, support, solves[lam].precision)
            seen_supports[key] = (
                ebic_score(S, refit.precision, edges[lam], n_samples, gamma),
                refit.residual,
            )
        scores[lam], residuals[lam] = seen_supports[key]
        best_score = min(best_score, scores[lam])
    scores = {lam: scores[lam] for lam in grid}
    fit_records = {
        lam: {
            "score": _finite_or_none(scores[lam]),
            "n_edges": edges[lam],
            "iterations": int(solves[lam].n_iter),
            "converged": bool(solves[lam].converged),
            "objective": _finite_or_none(solves[lam].objective),
            "kkt_residual": _finite_or_none(solves[lam].kkt_residual),
            "pruned": residuals[lam] is None,
            "refit_residual": _finite_or_none(residuals[lam]),
            "refit_certified": residuals[lam] is not None and residuals[lam] <= REFIT_TOL,
        }
        for lam in grid
    }
    best = min(scores, key=lambda lam: (scores[lam], lam))
    return LambdaSelection(
        best_lambda=best, best_fit=solves[best], scores=scores, n_edges=edges,
        fits=fit_records,
    )
