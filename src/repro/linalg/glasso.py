"""Graphical lasso: sparse inverse-covariance estimation.

From-scratch implementation of the block coordinate-descent algorithm of
Friedman, Hastie & Tibshirani (2008), the solver the paper uses for FDX's
structure-learning step (§4.2): ``min_{Theta > 0} -log det Theta
+ tr(S Theta) + lam ||Theta||_1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lasso import lasso_coordinate_descent


@dataclass
class GraphicalLassoResult:
    """Output of :func:`graphical_lasso`."""

    covariance: np.ndarray
    precision: np.ndarray
    n_iter: int
    converged: bool
    #: Final penalized negative log-likelihood (see :func:`glasso_objective`).
    objective: float = float("nan")
    #: Final duality gap estimate (0 at the optimum; telemetry only).
    dual_gap: float = float("nan")

    @property
    def support(self) -> np.ndarray:
        """Boolean adjacency of the estimated conditional-dependency graph
        (non-zero off-diagonal entries of the precision matrix)."""
        adj = np.abs(self.precision) > 1e-10
        np.fill_diagonal(adj, False)
        return adj


def _regularized_inverse(S: np.ndarray, ridge: float = 1e-8) -> np.ndarray:
    p = S.shape[0]
    try:
        return np.linalg.inv(S + ridge * np.eye(p))
    except np.linalg.LinAlgError:
        return np.linalg.pinv(S + ridge * np.eye(p))


def glasso_objective(S: np.ndarray, precision: np.ndarray, lam: float) -> float:
    """Penalized objective ``-log det Theta + tr(S Theta) + lam ||Theta||_1``.

    ``+inf`` when ``Theta`` is not positive definite (the iterates can
    leave the cone transiently; the objective is telemetry, not a step
    criterion).
    """
    sign, logdet = np.linalg.slogdet(precision)
    if sign <= 0:
        return float("inf")
    return float(
        -logdet + np.sum(S * precision) + lam * np.abs(precision).sum()
    )


def glasso_dual_gap(S: np.ndarray, precision: np.ndarray, lam: float) -> float:
    """Duality-gap estimate ``tr(S Theta) + lam ||Theta||_1 - p``.

    Zero at the optimum of the (diagonal-penalized) graphical-lasso
    program, where ``tr((S + lam Z) Theta) = p`` for a subgradient ``Z``
    of the L1 norm.
    """
    p = S.shape[0]
    return float(np.sum(S * precision) + lam * np.abs(precision).sum() - p)


def _betas_from_precision(Theta0: np.ndarray) -> np.ndarray:
    """Per-column lasso coefficients implied by a precision matrix.

    Inverts the recovery identity of :func:`_precision_from_working`:
    ``theta_12 = -beta * theta_22`` gives ``beta_j = -Theta[rest, j] /
    Theta[j, j]``. Feeding a previous solve's ``Theta`` back through this
    map warm-starts every inner lasso at (near) its fixed point.
    """
    Theta0 = np.asarray(Theta0, dtype=float)
    p = Theta0.shape[0]
    indices = np.arange(p)
    betas = np.zeros((p, p - 1))
    for j in range(p):
        theta_jj = Theta0[j, j]
        if theta_jj <= 1e-12 or not np.isfinite(theta_jj):
            continue  # degenerate column: fall back to a cold start
        beta = -Theta0[indices != j, j] / theta_jj
        betas[j] = np.where(np.isfinite(beta), beta, 0.0)
    return betas


def _precision_from_working(W: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Recover ``Theta`` from the working covariance and lasso coefficients."""
    p = W.shape[0]
    indices = np.arange(p)
    precision = np.zeros((p, p))
    for j in range(p):
        rest = indices[indices != j]
        beta = betas[j]
        w12 = W[rest, j]
        denom = W[j, j] - w12 @ beta
        theta_jj = 1.0 / denom if denom > 1e-12 else 1.0 / max(W[j, j], 1e-12)
        precision[j, j] = theta_jj
        precision[rest, j] = -beta * theta_jj
    # Symmetrize (numerical asymmetry from the column sweeps).
    return 0.5 * (precision + precision.T)


def graphical_lasso(
    S: np.ndarray,
    lam: float,
    max_iter: int = 100,
    tol: float = 1e-4,
    inner_max_iter: int = 200,
    should_abort: Callable[[], None] | None = None,
    Theta0: np.ndarray | None = None,
) -> GraphicalLassoResult:
    """Estimate a sparse precision matrix from covariance ``S``.

    Parameters
    ----------
    S:
        Empirical covariance (symmetric PSD).
    lam:
        L1 penalty. ``lam == 0`` falls back to a (ridge-stabilized) direct
        inverse.
    tol:
        Convergence threshold on the mean absolute change of the working
        covariance's off-diagonal, relative to the mean absolute
        off-diagonal of ``S``.
    should_abort:
        Optional cooperative-cancellation hook called at the start of
        every outer iteration; raise from it (e.g.
        :meth:`repro.resilience.CancelToken.raise_if_cancelled`) to
        abandon the solve promptly when the surrounding job is
        cancelled or timed out.
    Theta0:
        Optional warm start: a previous solve's precision matrix (for a
        nearby ``S``, e.g. the last refresh of a streaming session). The
        working covariance starts at ``Theta0^{-1}`` (diagonal reset to
        ``diag(S) + lam``) and every column's lasso coefficients start at
        the values ``Theta0`` implies, so the outer loop converges in one
        or two sweeps instead of re-deriving the structure from scratch.
        The fixed point is unchanged — for ``lam > 0`` the program is
        strictly convex, so warm and cold starts agree within ``tol``.
        A ``Theta0`` of the wrong shape or with non-finite entries is
        ignored (cold start) rather than rejected.
    """
    S = np.asarray(S, dtype=float)
    p = S.shape[0]
    if S.shape != (p, p):
        raise ValueError("S must be square")
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    if p == 0:
        empty = np.zeros((0, 0))
        return GraphicalLassoResult(empty, empty, 0, True, 0.0, 0.0)
    if p == 1:
        w = S[0, 0] + lam
        cov = np.array([[w]])
        prec = np.array([[1.0 / w if w > 0 else 0.0]])
        return GraphicalLassoResult(
            cov, prec, 0, True,
            glasso_objective(S, prec, lam), glasso_dual_gap(S, prec, lam),
        )
    if lam == 0.0:
        precision = _regularized_inverse(S)
        return GraphicalLassoResult(
            S.copy(), precision, 0, True,
            glasso_objective(S, precision, 0.0), glasso_dual_gap(S, precision, 0.0),
        )

    warm = (
        Theta0 is not None
        and np.shape(Theta0) == (p, p)
        and bool(np.isfinite(Theta0).all())
    )
    if warm:
        W = _regularized_inverse(np.asarray(Theta0, dtype=float))
        W = 0.5 * (W + W.T)
        W[np.diag_indices_from(W)] = np.diag(S) + lam
        betas = _betas_from_precision(Theta0)
    else:
        W = S.copy()
        W[np.diag_indices_from(W)] += lam
        betas = np.zeros((p, p - 1))  # warm starts, one per column
    indices = np.arange(p)
    off_mask = ~np.eye(p, dtype=bool)
    s_offdiag_scale = np.mean(np.abs(S[off_mask])) if p > 1 else 0.0
    threshold = tol * max(s_offdiag_scale, 1e-12)

    n_iter = 0
    converged = False
    for n_iter in range(1, max_iter + 1):
        if should_abort is not None:
            should_abort()
        W_old = W.copy()
        for j in range(p):
            rest = indices[indices != j]
            W11 = W[np.ix_(rest, rest)]
            s12 = S[rest, j]
            beta = lasso_coordinate_descent(
                W11, s12, lam, beta0=betas[j], max_iter=inner_max_iter
            )
            betas[j] = beta
            w12 = W11 @ beta
            W[rest, j] = w12
            W[j, rest] = w12
        change = np.mean(np.abs(W[off_mask] - W_old[off_mask]))
        if change < threshold:
            converged = True
            break

    precision = _precision_from_working(W, betas)
    return GraphicalLassoResult(
        W, precision, n_iter, converged,
        glasso_objective(S, precision, lam), glasso_dual_gap(S, precision, lam),
    )


def precision_to_partial_correlation(precision: np.ndarray) -> np.ndarray:
    """Partial correlation matrix ``-theta_ij / sqrt(theta_ii theta_jj)``."""
    precision = np.asarray(precision, dtype=float)
    d = np.sqrt(np.clip(np.diag(precision), 1e-12, None))
    pc = -precision / np.outer(d, d)
    pc[np.diag_indices_from(pc)] = 1.0
    return pc
