"""Graphical lasso: sparse inverse-covariance estimation.

From-scratch implementation of the block coordinate-descent algorithm of
Friedman, Hastie & Tibshirani (2008), the solver the paper uses for FDX's
structure-learning step (§4.2): ``min_{Theta > 0} -log det Theta
+ tr(S Theta) + lam ||Theta||_1``.

Two exact facts shape the solve:

* **Screening** (Witten, Friedman & Simon 2011; Mazumder & Hastie 2012).
  The connected components of the graph ``|S_ij| > lam`` are exactly the
  blocks of the solution: ``Theta_ij = 0`` between components, an
  isolated attribute has ``Theta_ii = 1 / (S_ii + lam)``, and every other
  component is solved on its own sub-matrix.
* **Certificate.** A solve stops once the KKT residual of the recovered
  ``Theta`` (:func:`glasso_kkt_residual`) is at most ``tol``, and
  ``converged`` reports exactly that.
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
    #: Certified: ``kkt_residual <= tol``.
    converged: bool
    #: Final penalized negative log-likelihood (see :func:`glasso_objective`).
    objective: float
    #: KKT residual of ``precision`` (see :func:`glasso_kkt_residual`).
    kkt_residual: float

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


def glasso_kkt_residual(S: np.ndarray, precision: np.ndarray, lam: float) -> float:
    """Largest violation of the graphical-lasso KKT conditions at ``Theta``.

    With ``W = Theta^{-1}`` the optimum satisfies ``W_ii = S_ii + lam``,
    ``W_ij - S_ij = lam sign(Theta_ij)`` where ``Theta_ij != 0`` and
    ``|W_ij - S_ij| <= lam`` where ``Theta_ij == 0``. The residual is the
    largest of ``|W_ij - S_ij - lam sign(Theta_ij)|`` on the support (the
    diagonal included, where ``Theta_ii > 0``) and ``(|W_ij - S_ij| -
    lam)_+`` off it: 0 exactly at the optimum, in the units of ``S``.
    ``inf`` when ``Theta`` is not positive definite or not finite.
    """
    try:
        np.linalg.cholesky(precision)
        W = np.linalg.inv(precision)
    except np.linalg.LinAlgError:
        return float("inf")
    gap = W - S
    violation = np.where(
        precision != 0,
        np.abs(gap - lam * np.sign(precision)),
        np.maximum(np.abs(gap) - lam, 0.0),
    )
    residual = float(np.max(violation, initial=0.0))
    return residual if np.isfinite(residual) else float("inf")


def _screen_components(S: np.ndarray, lam: float) -> list[np.ndarray]:
    """Connected components of the graph ``|S_ij| > lam``, each an index
    array in ascending order, ordered by their smallest index."""
    adjacency = np.abs(S) > lam
    np.fill_diagonal(adjacency, False)
    p = S.shape[0]
    assigned = np.zeros(p, dtype=bool)
    components = []
    for seed in range(p):
        if assigned[seed]:
            continue
        members = np.zeros(p, dtype=bool)
        members[seed] = True
        frontier = members
        while frontier.any():
            frontier = adjacency[frontier].any(axis=0) & ~members
            members |= frontier
        assigned |= members
        components.append(np.flatnonzero(members))
    return components


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


def _block_coordinate_descent(
    S: np.ndarray,
    lam: float,
    max_iter: int,
    tol: float,
    inner_max_iter: int,
    should_abort: Callable[[], None] | None,
    Theta0: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Friedman et al.'s block coordinate descent on one screen component.

    Sweeps the columns, one lasso each, until the KKT residual of the
    recovered ``Theta`` is at most ``tol`` or ``max_iter`` sweeps ran.
    Returns the working covariance, ``Theta`` and the sweeps taken.
    """
    p = S.shape[0]
    if Theta0 is not None:
        W = _regularized_inverse(Theta0)
        W = 0.5 * (W + W.T)
        W[np.diag_indices_from(W)] = np.diag(S) + lam
        betas = _betas_from_precision(Theta0)
    else:
        W = S.copy()
        W[np.diag_indices_from(W)] += lam
        betas = np.zeros((p, p - 1))  # warm starts, one per column
    indices = np.arange(p)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        if should_abort is not None:
            should_abort()
        for j in range(p):
            rest = indices[indices != j]
            W11 = W[np.ix_(rest, rest)]
            beta = lasso_coordinate_descent(
                W11, S[rest, j], lam, beta0=betas[j], max_iter=inner_max_iter
            )
            betas[j] = beta
            w12 = W11 @ beta
            W[rest, j] = w12
            W[j, rest] = w12
        precision = _precision_from_working(W, betas)
        if glasso_kkt_residual(S, precision, lam) <= tol:
            return W, precision, n_iter
    return W, _precision_from_working(W, betas), n_iter


def graphical_lasso(
    S: np.ndarray,
    lam: float,
    max_iter: int = 100,
    tol: float = 1e-6,
    inner_max_iter: int = 200,
    should_abort: Callable[[], None] | None = None,
    Theta0: np.ndarray | None = None,
) -> GraphicalLassoResult:
    """Estimate a sparse precision matrix from covariance ``S``.

    ``S`` is first split into the connected components of ``|S_ij| >
    lam`` (see the module docstring); each component of two or more
    attributes runs block coordinate descent on its sub-matrix, and
    ``n_iter`` is the most outer sweeps any component took.

    Parameters
    ----------
    S:
        Empirical covariance (symmetric PSD).
    lam:
        L1 penalty. ``lam == 0`` falls back to a (ridge-stabilized) direct
        inverse.
    max_iter:
        Cap on the outer sweeps of each component.
    tol:
        Bound on the KKT residual (:func:`glasso_kkt_residual`, in the
        units of ``S``) at which a component's sweeps stop. The result
        is ``converged`` when the residual of the whole ``Theta`` is at
        most ``tol``.
    should_abort:
        Optional cooperative-cancellation hook called at the start of
        every outer iteration; raise from it (e.g.
        :meth:`repro.resilience.CancelToken.raise_if_cancelled`) to
        abandon the solve promptly when the surrounding job is
        cancelled or timed out.
    Theta0:
        Optional warm start: a previous solve's precision matrix (for a
        nearby ``S``, e.g. the last refresh of a streaming session). Each
        component's working covariance starts at the inverse of its
        sub-block of ``Theta0`` (diagonal reset to ``diag(S) + lam``) and
        every column's lasso coefficients start at the values that
        sub-block implies, so the outer loop certifies in a sweep or two
        instead of re-deriving the structure from scratch.
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
    if lam == 0.0:
        return _certified(S, S.copy(), _regularized_inverse(S), 0, 0.0, tol)

    warm = (
        Theta0 is not None
        and np.shape(Theta0) == (p, p)
        and bool(np.isfinite(Theta0).all())
    )
    diagonal = np.diag(S) + lam
    covariance = np.diag(diagonal)
    precision = np.diag(1.0 / diagonal)
    n_iter = 0
    for block in _screen_components(S, lam):
        if block.size == 1:
            continue  # isolated attribute: the closed form above
        sub = np.ix_(block, block)
        W, Theta, sweeps = _block_coordinate_descent(
            S[sub], lam, max_iter, tol, inner_max_iter, should_abort,
            np.asarray(Theta0, dtype=float)[sub] if warm else None,
        )
        covariance[sub] = W
        precision[sub] = Theta
        n_iter = max(n_iter, sweeps)
    return _certified(S, covariance, precision, n_iter, lam, tol)


def _certified(
    S: np.ndarray,
    covariance: np.ndarray,
    precision: np.ndarray,
    n_iter: int,
    lam: float,
    tol: float,
) -> GraphicalLassoResult:
    """The result for ``precision``, certified by its KKT residual."""
    residual = glasso_kkt_residual(S, precision, lam)
    return GraphicalLassoResult(
        covariance, precision, n_iter, residual <= tol,
        glasso_objective(S, precision, lam), residual,
    )


def precision_to_partial_correlation(precision: np.ndarray) -> np.ndarray:
    """Partial correlation matrix ``-theta_ij / sqrt(theta_ii theta_jj)``."""
    precision = np.asarray(precision, dtype=float)
    d = np.sqrt(np.clip(np.diag(precision), 1e-12, None))
    pc = -precision / np.outer(d, d)
    pc[np.diag_indices_from(pc)] = 1.0
    return pc
