"""Graphical lasso: sparse inverse-covariance estimation.

FDX's structure-learning step (§4.2) is the graphical lasso of Friedman,
Hastie & Tibshirani (2008), ``min_{Theta > 0} -log det Theta
+ tr(S Theta) + lam ||Theta||_1``. This module solves that objective
from scratch by proximal Newton (QUIC: Hsieh, Sustik, Dhillon &
Ravikumar 2014), whose l1-penalized quadratic model is minimized by
orthant-wise Newton-CG steps (Oztoprak, Nocedal, Rennie & Olsen 2012).

Three exact facts shape the solve:

* **Isolated attributes.** An attribute with no ``|S_ij| > lam`` has
  ``Theta_ii = 1 / (S_ii + lam)`` and no edge (Witten, Friedman & Simon
  2011; Mazumder & Hastie 2012), so only the other attributes are solved.
* **Blocks.** A zero entry joins a Newton step only where the model's
  gradient exceeds ``lam``. While ``Theta`` is block-diagonal over the
  connected components of ``|S_ij| > lam`` (the cold start is diagonal),
  that gradient between components is ``S_ij``, at most ``lam``, so
  ``Theta`` stays exactly zero between components without the components
  being computed.
* **Certificate.** A solve stops once the KKT residual of its ``Theta``
  (:func:`glasso_kkt_residual`) is at most ``tol``; ``converged`` and
  ``kkt_residual`` report the residual it stopped on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class GraphicalLassoResult:
    """Output of :func:`graphical_lasso`."""

    covariance: np.ndarray
    precision: np.ndarray
    #: Newton steps taken.
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

    ``+inf`` when ``Theta`` is not positive definite.
    """
    sign, logdet = np.linalg.slogdet(precision)
    if sign <= 0:
        return float("inf")
    return float(
        -logdet + np.sum(S * precision) + lam * np.abs(precision).sum()
    )


def _kkt_violation(gap: np.ndarray, precision: np.ndarray, lam: float) -> float:
    """The KKT residual of ``precision`` from ``gap = W - S``."""
    violation = np.abs(gap - lam * np.sign(precision))
    violation -= lam * (precision == 0)
    residual = float(np.max(violation, initial=0.0))
    return residual if np.isfinite(residual) else float("inf")


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
    if _logdet(precision) is None:
        return float("inf")
    return _kkt_violation(_inverse(precision) - S, precision, lam)


def _logdet(Theta: np.ndarray) -> float | None:
    """``log det Theta`` from its Cholesky factor, or ``None`` when
    ``Theta`` is not positive definite."""
    if not np.isfinite(Theta).all():
        return None
    try:
        factor = np.linalg.cholesky(Theta)
    except np.linalg.LinAlgError:
        return None
    return 2.0 * float(np.log(np.diag(factor)).sum())


def _inverse(Theta: np.ndarray) -> np.ndarray:
    """``Theta^-1`` of a positive-definite ``Theta``, symmetrized."""
    W = np.linalg.inv(Theta)
    W += W.T
    W *= 0.5
    return W


def _newton_direction(
    W: np.ndarray, Theta: np.ndarray, R: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """The step ``D``, zero off ``A = mask``, with ``(W D W)_A = R``.

    ``W D W`` is the Hessian of ``-log det`` at ``Theta = W^-1`` applied
    to ``D``. Solved by conjugate gradients in the Frobenius inner
    product, preconditioned by ``R -> (Theta R Theta)_A``, the Hessian's
    inverse when ``A`` is full. ``R`` holds the right-hand side on entry
    and the CG residual on return. CG stops once that residual is
    ``min(0.5, sqrt|R|) |R|``: an inexact Newton method that still
    converges superlinearly. It allocates four ``p x p`` arrays.
    """
    work = np.empty_like(R)

    def restricted(M: np.ndarray, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``(M X M)_A``, written to ``out``."""
        np.matmul(M, X, out=work)
        np.matmul(work, M, out=out)
        out *= mask
        return out

    r_norm = float(np.linalg.norm(R))
    target = min(0.5, np.sqrt(r_norm)) * r_norm
    D = np.zeros_like(R)
    Q = restricted(Theta, R, np.empty_like(R))  # the preconditioned residual
    P = Q.copy()
    rz = np.vdot(R, Q)
    for _ in range(int(mask.sum())):
        restricted(W, P, Q)  # the Hessian applied to P
        alpha = rz / np.vdot(P, Q)
        D += np.multiply(P, alpha, out=work)
        R -= np.multiply(Q, alpha, out=work)
        if np.linalg.norm(R) <= target:
            break
        restricted(Theta, R, Q)
        rz, rz_old = np.vdot(R, Q), rz
        P *= rz / rz_old
        P += Q
    # The products round asymmetrically; the solution is symmetric, and
    # projecting onto it keeps every Theta exactly symmetric.
    np.add(D, D.T, out=work)
    np.multiply(work, 0.5, out=D)
    return D


#: Orthant-wise steps after which a model minimization stops.
MODEL_MAX_STEPS = 20
#: Armijo fraction of the predicted decrease a Newton step must achieve.
ARMIJO = 1e-3


def _line_minimum(
    X: np.ndarray, P: np.ndarray, kinks: np.ndarray, slope: float,
    curvature: float, lam: float,
) -> float:
    """The ``alpha >= 0`` minimizing the convex, piecewise-quadratic
    ``slope alpha + curvature alpha^2 / 2 + lam ||X + alpha P||_1``.

    ``slope`` excludes the l1 term. An entry moving toward zero kinks the
    function where it reaches zero, at ``kinks_ij = -X_ij / P_ij``
    (``inf`` for the others), and the derivative rises by ``2 lam
    |P_ij|`` there. The minimum is where the derivative changes sign:
    between two kinks, or at one.
    """
    slope += lam * float(np.vdot(np.sign(X), P) + np.abs(P[X == 0]).sum())
    crossing = np.isfinite(kinks)
    order = np.argsort(kinks[crossing])
    at = kinks[crossing][order]
    jumps = np.cumsum(2.0 * lam * np.abs(P[crossing][order]))
    right = slope + curvature * at + jumps  # the derivative just past each kink
    k = int(np.argmax(right >= 0)) if at.size and right[-1] >= 0 else at.size
    passed = jumps[k - 1] if k > 0 else 0.0  # the jumps of the kinks passed
    alpha = -(slope + passed) / curvature
    return float(at[k]) if k < at.size and alpha > at[k] else alpha


def _model_step(
    W: np.ndarray, Theta: np.ndarray, G: np.ndarray, lam: float, tol: float
) -> np.ndarray:
    """The proximal Newton step: the ``D`` minimizing the model
    ``q(D) = <G, D> + 1/2 <D, W D W> + lam ||Theta + D||_1``.

    Orthant-wise Newton-CG on ``X = Theta + D``: fix the orthant of the
    minimum-norm subgradient (the signs of ``X``; a zero entry joins with
    ``-sign(g)`` when ``|g| > lam``, ``g`` the model's smooth gradient, and
    stays at zero otherwise) and take the Newton step ``P`` on that face
    (:func:`_newton_direction`). The step with every entry that left its
    orthant zeroed is taken when it lowers ``q``; otherwise ``X`` moves to
    the exact minimum of ``q`` along ``P`` (:func:`_line_minimum`), which
    always lowers it. Stops once the subgradient's largest entry is at
    most ``tol``.
    """
    X = Theta.copy()
    g = G.copy()
    for _ in range(MODEL_MAX_STEPS):
        orthant = np.sign(X)
        orthant -= np.sign(g) * ((X == 0) & (np.abs(g) > lam))
        active = orthant != 0
        pseudo = g + lam * orthant
        pseudo *= active
        if np.max(np.abs(pseudo), initial=0.0) <= tol:
            break
        P = _newton_direction(W, Theta, -pseudo, active)
        trial = X + P
        trial *= np.sign(trial) == orthant
        step = trial - X
        H_step = W @ step @ W
        change = float(
            np.vdot(g, step) + 0.5 * np.vdot(step, H_step)
            + lam * (np.abs(trial).sum() - np.abs(X).sum())
        )
        if not change < 0:
            stuck = (X == 0) & active & (np.sign(P) != orthant)
            if stuck.any():  # entering entries the face step moves out of their orthant
                active &= ~stuck
                orthant *= active
                pseudo *= active
                P = _newton_direction(W, Theta, -pseudo, active)
                P *= (X != 0) | (np.sign(P) == orthant)
            H_step = W @ P @ W
            curvature = float(np.vdot(P, H_step))
            if not curvature > 0:
                break
            kinks = np.divide(-X, P, out=np.full_like(X, np.inf), where=X * P < 0)
            alpha = _line_minimum(X, P, kinks, float(np.vdot(g, P)), curvature, lam)
            if not alpha > 0:
                break
            trial = X + alpha * P
            trial[kinks == alpha] = 0.0  # reached zero exactly
            H_step *= alpha
        X = trial
        g += H_step
    return X - Theta


def _proximal_newton(
    S: np.ndarray,
    lam: float,
    max_iter: int,
    tol: float,
    should_abort: Callable[[], None] | None,
    Theta0: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Proximal Newton on ``S``: returns ``W``, ``Theta``, the Newton
    steps taken and the KKT residual the solve stopped on.

    Each step minimizes the quadratic model of the smooth part plus the
    exact l1 term (:func:`_model_step`), then halves the step until
    ``Theta`` stays positive definite and the true objective falls by at
    least ``ARMIJO`` of the model's prediction. The model is solved to a
    tolerance that shrinks with the residual, so the steps converge
    superlinearly.
    """
    Theta = None if Theta0 is None else 0.5 * (Theta0 + Theta0.T)
    logdet = None if Theta is None else _logdet(Theta)
    if logdet is None:
        Theta = np.diag(1.0 / (np.diag(S) + lam))
        logdet = _logdet(Theta)
    W = _inverse(Theta)
    l1 = float(np.abs(Theta).sum())
    objective = -logdet + float(np.vdot(S, Theta)) + lam * l1
    steps = 0
    while True:
        gap = W - S
        residual = _kkt_violation(gap, Theta, lam)
        if residual <= tol or steps == max_iter:
            return W, Theta, steps, residual
        if should_abort is not None:
            should_abort()
        G = -gap  # the gradient of -log det Theta + tr(S Theta)
        D = _model_step(
            W, Theta, G, lam, max(0.1 * min(0.5, residual) * residual, 0.25 * tol)
        )
        decrease = float(np.vdot(G, D)) + lam * (float(np.abs(Theta + D).sum()) - l1)
        slack = 1e-12 * max(1.0, abs(objective))
        alpha = 1.0
        for _ in range(40):
            trial = Theta + alpha * D
            logdet = _logdet(trial)
            if logdet is not None:
                trial_l1 = float(np.abs(trial).sum())
                trial_objective = -logdet + float(np.vdot(S, trial)) + lam * trial_l1
                if trial_objective <= objective + ARMIJO * alpha * decrease + slack:
                    break
            alpha *= 0.5
        else:
            return W, Theta, steps, residual  # no descent left to find
        Theta, W, l1, objective = trial, _inverse(trial), trial_l1, trial_objective
        steps += 1


def graphical_lasso(
    S: np.ndarray,
    lam: float,
    max_iter: int = 100,
    tol: float = 1e-6,
    should_abort: Callable[[], None] | None = None,
    Theta0: np.ndarray | None = None,
) -> GraphicalLassoResult:
    """Estimate a sparse precision matrix from covariance ``S``.

    Attributes with no ``|S_ij| > lam`` are closed-form (see the module
    docstring); all others are solved together by proximal Newton, and
    ``n_iter`` counts its Newton steps.

    Parameters
    ----------
    S:
        Empirical covariance (symmetric PSD).
    lam:
        L1 penalty. ``lam == 0`` falls back to a (ridge-stabilized) direct
        inverse.
    max_iter:
        Cap on the Newton steps.
    tol:
        Bound on the KKT residual (:func:`glasso_kkt_residual`, in the
        units of ``S``) at which the solve stops; the result is
        ``converged`` when its residual is at most ``tol``.
    should_abort:
        Optional cooperative-cancellation hook called before every Newton
        step; raise from it (e.g.
        :meth:`repro.resilience.CancelToken.raise_if_cancelled`) to
        abandon the solve promptly when the surrounding job is
        cancelled or timed out.
    Theta0:
        Optional warm start: a previous solve's precision matrix (for a
        nearby ``S``, e.g. the last refresh of a streaming session). The
        solve starts at its sub-block over the attributes it solves, so
        it certifies in two or three Newton steps instead of re-deriving
        the structure from scratch. The fixed point is unchanged — for
        ``lam > 0`` the program is strictly convex, so warm and cold
        starts agree within ``tol``. A ``Theta0`` of the wrong shape,
        with non-finite entries or whose sub-block is not positive
        definite is ignored (cold start) rather than rejected.
    """
    S = np.asarray(S, dtype=float)
    p = S.shape[0]
    if S.shape != (p, p):
        raise ValueError("S must be square")
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    if lam == 0.0:
        precision = _regularized_inverse(S)
        return _certified(
            S, S.copy(), precision, 0, 0.0, tol, glasso_kkt_residual(S, precision, 0.0)
        )

    warm = (
        Theta0 is not None
        and np.shape(Theta0) == (p, p)
        and bool(np.isfinite(Theta0).all())
    )
    coupled = np.abs(S) > lam
    np.fill_diagonal(coupled, False)
    solved = np.flatnonzero(coupled.any(axis=0))
    diagonal = np.diag(S) + lam
    covariance = np.diag(diagonal)
    precision = np.diag(1.0 / diagonal)
    n_iter, residual = 0, 0.0  # the closed form is exact
    if solved.size:
        sub = np.ix_(solved, solved)
        W, Theta, n_iter, residual = _proximal_newton(
            S[sub], lam, max_iter, tol, should_abort,
            np.asarray(Theta0, dtype=float)[sub] if warm else None,
        )
        covariance[sub] = W
        precision[sub] = Theta
    return _certified(S, covariance, precision, n_iter, lam, tol, residual)


def _certified(
    S: np.ndarray,
    covariance: np.ndarray,
    precision: np.ndarray,
    n_iter: int,
    lam: float,
    tol: float,
    residual: float,
) -> GraphicalLassoResult:
    """The result for ``precision``, certified by its KKT ``residual``."""
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
