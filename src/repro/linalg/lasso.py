"""Coordinate-descent lasso solver (no scikit-learn).

:func:`lasso_coordinate_descent` solves the quadratic lasso
``min_b 0.5 b' Q b - c' b + lam * ||b||_1`` that neighborhood selection
(:mod:`repro.linalg.neighborhood`, the last solver rung of FDX's
fallback ladder) solves for every variable. A regression
``min_b 0.5/n ||y - X b||^2 + lam ||b||_1`` is the same problem with
``Q = X'X/n`` and ``c = X'y/n``.
"""

from __future__ import annotations

import numpy as np


def soft_threshold(x: float, t: float) -> float:
    """The soft-thresholding operator ``S(x, t) = sign(x) max(|x|-t, 0)``."""
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def lasso_coordinate_descent(
    Q: np.ndarray,
    c: np.ndarray,
    lam: float,
    beta0: np.ndarray | None = None,
    max_iter: int = 1000,
    tol: float = 1e-8,
) -> np.ndarray:
    """Solve ``min_b 0.5 b'Qb - c'b + lam ||b||_1`` by coordinate descent.

    ``Q`` must be symmetric positive semi-definite with strictly positive
    diagonal. ``beta0`` is an optional warm start.

    Sweeps only have to find the signed support. A sign pattern that
    ``beta0`` already has, or that a sweep leaves unchanged, is finished
    exactly by :func:`_exact_step`: the solution it certifies is returned;
    otherwise the sweeps resume from the point it reached (never worse),
    until the largest coordinate change falls below ``tol`` or after
    ``max_iter`` sweeps.
    """
    Q = np.asarray(Q, dtype=float)
    c = np.asarray(c, dtype=float)
    p = c.shape[0]
    if Q.shape != (p, p):
        raise ValueError(f"Q shape {Q.shape} incompatible with c of length {p}")
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    beta = np.zeros(p) if beta0 is None else np.array(beta0, dtype=float)
    if p == 0:
        return beta
    diag = np.diag(Q).copy()
    if np.any(diag <= 0):
        # Guard against exactly-zero variance coordinates.
        diag = np.maximum(diag, 1e-12)
    signs = np.sign(beta)
    if signs.any():
        beta, certified = _exact_step(Q, c, lam, beta, signs)
        if certified:
            return beta
        signs = np.sign(beta)
    # Residual-style quantity: grad_j = (Q beta)_j - c_j.
    q_beta = Q @ beta
    for _ in range(max_iter):
        max_delta = 0.0
        for j in range(p):
            old = beta[j]
            # Partial residual excluding coordinate j.
            rho = c[j] - (q_beta[j] - Q[j, j] * old)
            new = soft_threshold(rho, lam) / diag[j]
            if new != old:
                delta = new - old
                q_beta += delta * Q[j]  # Q is symmetric: row j is column j
                beta[j] = new
                max_delta = max(max_delta, abs(delta))
        swept_signs = np.sign(beta)
        if np.array_equal(swept_signs, signs):
            stepped, certified = _exact_step(Q, c, lam, beta, signs)
            if certified:
                return stepped
            max_delta = max(max_delta, float(np.max(np.abs(stepped - beta))))
            beta = stepped
            q_beta = Q @ beta
            swept_signs = np.sign(beta)
        signs = swept_signs
        if max_delta < tol:
            break
    return beta


def _exact_step(
    Q: np.ndarray, c: np.ndarray, lam: float, beta: np.ndarray, signs: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Move ``beta`` to the lasso minimizer on its signed support.

    Where the signs are ``s`` and zero off the support ``A``, the lasso
    objective is the quadratic ``0.5 b'Qb - c'b + lam s'b``, minimized by
    ``t`` with ``Q_AA t_A = c_A - lam s_A`` (one ``np.linalg.solve``).
    While some ``t_i`` lacks its sign ``s_i``, ``beta`` moves toward ``t``
    until its first coordinate reaches zero, that coordinate leaves the
    support, and ``t`` is solved again; the objective is convex along each
    such segment and decreases toward ``t``, so no move makes it worse.

    Returns ``(t, True)`` when ``t`` also has ``|c_i - (Qt)_i| <= lam``
    off the support: the lasso KKT conditions, so ``t`` is the solution.
    Otherwise ``(t, False)``, or ``(beta, False)`` when a ``Q_AA`` is
    singular.
    """
    while True:
        active = np.flatnonzero(signs)
        target = np.zeros_like(c)
        if active.size:
            try:
                target[active] = np.linalg.solve(
                    Q[active[:, None], active], c[active] - lam * signs[active]
                )
            except np.linalg.LinAlgError:
                return beta, False
        flipped = np.flatnonzero(np.sign(target) != signs)
        if flipped.size == 0:
            break
        reach = beta[flipped] / (beta[flipped] - target[flipped])
        first = int(np.argmin(reach))
        beta = beta + reach[first] * (target - beta)
        beta[flipped[first]] = 0.0
        signs = np.sign(beta)
    violation = np.abs(c - Q @ target)
    violation[active] = 0.0  # |c - Qt| = lam there by construction
    return target, not np.any(violation > lam)

