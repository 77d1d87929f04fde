"""Robust covariance estimation under cell corruption.

The paper grounds FDX's robustness in recent robust-statistics results
(Cheng/Diakonikolas/Ge/Woodruff 2019 [6]; Diakonikolas et al. 2017 [12]):
with fewer than half the samples corrupted, the structure of a
distribution remains recoverable. The pair-difference transform removes
*mean* corruption; the estimators here additionally resist heavy-tailed /
adversarial rows. Structure learning takes a covariance, so a robust
estimator is used by passing its ``S``:
``learn_structure(spearman_covariance(X), len(X), ...)``.

* :func:`trimmed_covariance` — coordinate-pair trimmed second moments:
  each entry averages the cross-products with the extreme fraction
  removed (a coordinate-wise analogue of the trimmed mean, robust to a
  rho-fraction of arbitrary row corruption per entry).
* :func:`spearman_covariance` — rank-correlation (Spearman) matrix mapped
  through the Gaussian copula consistency transform ``2 sin(pi r / 6)``,
  robust to monotone outliers.

Note: trimming suits *continuous* samples (e.g. the raw-data GL pipeline);
on binary agreement indicators the informative co-agreement products live
exactly in the tails the trimmer removes — use :func:`spearman_covariance`
or the empirical covariance there.
"""

from __future__ import annotations

import numpy as np


def psd_projection(S: np.ndarray, min_eigenvalue: float = 0.0) -> np.ndarray:
    """Nearest (Frobenius) PSD matrix: symmetrize, clip eigenvalues.

    With ``min_eigenvalue > 0`` the result is positive *definite* with
    spectrum bounded below — the reconditioning step of the FDX fallback
    ladder uses this to repair ill-conditioned or indefinite covariance
    estimates before retrying the solver.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be square")
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    return V @ np.diag(np.clip(w, min_eigenvalue, None)) @ V.T


def condition_number_estimate(S: np.ndarray) -> float:
    """Spectral condition-number estimate of a symmetric matrix.

    ``|λ|_max / |λ|_min`` of the symmetrized input — the solver-health
    telemetry's cheap ill-conditioning probe for the covariance handed to
    the graphical lasso (O(p³) on the small p×p matrix, negligible next
    to the solve itself). Returns ``inf`` for a numerically singular
    input and ``1.0`` for the empty matrix.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be square")
    if S.size == 0:
        return 1.0
    eigenvalues = np.abs(np.linalg.eigvalsh(0.5 * (S + S.T)))
    largest = float(eigenvalues.max())
    smallest = float(eigenvalues.min())
    if largest == 0.0:
        return 1.0
    if smallest == 0.0:
        return float("inf")
    return largest / smallest


def trimmed_covariance(
    X: np.ndarray,
    trim: float = 0.05,
    assume_centered: bool = False,
) -> np.ndarray:
    """Entry-wise trimmed covariance.

    For each pair ``(j, k)``, the empirical cross-products
    ``x_ij * x_ik`` are sorted and the top/bottom ``trim`` fraction
    discarded before averaging — bounding the influence any single row can
    exert on any single entry. The result is symmetrized; positive
    semi-definiteness is restored by eigenvalue clipping.
    """
    if not 0.0 <= trim < 0.5:
        raise ValueError(f"trim must be in [0, 0.5), got {trim}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    n, p = X.shape
    if n == 0:
        raise ValueError("need at least one sample")
    if not assume_centered:
        # Robust centering: coordinate-wise median.
        X = X - np.median(X, axis=0)
    k_cut = int(trim * n)
    S = np.empty((p, p))
    for j in range(p):
        prods = X * X[:, j][:, None]  # n x p cross-products with coord j
        if k_cut:
            prods = np.sort(prods, axis=0)[k_cut : n - k_cut]
        S[j, :] = prods.mean(axis=0)
    # Eigenvalue clipping to restore PSD after trimming.
    return psd_projection(S)


def spearman_covariance(X: np.ndarray) -> np.ndarray:
    """Gaussian-copula covariance from Spearman rank correlations.

    Computes the Spearman correlation matrix and applies the consistency
    transform ``2 sin(pi r / 6)`` (exact for Gaussian copulas), then
    rescales by robust (MAD-based) marginal scales. Invariant to monotone
    per-coordinate corruption.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    n, p = X.shape
    if n < 2:
        raise ValueError("need at least two samples")
    ranks = np.empty_like(X)
    for j in range(p):
        ranks[:, j] = _average_ranks(X[:, j])
    ranks -= ranks.mean(axis=0)
    denom = np.sqrt((ranks**2).sum(axis=0))
    denom[denom == 0] = 1.0
    R = (ranks.T @ ranks) / np.outer(denom, denom)
    R = np.clip(R, -1.0, 1.0)
    R = 2.0 * np.sin(np.pi * R / 6.0)
    np.fill_diagonal(R, 1.0)
    # Robust scales: 1.4826 * MAD (consistent for Gaussians).
    med = np.median(X, axis=0)
    mad = np.median(np.abs(X - med), axis=0) * 1.4826
    mad[mad == 0] = 1.0
    S = R * np.outer(mad, mad)
    return psd_projection(S)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks with ties receiving the average rank of their group (the
    standard Spearman tie treatment; essential for discrete columns)."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    ranks = np.empty(len(values), dtype=float)
    i = 0
    n = len(values)
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        avg = 0.5 * (i + j)
        ranks[order[i : j + 1]] = avg
        i = j + 1
    return ranks


def corruption_breakdown_check(
    estimator,
    X: np.ndarray,
    corrupt_fraction: float,
    magnitude: float,
    rng: np.random.Generator,
) -> float:
    """Diagnostic: Frobenius distortion of ``estimator`` under row corruption.

    Replaces a ``corrupt_fraction`` of rows with ``magnitude``-scaled
    outliers and returns ``||S_corrupt - S_clean||_F / ||S_clean||_F``.
    Robust estimators keep this ratio bounded as ``magnitude`` grows.
    """
    X = np.asarray(X, dtype=float)
    clean = estimator(X)
    n = X.shape[0]
    n_bad = int(corrupt_fraction * n)
    corrupted = X.copy()
    if n_bad:
        rows = rng.choice(n, size=n_bad, replace=False)
        corrupted[rows] = magnitude * rng.normal(size=(n_bad, X.shape[1]))
    dirty = estimator(corrupted)
    denom = np.linalg.norm(clean)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(dirty - clean) / denom)
