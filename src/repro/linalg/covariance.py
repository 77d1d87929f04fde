"""Covariance estimators.

The estimators here back both FDX (covariance of the binary pair-difference
sample) and the raw-data graphical-lasso baseline. The *pair-difference*
second-moment estimator is the robust-statistics ingredient the paper
highlights (§4.3): differencing tuple pairs yields a zero-mean distribution
whose covariance shares the structure of the original one while being
insensitive to mean corruption by outliers.
"""

from __future__ import annotations

import numpy as np

#: Fixed row-chunk size for the chunked second-moment estimator. The
#: boundaries depend only on this constant and ``n``, and partials fold
#: in chunk order, so the result is a fixed function of the input.
DEFAULT_CHUNK_ROWS = 8192

#: Read-only ones for :func:`block_centered_scatter`: each block's column
#: sums are one product with a slice of this vector, allocated once.
_ONES = np.ones(DEFAULT_CHUNK_ROWS, dtype=np.float32)
_ONES.flags.writeable = False


def empirical_covariance(X: np.ndarray, assume_centered: bool = False) -> np.ndarray:
    """Maximum-likelihood covariance of the rows of ``X``.

    With ``assume_centered`` the mean is fixed at zero (the second-moment
    matrix), which is the appropriate estimator for pair-difference samples.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D (samples x variables)")
    n = X.shape[0]
    if n == 0:
        raise ValueError("need at least one sample")
    if assume_centered:
        return (X.T @ X) / n
    mean = X.mean(axis=0)
    Xc = X - mean
    return (Xc.T @ Xc) / n


def chunk_bounds(
    n_rows: int, chunk_rows: int = DEFAULT_CHUNK_ROWS
) -> list[tuple[int, int]]:
    """Fixed ``[start, stop)`` row shards — a function of ``n_rows`` and
    ``chunk_rows`` only."""
    chunk_rows = max(1, int(chunk_rows))
    return [
        (start, min(start + chunk_rows, n_rows))
        for start in range(0, max(n_rows, 0), chunk_rows)
    ]


def empirical_covariance_chunked(
    X: np.ndarray,
    assume_centered: bool = False,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> np.ndarray:
    """Second-moment estimator folded over fixed row chunks.

    The rows of ``X`` are split at fixed boundaries
    (:func:`chunk_bounds`), and each chunk's ``XᵀX`` and column sums are
    added in chunk order (floating-point addition is not associative,
    so the order is fixed).

    A single chunk (``n <= chunk_rows``) falls back to the one-GEMM
    :func:`empirical_covariance`, making this a drop-in replacement on
    small inputs. The multi-chunk result is *not* bit-identical to the
    single-GEMM path (blocked summation rounds differently); it agrees
    to floating-point tolerance.
    """
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError("X must be 2-D (samples x variables)")
    n = X.shape[0]
    if n == 0:
        raise ValueError("need at least one sample")
    bounds = chunk_bounds(n, chunk_rows)
    if len(bounds) <= 1:
        return empirical_covariance(X, assume_centered=assume_centered)
    # The float64 cast of each chunk equals the cast of the whole matrix.
    (start, stop), *rest = bounds
    chunk = np.asarray(X[start:stop], dtype=np.float64)
    second_moment, col_sum = chunk.T @ chunk, chunk.sum(axis=0)
    for start, stop in rest:
        chunk = np.asarray(X[start:stop], dtype=np.float64)
        second_moment += chunk.T @ chunk
        col_sum += chunk.sum(axis=0)
    moment = second_moment / n
    if assume_centered:
        return moment
    mean = col_sum / n
    return moment - np.outer(mean, mean)


def block_centered_scatter(X: np.ndarray, n_blocks: int = 1) -> np.ndarray:
    """Scatter ``XᵀX − MᵀM / r`` of a 0/1 sample centered within blocks.

    The rows of ``X`` (``N x k``, values 0 or 1, e.g. the ``uint8``
    output of Algorithm 2) split into ``n_blocks`` consecutive blocks of
    ``r = N / n_blocks`` rows, and row ``b`` of ``M`` holds block ``b``'s
    column sums. The result equals ``XcᵀXc`` for ``Xc`` = ``X`` with each
    block's column means subtracted
    (:func:`repro.core.transform.center_within_blocks`), so dividing by
    ``N`` gives the block-centered covariance; ``n_blocks=1`` centers at
    the global mean.

    Both products are counts, so no centered float copy is made. The
    sample is read in pieces of whole blocks of at most
    :data:`DEFAULT_CHUNK_ROWS` rows (a block taller than that alone, in
    chunks of that many rows), and each piece is copied to float32 once.
    That copy gives both the piece's ``XᵀX`` and its blocks' column sums
    (one product with a ones vector), each exact for 0/1 data while a
    piece has fewer than 2²⁴ rows, and the pieces fold in float64 (exact
    below 2⁵³). The only rounding is in ``MᵀM / r`` and the subtraction,
    so the result does not depend on the order of rows within a block.
    """
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError("X must be 2-D (samples x variables)")
    n, k = X.shape
    if n == 0:
        raise ValueError("need at least one sample")
    if n_blocks <= 0 or n % n_blocks != 0:
        raise ValueError(f"cannot split {n} rows into {n_blocks} equal blocks")
    rows_per_block = n // n_blocks
    if rows_per_block > DEFAULT_CHUNK_ROWS:
        pieces = [
            (block + start, block + stop)
            for block in range(0, n, rows_per_block)
            for start, stop in chunk_bounds(rows_per_block)
        ]
    else:
        pieces = chunk_bounds(n, DEFAULT_CHUNK_ROWS // rows_per_block * rows_per_block)
    buffer = np.empty((min(n, DEFAULT_CHUNK_ROWS), k), dtype=np.float32)
    gram, sums = np.zeros((k, k)), np.zeros((n_blocks, k))
    for start, stop in pieces:
        piece = buffer[:stop - start]
        np.copyto(piece, X[start:stop])
        gram += piece.T @ piece
        height = min(stop - start, rows_per_block)  # rows summed per product
        count, first = (stop - start) // height, start // rows_per_block
        sums[first:first + count] += _ONES[:height] @ piece.reshape(count, height, k)
    return gram - (sums.T @ sums) / rows_per_block


def shrunk_covariance(S: np.ndarray, shrinkage: float = 0.1) -> np.ndarray:
    """Convex shrinkage toward the scaled identity:
    ``(1 - a) S + a * (tr(S)/p) I`` (Ledoit-Wolf-style target)."""
    if not 0.0 <= shrinkage <= 1.0:
        raise ValueError(f"shrinkage must be in [0, 1], got {shrinkage}")
    S = np.asarray(S, dtype=float)
    p = S.shape[0]
    mu = np.trace(S) / p if p else 0.0
    return (1.0 - shrinkage) * S + shrinkage * mu * np.eye(p)


def correlation_from_covariance(S: np.ndarray) -> np.ndarray:
    """Convert a covariance matrix to a correlation matrix.

    Zero-variance coordinates keep unit self-correlation and zero
    cross-correlation instead of producing NaNs. Off-diagonal entries
    are clipped to ``[-1, 1]``: with a subnormal variance, ``sqrt`` loses
    enough precision to push a ratio past 1.
    """
    S = np.asarray(S, dtype=float)
    d = np.sqrt(np.clip(np.diag(S), 0.0, None))
    safe = np.where(d > 0, d, 1.0)
    R = np.clip(S / np.outer(safe, safe), -1.0, 1.0)
    R[np.diag_indices_from(R)] = 1.0
    zero = d == 0
    if np.any(zero):
        R[zero, :] = 0.0
        R[:, zero] = 0.0
        R[np.diag_indices_from(R)] = 1.0
    return R


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
