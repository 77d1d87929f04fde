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


class CovarianceAccumulator:
    """Exactly-mergeable second-moment partials over row shards.

    Each row chunk reduces to ``(n, Σx, XᵀX)``; partials merge by plain
    addition. Merging is *order-sensitive* (floating-point addition is
    not associative), so callers fold partials in a fixed order — chunk
    index order in :func:`empirical_covariance_chunked`, arrival order
    in the streaming drift window and catalog sampling.
    """

    __slots__ = ("n_rows", "col_sum", "second_moment")

    def __init__(self, n_variables: int) -> None:
        self.n_rows = 0
        self.col_sum = np.zeros(n_variables, dtype=np.float64)
        self.second_moment = np.zeros((n_variables, n_variables), dtype=np.float64)

    @classmethod
    def from_rows(cls, X: np.ndarray) -> "CovarianceAccumulator":
        """One shard's partial (the float64 cast of uint8 agreements is
        exact, so casting per-chunk equals casting the whole matrix)."""
        X = np.asarray(X, dtype=np.float64)
        acc = cls(X.shape[1])
        acc.n_rows = X.shape[0]
        acc.col_sum = X.sum(axis=0)
        acc.second_moment = X.T @ X
        return acc

    def merge(self, other: "CovarianceAccumulator") -> "CovarianceAccumulator":
        """In-place left fold: ``self`` absorbs ``other`` (in chunk order)."""
        self.n_rows += other.n_rows
        self.col_sum += other.col_sum
        self.second_moment += other.second_moment
        return self

    def covariance(self, assume_centered: bool = False) -> np.ndarray:
        if self.n_rows == 0:
            raise ValueError("need at least one sample")
        moment = self.second_moment / self.n_rows
        if assume_centered:
            return moment
        mean = self.col_sum / self.n_rows
        return moment - np.outer(mean, mean)


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
    (:func:`chunk_bounds`), each chunk reduces to a
    :class:`CovarianceAccumulator`, and partials merge left-to-right in
    chunk order.

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
    (start, stop), *rest = bounds
    accumulated = CovarianceAccumulator.from_rows(X[start:stop])
    for start, stop in rest:
        accumulated.merge(CovarianceAccumulator.from_rows(X[start:stop]))
    return accumulated.covariance(assume_centered=assume_centered)


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

    Both products are counts, so no centered float copy is made:
    ``XᵀX`` is summed over :data:`DEFAULT_CHUNK_ROWS`-row chunks in
    float32, which is exact for 0/1 data while a chunk has fewer than
    2²⁴ rows, and the chunks fold in float64 (exact below 2⁵³). The only
    rounding is in ``MᵀM / r`` and the subtraction, so the result does
    not depend on the order of rows within a block.
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
    sums = X.reshape(n_blocks, rows_per_block, k).sum(axis=1, dtype=np.int64)
    sums = sums.astype(np.float64)
    gram = np.zeros((k, k))
    buffer = np.empty((min(n, DEFAULT_CHUNK_ROWS), k), dtype=np.float32)
    for start, stop in chunk_bounds(n):
        chunk = buffer[:stop - start]
        np.copyto(chunk, X[start:stop])
        gram += chunk.T @ chunk
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


def ledoit_wolf_shrinkage(X: np.ndarray, assume_centered: bool = False) -> float:
    """Ledoit-Wolf optimal shrinkage intensity for the identity target.

    A from-scratch implementation of the standard plug-in formula; returns
    a value clipped to ``[0, 1]``.
    """
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if n < 2:
        return 1.0
    if not assume_centered:
        X = X - X.mean(axis=0)
    S = (X.T @ X) / n
    mu = np.trace(S) / p
    delta2 = np.sum((S - mu * np.eye(p)) ** 2) / p
    beta2_sum = 0.0
    for i in range(n):
        xi = X[i][:, None]
        beta2_sum += np.sum((xi @ xi.T - S) ** 2)
    beta2 = beta2_sum / (n**2 * p)
    beta2 = min(beta2, delta2)
    if delta2 == 0:
        return 0.0
    return float(np.clip(beta2 / delta2, 0.0, 1.0))


def pair_difference_covariance(
    X: np.ndarray,
    rng: np.random.Generator,
    n_pairs: int | None = None,
) -> np.ndarray:
    """Covariance of differences of uniformly sampled row pairs.

    For rows ``x_i`` sampled i.i.d., ``x_i - x_j`` has mean exactly zero, so
    the second-moment matrix ``E[(x_i-x_j)(x_i-x_j)'] = 2 Sigma`` is a
    mean-free covariance estimate (scaled). This helper returns the
    *unscaled* covariance estimate (divided by 2) so it is directly
    comparable to :func:`empirical_covariance`.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least two rows to form pairs")
    if n_pairs is None:
        n_pairs = n
    i = rng.integers(n, size=n_pairs)
    j = rng.integers(n, size=n_pairs)
    diff = X[i] - X[j]
    return (diff.T @ diff) / (2.0 * n_pairs)


def correlation_from_covariance(S: np.ndarray) -> np.ndarray:
    """Convert a covariance matrix to a correlation matrix.

    Zero-variance coordinates keep unit self-correlation and zero
    cross-correlation instead of producing NaNs.
    """
    S = np.asarray(S, dtype=float)
    d = np.sqrt(np.clip(np.diag(S), 0.0, None))
    safe = np.where(d > 0, d, 1.0)
    R = S / np.outer(safe, safe)
    R[np.diag_indices_from(R)] = 1.0
    zero = d == 0
    if np.any(zero):
        R[zero, :] = 0.0
        R[:, zero] = 0.0
        R[np.diag_indices_from(R)] = 1.0
    return R


def is_positive_definite(S: np.ndarray, tol: float = 0.0) -> bool:
    """True if all eigenvalues of the symmetrized matrix exceed ``tol``."""
    S = np.asarray(S, dtype=float)
    sym = 0.5 * (S + S.T)
    eigvals = np.linalg.eigvalsh(sym)
    return bool(np.all(eigvals > tol))
