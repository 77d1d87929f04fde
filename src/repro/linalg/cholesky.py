"""Triangular factorizations of SPD matrices.

FDX (paper Alg. 1) factorizes the estimated precision matrix as
``Theta = U D U^T`` with ``U`` *unit upper*-triangular; the autoregression
matrix of the linear SEM is then ``B = I - U`` (strictly upper-triangular).
This module provides the classic unit-lower ``LDL^T`` and the reversed
unit-upper ``UDU^T`` variants, plus permuted factorization helpers used
with the fill-reducing orderings of :mod:`repro.linalg.ordering`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def ldl_decompose(A: np.ndarray, jitter: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Factor symmetric positive-definite ``A = L D L^T``.

    ``L`` is unit lower-triangular, ``D`` a positive diagonal vector.
    Small/negative pivots (possible for numerically semi-definite inputs)
    are floored at ``jitter``.
    """
    A = np.asarray(A, dtype=float)
    p = A.shape[0]
    if A.shape != (p, p):
        raise ValueError("A must be square")
    L = np.eye(p)
    d = np.zeros(p)
    for j in range(p):
        d_j = A[j, j] - np.sum(L[j, :j] ** 2 * d[:j])
        if d_j < jitter:
            d_j = jitter
        d[j] = d_j
        L[j + 1:, j] = (
            A[j + 1:, j] - np.sum(L[j + 1:, :j] * L[j, :j] * d[:j], axis=1)
        ) / d_j
    return L, d


def udu_decompose(A: np.ndarray, jitter: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Factor symmetric positive-definite ``A = U D U^T``.

    ``U`` is unit *upper*-triangular. Implemented by factoring the
    order-reversed matrix with :func:`ldl_decompose`: with ``J`` the
    reversal permutation, ``A = J (J A J) J`` and ``J L J`` is unit upper.
    """
    A = np.asarray(A, dtype=float)
    p = A.shape[0]
    rev = np.arange(p)[::-1]
    A_rev = A[np.ix_(rev, rev)]
    L, d = ldl_decompose(A_rev, jitter=jitter)
    U = L[np.ix_(rev, rev)]
    return U, d[rev]


@dataclass
class OrderedFactorization:
    """A permuted ``Theta[perm][:, perm] = U D U^T`` factorization.

    ``order`` maps *position -> original variable index*: the variable at
    position ``i`` of the factorization is original variable ``order[i]``.
    ``U`` and ``d`` live in the permuted coordinate system.
    """

    order: np.ndarray
    U: np.ndarray
    d: np.ndarray

    @property
    def autoregression(self) -> np.ndarray:
        """``B = I - U`` in the permuted coordinate system (paper Alg. 1)."""
        return np.eye(self.U.shape[0]) - self.U

    def autoregression_in_original_order(self) -> np.ndarray:
        """``B`` with rows/columns mapped back to original variable indices.

        The result is no longer triangular with respect to the original
        index order (it is triangular w.r.t. ``order``), which is exactly
        the matrix visualized in the paper's heatmaps (Figures 3 and 5).
        """
        p = self.U.shape[0]
        inv = np.empty(p, dtype=int)
        inv[self.order] = np.arange(p)
        return self.autoregression[np.ix_(inv, inv)]

    def reconstruct(self) -> np.ndarray:
        """Re-assemble ``Theta`` (in original variable order) from factors."""
        theta_perm = self.U @ np.diag(self.d) @ self.U.T
        p = self.U.shape[0]
        inv = np.empty(p, dtype=int)
        inv[self.order] = np.arange(p)
        return theta_perm[np.ix_(inv, inv)]


def factorize_with_order(
    theta: np.ndarray, order: Sequence[int] | np.ndarray, jitter: float = 1e-10
) -> OrderedFactorization:
    """Permute ``theta`` by ``order`` and compute its ``UDU^T`` factors.

    In the permuted system, position ``i`` precedes position ``j > i``;
    FDX reads FDs off the strictly-upper entries of ``B = I - U``, so
    determinant attributes always precede their dependents in ``order``.
    """
    order = np.asarray(order, dtype=int)
    p = theta.shape[0]
    if sorted(order.tolist()) != list(range(p)):
        raise ValueError(f"order must be a permutation of 0..{p - 1}")
    theta_perm = theta[np.ix_(order, order)]
    U, d = udu_decompose(theta_perm, jitter=jitter)
    return OrderedFactorization(order=order, U=U, d=d)
