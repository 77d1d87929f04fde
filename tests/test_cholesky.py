"""Tests for repro.linalg.cholesky."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.cholesky import (
    factorize_with_order,
    ldl_decompose,
    udu_decompose,
)


def random_spd(p, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(p, p))
    return A @ A.T + p * np.eye(p)


def test_ldl_reconstructs():
    A = random_spd(6)
    L, d = ldl_decompose(A)
    assert np.allclose(L @ np.diag(d) @ L.T, A, atol=1e-8)


def test_ldl_unit_lower():
    A = random_spd(5, seed=1)
    L, d = ldl_decompose(A)
    assert np.allclose(np.diag(L), 1.0)
    assert np.allclose(L, np.tril(L))
    assert np.all(d > 0)


def test_ldl_semidefinite_floors_pivots():
    A = np.zeros((3, 3))
    L, d = ldl_decompose(A, jitter=1e-10)
    assert np.all(d >= 1e-10)


def test_udu_reconstructs():
    A = random_spd(7, seed=2)
    U, d = udu_decompose(A)
    assert np.allclose(U @ np.diag(d) @ U.T, A, atol=1e-8)


def test_udu_unit_upper():
    A = random_spd(5, seed=3)
    U, d = udu_decompose(A)
    assert np.allclose(np.diag(U), 1.0)
    assert np.allclose(U, np.triu(U))
    assert np.all(d > 0)


def test_udu_recovers_linear_sem_autoregression():
    """Theta built from a known strictly-upper B factors back to B."""
    p = 5
    B = np.zeros((p, p))
    B[0, 2] = 0.7
    B[1, 2] = 0.4
    B[2, 3] = 0.9
    omega = np.diag([1.0, 1.5, 0.2, 0.3, 2.0])
    I = np.eye(p)
    theta = (I - B) @ np.linalg.inv(omega) @ (I - B).T
    U, d = udu_decompose(theta)
    assert np.allclose(I - U, B, atol=1e-8)
    assert np.allclose(d, 1.0 / np.diag(omega), atol=1e-8)


def test_factorize_with_order_identity():
    A = random_spd(4, seed=4)
    fact = factorize_with_order(A, [0, 1, 2, 3])
    assert np.allclose(fact.reconstruct(), A, atol=1e-8)


def test_factorize_with_permutation_reconstructs_original():
    A = random_spd(6, seed=5)
    fact = factorize_with_order(A, [3, 1, 5, 0, 2, 4])
    assert np.allclose(fact.reconstruct(), A, atol=1e-8)


def test_factorize_rejects_non_permutation():
    A = random_spd(3)
    with pytest.raises(ValueError):
        factorize_with_order(A, [0, 0, 1])


def test_autoregression_strictly_upper_in_permuted_system():
    A = random_spd(5, seed=6)
    fact = factorize_with_order(A, [4, 2, 0, 1, 3])
    B = fact.autoregression
    assert np.allclose(np.diag(B), 0.0)
    assert np.allclose(B, np.triu(B, k=1))


def test_autoregression_in_original_order_permutes_correctly():
    """Entry (i, j) in original order equals B[pos(i), pos(j)]."""
    A = random_spd(4, seed=7)
    order = np.array([2, 0, 3, 1])
    fact = factorize_with_order(A, order)
    B = fact.autoregression
    B_orig = fact.autoregression_in_original_order()
    inv = np.empty(4, dtype=int)
    inv[order] = np.arange(4)
    for i in range(4):
        for j in range(4):
            assert B_orig[i, j] == pytest.approx(B[inv[i], inv[j]])


def test_ldl_rejects_nonsquare():
    with pytest.raises(ValueError):
        ldl_decompose(np.zeros((2, 3)))


# -- bit identity with the per-element LDL loop --------------------------------


def reference_ldl_decompose(A, jitter=1e-10):
    """Frozen copy of the per-element loop that the row-operation
    ``ldl_decompose`` replaced; it lives here only, as the definition the
    rewrite must reproduce bit for bit."""
    A = np.asarray(A, dtype=float)
    p = A.shape[0]
    L = np.eye(p)
    d = np.zeros(p)
    for j in range(p):
        d_j = A[j, j] - np.sum(L[j, :j] ** 2 * d[:j])
        if d_j < jitter:
            d_j = jitter
        d[j] = d_j
        for i in range(j + 1, p):
            L[i, j] = (A[i, j] - np.sum(L[i, :j] * L[j, :j] * d[:j])) / d_j
    return L, d


def _ldl_input(kind, p, seed):
    """A ``p x p`` symmetric matrix of the given kind: SPD, rank-deficient
    PSD, indefinite, or zero (the last three exercise the jitter floor)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(p, p))
    if kind == "spd":
        return X @ X.T + np.eye(p)
    if kind == "rank_deficient":
        Y = X[:, : p // 2]
        return Y @ Y.T
    if kind == "indefinite":
        return X + X.T
    return np.zeros((p, p))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["spd", "rank_deficient", "indefinite", "zero"]),
    p=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_ldl_matches_the_per_element_loop_bit_for_bit(kind, p, seed):
    A = _ldl_input(kind, p, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        L, d = ldl_decompose(A)
        L_ref, d_ref = reference_ldl_decompose(A)
    assert np.array_equal(L, L_ref, equal_nan=True)
    assert np.array_equal(d, d_ref, equal_nan=True)

