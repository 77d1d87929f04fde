"""Tests for repro.linalg.covariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transform import center_within_blocks
from repro.linalg.covariance import (
    DEFAULT_CHUNK_ROWS,
    CovarianceAccumulator,
    block_centered_scatter,
    chunk_bounds,
    correlation_from_covariance,
    empirical_covariance,
    empirical_covariance_chunked,
    is_positive_definite,
    ledoit_wolf_shrinkage,
    pair_difference_covariance,
    shrunk_covariance,
)


def test_empirical_matches_numpy():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(500, 4))
    S = empirical_covariance(X)
    assert np.allclose(S, np.cov(X, rowvar=False, bias=True), atol=1e-10)


def test_assume_centered_is_second_moment():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    S = empirical_covariance(X, assume_centered=True)
    assert np.allclose(S, X.T @ X / 2)


def test_empirical_rejects_bad_input():
    with pytest.raises(ValueError):
        empirical_covariance(np.zeros(5))
    with pytest.raises(ValueError):
        empirical_covariance(np.zeros((0, 3)))


def test_shrunk_covariance_identity_limit():
    S = np.array([[2.0, 1.0], [1.0, 2.0]])
    full = shrunk_covariance(S, 1.0)
    assert np.allclose(full, 2.0 * np.eye(2))  # tr(S)/p = 2
    none = shrunk_covariance(S, 0.0)
    assert np.allclose(none, S)


def test_shrunk_covariance_bad_intensity():
    with pytest.raises(ValueError):
        shrunk_covariance(np.eye(2), 1.1)


def test_ledoit_wolf_in_unit_interval():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 10))
    a = ledoit_wolf_shrinkage(X)
    assert 0.0 <= a <= 1.0


def test_ledoit_wolf_small_sample_shrinks_harder():
    """With a strongly anisotropic true covariance, small samples need more
    shrinkage toward the identity target than large ones."""
    rng = np.random.default_rng(1)
    A = np.diag(np.linspace(0.2, 5.0, 20))
    tiny = ledoit_wolf_shrinkage(rng.normal(size=(10, 20)) @ A)
    big = ledoit_wolf_shrinkage(rng.normal(size=(2000, 20)) @ A)
    assert tiny > big


def test_pair_difference_recovers_covariance_structure():
    rng = np.random.default_rng(2)
    A = np.array([[1.0, 0.8], [0.0, 0.6]])
    X = rng.normal(size=(4000, 2)) @ A.T
    true_cov = A @ A.T
    est = pair_difference_covariance(X, rng, n_pairs=20000)
    assert np.allclose(est, true_cov, atol=0.1)


def test_pair_difference_ignores_mean_shift():
    """Shifting all rows by a constant leaves the estimate unchanged."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(1000, 3))
    e1 = pair_difference_covariance(X, np.random.default_rng(7), n_pairs=5000)
    e2 = pair_difference_covariance(X + 100.0, np.random.default_rng(7), n_pairs=5000)
    assert np.allclose(e1, e2, atol=1e-8)


def test_pair_difference_needs_two_rows():
    with pytest.raises(ValueError):
        pair_difference_covariance(np.zeros((1, 2)), np.random.default_rng(0))


def test_correlation_from_covariance():
    S = np.array([[4.0, 2.0], [2.0, 9.0]])
    R = correlation_from_covariance(S)
    assert R[0, 0] == 1.0 and R[1, 1] == 1.0
    assert R[0, 1] == pytest.approx(2.0 / 6.0)


def test_correlation_handles_zero_variance():
    S = np.array([[0.0, 0.0], [0.0, 1.0]])
    R = correlation_from_covariance(S)
    assert np.all(np.isfinite(R))
    assert R[0, 0] == 1.0
    assert R[0, 1] == 0.0


def test_is_positive_definite():
    assert is_positive_definite(np.eye(3))
    assert not is_positive_definite(np.diag([1.0, -0.5, 2.0]))
    assert not is_positive_definite(np.zeros((2, 2)))


def test_single_chunk_falls_back_to_exact_legacy_gemm():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(100, 4))
    assert np.array_equal(
        empirical_covariance_chunked(X), empirical_covariance(X)
    )


@pytest.mark.parametrize("assume_centered", [False, True])
def test_multi_chunk_covariance_matches_gemm(assume_centered):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(3 * DEFAULT_CHUNK_ROWS + 123, 5))
    chunked = empirical_covariance_chunked(X, assume_centered=assume_centered)
    np.testing.assert_allclose(
        chunked, empirical_covariance(X, assume_centered=assume_centered),
        atol=1e-10,
    )


def test_accumulator_merge_matches_whole_matrix():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(1000, 4))
    bounds = chunk_bounds(X.shape[0], 256)
    acc = CovarianceAccumulator.from_rows(X[bounds[0][0]:bounds[0][1]])
    for lo, hi in bounds[1:]:
        acc.merge(CovarianceAccumulator.from_rows(X[lo:hi]))
    whole = CovarianceAccumulator.from_rows(X)
    assert acc.n_rows == whole.n_rows
    np.testing.assert_allclose(acc.covariance(), whole.covariance(), atol=1e-12)


# -- the 0/1 block-centered moment --------------------------------------------


def centered_then_gemm(X, n_blocks):
    """The explicit definition: a float64 block-centered copy of the
    sample, then the chunked second moment."""
    return empirical_covariance_chunked(
        center_within_blocks(X, n_blocks), assume_centered=True
    )


def agreement_sample(rows_per_block, k, seed):
    rng = np.random.default_rng(seed)
    return (rng.random((rows_per_block * k, k)) < rng.random(k)).astype(np.uint8)


@settings(max_examples=60, deadline=None)
@given(
    rows_per_block=st.integers(1, 60),
    k=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    per_attribute=st.booleans(),
)
def test_block_centered_scatter_matches_centering_then_gemm(
    rows_per_block, k, seed, per_attribute
):
    X = agreement_sample(rows_per_block, k, seed)
    n_blocks = k if per_attribute else 1
    S = block_centered_scatter(X, n_blocks) / X.shape[0]
    np.testing.assert_allclose(S, centered_then_gemm(X, n_blocks), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_blocks", ["k", 1])
def test_block_centered_scatter_matches_over_several_chunks(n_blocks):
    X = agreement_sample(900, 20, seed=5)  # 18 000 rows: three chunks
    assert X.shape[0] > 2 * DEFAULT_CHUNK_ROWS
    n_blocks = X.shape[1] if n_blocks == "k" else n_blocks
    S = block_centered_scatter(X, n_blocks) / X.shape[0]
    np.testing.assert_allclose(S, centered_then_gemm(X, n_blocks), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_blocks", ["k", 1])
def test_block_centered_scatter_ignores_row_order_within_blocks(n_blocks):
    """The counts are exact integers, so reordering rows inside a block
    cannot change a bit of the result."""
    rng = np.random.default_rng(6)
    X = agreement_sample(900, 15, seed=6)  # 13 500 rows: two chunks
    n_blocks = X.shape[1] if n_blocks == "k" else n_blocks
    r = X.shape[0] // n_blocks
    shuffled = np.concatenate(
        [X[b * r:(b + 1) * r][rng.permutation(r)] for b in range(n_blocks)]
    )
    assert not np.array_equal(shuffled, X)
    assert np.array_equal(
        block_centered_scatter(shuffled, n_blocks), block_centered_scatter(X, n_blocks)
    )


def test_block_centered_scatter_rejects_ragged_and_empty_input():
    with pytest.raises(ValueError):
        block_centered_scatter(np.zeros((10, 2), dtype=np.uint8), 3)
    with pytest.raises(ValueError):
        block_centered_scatter(np.zeros((0, 2), dtype=np.uint8), 2)
    with pytest.raises(ValueError):
        block_centered_scatter(np.zeros(4, dtype=np.uint8), 1)
