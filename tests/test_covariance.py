"""Tests for repro.linalg.covariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transform import center_within_blocks
from repro.linalg.covariance import (
    DEFAULT_CHUNK_ROWS,
    block_centered_scatter,
    condition_number_estimate,
    correlation_from_covariance,
    empirical_covariance,
    empirical_covariance_chunked,
    psd_projection,
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


def random_symmetric(p, seed, spectrum):
    """A symmetric ``p x p`` matrix with eigenvalues ``spectrum``."""
    U, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(p, p)))
    M = (U * np.asarray(spectrum, dtype=float)) @ U.T
    return 0.5 * (M + M.T)


@pytest.mark.parametrize("floor", [0.0, 1e-6, 0.5])
def test_psd_projection_is_symmetric_with_spectrum_above_the_floor(floor):
    S = random_symmetric(5, seed=0, spectrum=[2.0, 1.0, 1e-3, -0.5, -3.0])
    S[0, 1] += 0.25  # asymmetric input: the projection symmetrizes it
    P = psd_projection(S, min_eigenvalue=floor)
    np.testing.assert_allclose(P, P.T, rtol=0, atol=1e-12)
    assert np.linalg.eigvalsh(0.5 * (P + P.T)).min() >= floor - 1e-12


def test_psd_projection_leaves_a_matrix_above_the_floor_unchanged():
    S = random_symmetric(6, seed=1, spectrum=[3.0, 2.0, 1.0, 0.5, 0.1, 0.01])
    np.testing.assert_allclose(psd_projection(S, min_eigenvalue=1e-6), S,
                               rtol=0, atol=1e-12)


def test_condition_number_estimate():
    S = random_symmetric(5, seed=2, spectrum=[4.0, 2.0, 1.0, 0.3, 0.05])
    assert condition_number_estimate(S) == pytest.approx(np.linalg.cond(S), rel=1e-10)
    assert condition_number_estimate(np.diag([1.0, 0.0, 2.0])) == np.inf
    assert condition_number_estimate(np.zeros((0, 0))) == 1.0
    assert condition_number_estimate(np.zeros((3, 3))) == 1.0


@pytest.mark.parametrize("guard", [psd_projection, condition_number_estimate])
@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
def test_numerical_guards_reject_a_non_square_input(guard, shape):
    with pytest.raises(ValueError, match="square"):
        guard(np.ones(shape))


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


def frozen_block_centered_scatter(X, n_blocks):
    """``block_centered_scatter`` before its block sums came from the
    Gram's float32 copy: int64 block sums in a pass of their own, and the
    float32 Gram over fixed 8192-row chunks folded in float64."""
    n, k = X.shape
    rows_per_block = n // n_blocks
    sums = X.reshape(n_blocks, rows_per_block, k).sum(axis=1, dtype=np.int64)
    sums = sums.astype(np.float64)
    gram = np.zeros((k, k))
    for start in range(0, n, 8192):
        chunk = X[start:start + 8192].astype(np.float32)
        gram += chunk.T @ chunk
    return gram - (sums.T @ sums) / rows_per_block


@pytest.mark.parametrize("n_blocks", ["k", 1])
@pytest.mark.parametrize("rows_per_block,k", [
    (1000, 68),  # paper Figure 6's 1000 x 68
    (500, 40),
    (250, 16),
    (9000, 4),  # blocks taller than a chunk
    (2, 200),  # short, wide blocks
    (20, 190),
    (3, 5),
    (50, 1),
])
def test_block_centered_scatter_equals_frozen_reference(rows_per_block, k, n_blocks):
    X = agreement_sample(rows_per_block, k, seed=rows_per_block + k)
    n_blocks = k if n_blocks == "k" else n_blocks
    assert np.array_equal(
        block_centered_scatter(X, n_blocks), frozen_block_centered_scatter(X, n_blocks)
    )


@settings(max_examples=60, deadline=None)
@given(
    rows_per_block=st.one_of(
        st.integers(1, 80),
        st.integers(DEFAULT_CHUNK_ROWS - 2, DEFAULT_CHUNK_ROWS + 2),
    ),
    n_blocks=st.integers(1, 12),
    k=st.integers(1, 12),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_centered_scatter_equals_frozen_reference_on_random_samples(
    rows_per_block, n_blocks, k, density, seed
):
    rng = np.random.default_rng(seed)
    X = (rng.random((rows_per_block * n_blocks, k)) < density).astype(np.uint8)
    assert np.array_equal(
        block_centered_scatter(X, n_blocks), frozen_block_centered_scatter(X, n_blocks)
    )


def test_block_centered_scatter_rejects_ragged_and_empty_input():
    with pytest.raises(ValueError):
        block_centered_scatter(np.zeros((10, 2), dtype=np.uint8), 3)
    with pytest.raises(ValueError):
        block_centered_scatter(np.zeros((0, 2), dtype=np.uint8), 2)
    with pytest.raises(ValueError):
        block_centered_scatter(np.zeros(4, dtype=np.uint8), 1)
