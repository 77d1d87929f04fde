"""Tests for repro.linalg.glasso."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from repro.linalg.glasso import (
    graphical_lasso,
    precision_to_partial_correlation,
)


def smallest_eigenvalue(M):
    """Smallest eigenvalue of the symmetrized ``M``."""
    return np.linalg.eigvalsh(0.5 * (M + M.T)).min()


def test_zero_penalty_is_matrix_inverse():
    S = np.array([[2.0, 0.5], [0.5, 1.0]])
    res = graphical_lasso(S, 0.0)
    assert np.allclose(res.precision, np.linalg.inv(S), atol=1e-5)
    assert res.converged and res.kkt_residual <= 1e-6


def test_penalty_sparsifies_independent_pairs():
    rng = np.random.default_rng(0)
    # Three independent variables plus one strongly coupled pair.
    X = rng.normal(size=(5000, 4))
    X[:, 1] = 0.95 * X[:, 0] + 0.3 * X[:, 1]
    S = np.cov(X, rowvar=False, bias=True)
    res = graphical_lasso(S, 0.1)
    support = res.support
    assert support[0, 1]  # real edge kept
    assert not support[2, 3]  # independent pair zeroed


def test_precision_is_symmetric_and_pd():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(500, 6))
    S = np.cov(X, rowvar=False, bias=True)
    res = graphical_lasso(S, 0.05)
    assert np.allclose(res.precision, res.precision.T, atol=1e-8)
    assert smallest_eigenvalue(res.precision) > -1e-9


def test_converges_on_identity():
    res = graphical_lasso(np.eye(5), 0.1)
    assert res.converged
    assert np.allclose(res.precision, np.diag(1.0 / (1.0 + 0.1) * np.ones(5)), atol=1e-6)
    assert not res.support.any()


def test_huge_penalty_gives_diagonal_precision():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(300, 4))
    S = np.cov(X, rowvar=False, bias=True)
    res = graphical_lasso(S, 10.0)
    assert not res.support.any()


def test_covariance_precision_are_inverses():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(1000, 5))
    S = np.cov(X, rowvar=False, bias=True)
    res = graphical_lasso(S, 0.02, max_iter=200)
    assert np.allclose(res.covariance @ res.precision, np.eye(5), atol=1e-2)


def test_trivial_sizes():
    empty = graphical_lasso(np.zeros((0, 0)), 0.1)
    assert empty.precision.shape == (0, 0)
    single = graphical_lasso(np.array([[2.0]]), 0.5)
    assert single.precision[0, 0] == pytest.approx(1.0 / 2.5)
    for fit in (empty, single):
        assert fit.converged and 0.0 <= fit.kkt_residual <= 1e-6


def test_rejects_negative_penalty_and_nonsquare():
    with pytest.raises(ValueError):
        graphical_lasso(np.eye(2), -1.0)
    with pytest.raises(ValueError):
        graphical_lasso(np.zeros((2, 3)), 0.1)


def test_partial_correlation_diagonal_is_one():
    theta = np.array([[2.0, -0.5], [-0.5, 1.0]])
    pc = precision_to_partial_correlation(theta)
    assert pc[0, 0] == 1.0 and pc[1, 1] == 1.0
    assert pc[0, 1] == pytest.approx(0.5 / np.sqrt(2.0))


def test_glasso_2x2_closed_form_support():
    """For a 2x2 correlation matrix, the off-diagonal survives iff |r| > lam."""
    for r, lam, expect_edge in ((0.6, 0.3, True), (0.2, 0.3, False)):
        S = np.array([[1.0, r], [r, 1.0]])
        res = graphical_lasso(S, lam)
        assert bool(res.support[0, 1]) is expect_edge, (r, lam)


def _random_spd(p=6, seed=3):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(p, p))
    S = A @ A.T / p + np.eye(p)
    d = np.sqrt(np.diag(S))
    return S / np.outer(d, d)


def test_warm_start_converges_to_same_solution():
    S = _random_spd()
    cold = graphical_lasso(S, 0.1)
    warm = graphical_lasso(S, 0.1, Theta0=cold.precision)
    assert np.allclose(warm.precision, cold.precision, atol=1e-4)
    assert np.array_equal(warm.support, cold.support)
    # Restarting at the solution must not take longer than solving cold.
    assert warm.n_iter <= cold.n_iter


def test_warm_start_from_perturbed_statistics():
    """Warm-starting from a *nearby* problem's solution still converges."""
    S = _random_spd(seed=4)
    previous = graphical_lasso(S * 0.98 + 0.02 * np.eye(S.shape[0]), 0.1)
    warm = graphical_lasso(S, 0.1, Theta0=previous.precision)
    cold = graphical_lasso(S, 0.1)
    assert np.allclose(warm.precision, cold.precision, atol=1e-3)
    assert smallest_eigenvalue(warm.precision) > 0


def test_degenerate_warm_start_falls_back_to_cold():
    """Non-finite or wrong-shape Theta0 must not poison the solve."""
    S = _random_spd(seed=5)
    cold = graphical_lasso(S, 0.1)
    bad = np.full_like(S, np.nan)
    for theta0 in (bad, np.eye(3)):
        result = graphical_lasso(S, 0.1, Theta0=theta0)
        assert np.allclose(result.precision, cold.precision, atol=1e-6)


# --- the KKT certificate and oracle properties (hypothesis) -----------------


def shrunk_correlation(p, seed):
    """A random sparse-dependency correlation matrix, shrunk toward I."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(p + 2, 4 * p + 10))
    coupling = rng.normal(size=(p, p))
    mix = np.eye(p) + coupling * (rng.random((p, p)) < rng.uniform(0.05, 0.5))
    R = np.corrcoef(rng.normal(size=(n, p)) @ mix, rowvar=False)
    alpha = rng.uniform(0.01, 0.3)
    return (1.0 - alpha) * R + alpha * np.eye(p)


def kkt_residual(S, precision, lam):
    """The graphical-lasso KKT residual, entry by entry from inv(precision)."""
    W = np.linalg.inv(precision)
    residual = 0.0
    for i in range(len(S)):
        for j in range(len(S)):
            gap = W[i, j] - S[i, j]
            if precision[i, j] != 0.0:
                residual = max(residual, abs(gap - lam * np.sign(precision[i, j])))
            else:
                residual = max(residual, abs(gap) - lam)
    return residual


def test_iteration_cap_leaves_the_solve_uncertified():
    S = shrunk_correlation(12, seed=0)
    capped = graphical_lasso(S, 0.01, max_iter=1)
    assert capped.n_iter == 1
    assert not capped.converged
    assert capped.kkt_residual > 1e-6


sizes = st.integers(2, 30)
seeds = st.integers(0, 2**32 - 1)
penalties = st.floats(np.log(0.003), np.log(0.6)).map(np.exp)


@settings(max_examples=30, deadline=None)
@given(p=sizes, seed=seeds, lam=penalties)
# Stopping on the mean |dW| instead of the KKT residual left a residual
# of 3.2e-4 here and missed an edge of the tight solve.
@example(p=19, seed=3474491523, lam=0.009173124085227703)
def test_certified_solve_matches_a_tight_reference(p, seed, lam):
    S = shrunk_correlation(p, seed)
    fit = graphical_lasso(S, lam)
    assert fit.converged
    assert fit.kkt_residual <= 1e-6
    assert fit.kkt_residual == pytest.approx(
        kkt_residual(S, fit.precision, lam), abs=1e-12
    )
    reference = graphical_lasso(S, lam, tol=1e-12, max_iter=500)
    assert np.array_equal(fit.support, reference.support)


@settings(max_examples=30, deadline=None)
@given(p=sizes, seed=seeds, lam=penalties)
def test_screen_components_are_the_solution_blocks(p, seed, lam):
    S = shrunk_correlation(p, seed)
    fit = graphical_lasso(S, lam)
    n_components, screen = connected_components(np.abs(S) > lam, directed=False)
    across = screen[:, None] != screen[None, :]
    assert np.all(fit.precision[across] == 0.0)
    _, solved = connected_components(fit.support, directed=False)
    assert np.array_equal(solved[:, None] == solved[None, :], ~across)
    for component in range(n_components):
        members = np.flatnonzero(screen == component)
        if members.size == 1:
            i = members[0]
            assert fit.precision[i, i] == pytest.approx(1.0 / (S[i, i] + lam), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(p=sizes, seed=seeds, lam=penalties)
def test_warm_and_cold_solves_share_a_support(p, seed, lam):
    S = shrunk_correlation(p, seed)
    previous = graphical_lasso(0.97 * S + 0.03 * np.eye(p), lam)
    warm = graphical_lasso(S, lam, Theta0=previous.precision)
    cold = graphical_lasso(S, lam)
    assert warm.converged and cold.converged
    assert np.array_equal(warm.support, cold.support)
