"""Tests for repro.linalg.lasso."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.linalg.lasso import lasso_coordinate_descent, soft_threshold


def test_soft_threshold():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.5, 1.0) == 0.0
    assert soft_threshold(-0.5, 1.0) == 0.0


def test_quadratic_lasso_matches_closed_form_1d():
    # min 0.5 q b^2 - c b + lam |b|  =>  b = S(c, lam) / q
    q, c, lam = 2.0, 3.0, 0.5
    beta = lasso_coordinate_descent(np.array([[q]]), np.array([c]), lam)
    assert beta[0] == pytest.approx((c - lam) / q)


def regression(X, y, lam):
    """The lasso regression ``min_b 0.5/n ||y - Xb||^2 + lam ||b||_1`` as
    the quadratic lasso with ``Q = X'X/n`` and ``c = X'y/n``."""
    n = X.shape[0]
    return lasso_coordinate_descent(X.T @ X / n, X.T @ y / n, lam)


def test_zero_penalty_matches_least_squares():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 5))
    true = np.array([1.0, -2.0, 0.0, 0.5, 3.0])
    y = X @ true
    beta = regression(X, y, lam=0.0)
    assert np.allclose(beta, true, atol=1e-5)


def test_large_penalty_zeroes_everything():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(100, 4))
    y = X @ np.array([1.0, 1.0, 1.0, 1.0])
    beta = regression(X, y, lam=1e6)
    assert np.allclose(beta, 0.0)


def test_penalty_induces_sparsity_on_weak_coefficients():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(500, 3))
    y = X @ np.array([5.0, 0.05, 0.0]) + rng.normal(scale=0.01, size=500)
    beta = regression(X, y, lam=0.2)
    assert abs(beta[0]) > 3.0
    assert beta[1] == 0.0
    assert beta[2] == 0.0


def test_kkt_conditions_hold():
    """At the optimum: |grad_j| <= lam for zero coords, grad_j = -sign(b_j)*lam else."""
    rng = np.random.default_rng(2)
    X = rng.normal(size=(300, 6))
    y = rng.normal(size=300)
    lam = 0.1
    n = X.shape[0]
    Q = X.T @ X / n
    c = X.T @ y / n
    beta = lasso_coordinate_descent(Q, c, lam, tol=1e-12)
    grad = Q @ beta - c
    for j in range(6):
        if beta[j] == 0.0:
            assert abs(grad[j]) <= lam + 1e-6
        else:
            assert grad[j] == pytest.approx(-np.sign(beta[j]) * lam, abs=1e-6)


def test_warm_start_converges_to_same_solution():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 4))
    y = rng.normal(size=200)
    Q, c = X.T @ X / 200, X.T @ y / 200
    cold = lasso_coordinate_descent(Q, c, 0.05, tol=1e-12)
    warm = lasso_coordinate_descent(Q, c, 0.05, beta0=cold + 0.1, tol=1e-12)
    assert np.allclose(cold, warm, atol=1e-6)


def test_negative_lambda_rejected():
    with pytest.raises(ValueError):
        lasso_coordinate_descent(np.eye(2), np.zeros(2), -0.1)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        lasso_coordinate_descent(np.eye(3), np.zeros(2), 0.1)


def test_empty_problem():
    beta = lasso_coordinate_descent(np.zeros((0, 0)), np.zeros(0), 0.1)
    assert beta.shape == (0,)


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    log_condition=st.floats(0.0, np.log(1e6)),
    lam=st.floats(np.log(1e-3), np.log(2.0)).map(np.exp),
)
# Plain coordinate descent stops 1000 sweeps short of the optimum here
# (KKT residual 1.4).
@example(p=8, seed=1, log_condition=13.0, lam=0.01)
def test_kkt_conditions_hold_on_ill_conditioned_q(p, seed, log_condition, lam):
    """Random SPD ``Q`` with condition number up to 1e6: the lasso KKT
    conditions hold within 1e-6."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.normal(size=(p, p)))
    eigenvalues = np.exp(rng.uniform(-log_condition, 0.0, size=p))
    eigenvalues[0], eigenvalues[-1] = 1.0, np.exp(-log_condition)
    Q = (U * eigenvalues) @ U.T
    Q = 0.5 * (Q + Q.T)
    c = rng.normal(size=p)
    beta = lasso_coordinate_descent(Q, c, lam)
    grad = Q @ beta - c
    for j in range(p):
        if beta[j] == 0.0:
            assert abs(grad[j]) <= lam + 1e-6
        else:
            assert abs(grad[j] + np.sign(beta[j]) * lam) <= 1e-6
