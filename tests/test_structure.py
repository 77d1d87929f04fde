"""Tests for repro.core.structure."""

import numpy as np
import pytest

from repro.core.structure import learn_structure
from repro.linalg.covariance import empirical_covariance


def sem_samples(n=5000, seed=0):
    """Z0 -> Z2 <- Z1, Z2 -> Z3; Z4 independent."""
    rng = np.random.default_rng(seed)
    z0 = rng.normal(size=n)
    z1 = rng.normal(size=n)
    z2 = 0.5 * z0 + 0.5 * z1 + 0.1 * rng.normal(size=n)
    z3 = 0.9 * z2 + 0.1 * rng.normal(size=n)
    z4 = rng.normal(size=n)
    return np.stack([z0, z1, z2, z3, z4], axis=1)


def fit(X, **kwargs):
    """Structure of a sample matrix: its covariance and row count."""
    return learn_structure(empirical_covariance(X), len(X), **kwargs)


def test_learn_structure_shapes():
    est = fit(sem_samples(), lam=0.05)
    assert est.covariance.shape == (5, 5)
    assert est.precision.shape == (5, 5)
    assert est.autoregression.shape == (5, 5)


def test_autoregression_recovers_sem_edges():
    est = fit(sem_samples(), lam=0.02, ordering="natural")
    B = est.autoregression  # natural order == true topological order
    assert abs(B[0, 2]) > 0.2
    assert abs(B[1, 2]) > 0.2
    assert abs(B[2, 3]) > 0.5
    # Independent variable stays disconnected.
    assert np.all(np.abs(B[:, 4]) < 0.05)
    assert np.all(np.abs(B[4, :]) < 0.05)


def test_standardize_makes_lambda_scale_free():
    X = sem_samples()
    a = fit(X, lam=0.1)
    b = fit(X * 100.0, lam=0.1)
    assert np.allclose(a.precision, b.precision, atol=1e-6)


def test_reconstruction_matches_precision():
    est = fit(sem_samples(), lam=0.05)
    assert np.allclose(est.factorization.reconstruct(), est.precision, atol=1e-6)


def test_rejects_1d_input():
    with pytest.raises(ValueError):
        learn_structure(np.zeros(10), 10)


def test_ordering_option_is_used():
    X = sem_samples()
    est = fit(X, ordering="natural")
    assert est.order.tolist() == [0, 1, 2, 3, 4]


def test_glasso_diagnostics_exposed():
    est = fit(sem_samples(1000), lam=0.1)
    assert est.glasso_iterations >= 1
    assert isinstance(est.glasso_converged, bool)
