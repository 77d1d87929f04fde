"""Tests for repro.linalg.robust (robust covariance estimators)."""

import numpy as np
import pytest

from repro.linalg.covariance import empirical_covariance, is_positive_definite
from repro.linalg.robust import (
    corruption_breakdown_check,
    spearman_covariance,
    trimmed_covariance,
)


def correlated_data(n=3000, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    return np.stack([z, 0.8 * z + 0.6 * rng.normal(size=n), rng.normal(size=n)], axis=1)


def test_trimmed_close_to_empirical_on_clean_data():
    X = correlated_data()
    S_emp = empirical_covariance(X)
    S_trim = trimmed_covariance(X, trim=0.02)
    # Trimming shrinks tails slightly; correlation structure is preserved.
    assert np.corrcoef(S_emp.ravel(), S_trim.ravel())[0, 1] > 0.99


def test_trimmed_resists_outliers():
    rng = np.random.default_rng(1)
    X = correlated_data()
    emp_ratio = corruption_breakdown_check(
        lambda A: empirical_covariance(A), X, 0.05, 1000.0, rng
    )
    trim_ratio = corruption_breakdown_check(
        lambda A: trimmed_covariance(A, trim=0.08), X, 0.05,
        1000.0, np.random.default_rng(1),
    )
    assert trim_ratio < emp_ratio / 10


def test_trimmed_psd():
    X = correlated_data(500)
    S = trimmed_covariance(X, trim=0.1)
    assert is_positive_definite(S + 1e-9 * np.eye(3), tol=0)


def test_trimmed_invalid_params():
    with pytest.raises(ValueError):
        trimmed_covariance(correlated_data(50), trim=0.6)
    with pytest.raises(ValueError):
        trimmed_covariance(np.zeros(5))
    with pytest.raises(ValueError):
        trimmed_covariance(np.zeros((0, 2)))


def test_spearman_recovers_correlation_sign_and_strength():
    X = correlated_data()
    S = spearman_covariance(X)
    R = S / np.sqrt(np.outer(np.diag(S), np.diag(S)))
    assert R[0, 1] > 0.6
    assert abs(R[0, 2]) < 0.1


def test_spearman_invariant_to_monotone_corruption():
    X = correlated_data(2000)
    S1 = spearman_covariance(X)
    X_mono = X.copy()
    X_mono[:, 0] = np.exp(X_mono[:, 0] / 2)  # monotone transform
    S2 = spearman_covariance(X_mono)
    R1 = S1 / np.sqrt(np.outer(np.diag(S1), np.diag(S1)))
    R2 = S2 / np.sqrt(np.outer(np.diag(S2), np.diag(S2)))
    assert abs(R1[0, 1] - R2[0, 1]) < 0.02


def test_spearman_needs_two_rows():
    with pytest.raises(ValueError):
        spearman_covariance(np.zeros((1, 2)))


def test_structure_learning_with_robust_covariance():
    from repro.core.structure import learn_structure

    X = correlated_data(1500)
    for estimate_covariance in (trimmed_covariance, spearman_covariance):
        est = learn_structure(estimate_covariance(X), len(X), lam=0.05)
        assert abs(est.precision[0, 1]) > 0.05  # real edge survives


def test_agreement_pipeline_with_spearman_covariance():
    """End-to-end: structure learning on agreement samples works with the
    rank-based robust estimator (trimming is documented as unsuitable for
    binary indicators — the signal lives in the tails it removes)."""
    from repro.core.structure import learn_structure
    from repro.core.transform import pair_difference_transform
    from repro.dataset.relation import Relation

    rng = np.random.default_rng(3)
    rows = [(int(a), int(a) % 4) for a in rng.integers(12, size=600)]
    rel = Relation.from_rows(["a", "b"], rows)
    samples = pair_difference_transform(rel, np.random.default_rng(0))
    est = learn_structure(spearman_covariance(samples), len(samples), lam=0.05)
    assert abs(est.precision[0, 1]) > 0.01


def test_trimmed_zeroes_binary_tail_signal():
    """Documented caveat: trimming erases co-agreement signal on binary
    agreement indicators (use spearman/empirical there instead)."""
    from repro.core.structure import learn_structure
    from repro.core.transform import pair_difference_transform
    from repro.dataset.relation import Relation

    rng = np.random.default_rng(3)
    rows = [(int(a), int(a) % 2) for a in rng.integers(4, size=600)]
    rel = Relation.from_rows(["a", "b"], rows)
    samples = pair_difference_transform(rel, np.random.default_rng(0))
    est = learn_structure(trimmed_covariance(samples), len(samples), lam=0.05)
    assert abs(est.precision[0, 1]) < 0.05
