"""Tests for repro.linalg.neighborhood (Meinshausen-Buehlmann selection)."""

import numpy as np
import pytest

from repro.linalg.covariance import empirical_covariance
from repro.linalg.neighborhood import neighborhood_selection


def chain_data(n=4000, seed=0):
    """x0 -> x1 -> x2, x3 independent."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=n)
    x1 = 0.9 * x0 + 0.3 * rng.normal(size=n)
    x2 = 0.9 * x1 + 0.3 * rng.normal(size=n)
    x3 = rng.normal(size=n)
    return np.stack([x0, x1, x2, x3], axis=1)


def test_recovers_chain_support():
    S = empirical_covariance(chain_data())
    result = neighborhood_selection(S, lam=0.1)
    assert result.support[0, 1] and result.support[1, 2]
    assert not result.support[0, 2]  # conditional independence given x1
    assert not result.support[:, 3].any()


def test_support_symmetric_and_hollow():
    S = empirical_covariance(chain_data())
    result = neighborhood_selection(S, lam=0.1)
    assert np.array_equal(result.support, result.support.T)
    assert not result.support.diagonal().any()


def test_and_rule_is_subset_of_or_rule():
    S = empirical_covariance(chain_data(800, seed=1))
    or_rule = neighborhood_selection(S, lam=0.05, rule="or")
    and_rule = neighborhood_selection(S, lam=0.05, rule="and")
    assert np.all(~or_rule.support | (and_rule.support <= or_rule.support))
    assert and_rule.support.sum() <= or_rule.support.sum()


def test_large_penalty_empty_graph():
    S = empirical_covariance(chain_data())
    result = neighborhood_selection(S, lam=10.0)
    assert not result.support.any()


def test_precision_diagonal_positive():
    S = empirical_covariance(chain_data())
    result = neighborhood_selection(S, lam=0.1)
    assert np.all(np.diag(result.precision) > 0)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        neighborhood_selection(np.eye(3), 0.1, rule="xor")
    with pytest.raises(ValueError):
        neighborhood_selection(np.zeros((2, 3)), 0.1)


def test_fdx_with_neighborhood_estimator():
    """The estimator plugs into the full FDX pipeline."""
    from repro.core.fd import FD
    from repro.core.fdx import FDX
    from repro.dataset.relation import Relation

    rng = np.random.default_rng(2)
    rows = []
    for _ in range(600):
        a = int(rng.integers(12))
        rows.append((a, a % 4, int(rng.integers(5))))
    rel = Relation.from_rows(["a", "b", "c"], rows)
    result = FDX(estimator="neighborhood").discover(rel)
    assert FD(["a"], "b") in result.fds


def test_unknown_estimator_rejected():
    from repro.core.structure import learn_structure
    from repro.linalg.covariance import empirical_covariance

    X = np.random.default_rng(0).normal(size=(50, 3))
    with pytest.raises(ValueError, match="unknown estimator"):
        learn_structure(empirical_covariance(X), len(X), estimator="bogus")
