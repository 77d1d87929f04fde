"""Tests for repro.linalg.model_selection (eBIC penalty selection)."""

import numpy as np
import pytest

from repro.linalg.covariance import correlation_from_covariance, empirical_covariance
from repro.linalg.glasso import graphical_lasso
from repro.linalg.model_selection import (
    DEFAULT_LAMBDA_GRID,
    ebic_score,
    gaussian_loglik,
    select_lambda_ebic,
)


def sparse_structure_data(n=3000, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    x1 = 0.9 * z + 0.3 * rng.normal(size=n)
    x2 = rng.normal(size=n)
    x3 = rng.normal(size=n)
    return np.stack([z, x1, x2, x3], axis=1)


def test_loglik_identity():
    S = np.eye(3)
    assert gaussian_loglik(S, np.eye(3)) == pytest.approx(-3.0)


def test_loglik_rejects_indefinite():
    assert gaussian_loglik(np.eye(2), np.diag([1.0, -1.0])) == -np.inf


def test_ebic_penalizes_extra_edges():
    """Compared at their refit MLEs, the true 1-edge support beats the
    saturated model."""
    from repro.linalg.model_selection import constrained_mle

    X = sparse_structure_data()
    S = correlation_from_covariance(empirical_covariance(X))
    n, p = X.shape
    true_support = np.eye(p, dtype=bool)
    true_support[0, 1] = true_support[1, 0] = True
    sparse = constrained_mle(S, true_support)
    dense = graphical_lasso(S, 0.0).precision  # saturated MLE
    assert ebic_score(S, sparse, n) < ebic_score(S, dense, n)


def test_constrained_mle_matches_support():
    from repro.linalg.model_selection import constrained_mle

    X = sparse_structure_data()
    S = correlation_from_covariance(empirical_covariance(X))
    support = np.eye(4, dtype=bool)
    support[0, 1] = support[1, 0] = True
    theta = constrained_mle(S, support)
    # Zero off the support; matches S on the support (covariance selection).
    assert abs(theta[2, 3]) < 1e-6
    W = np.linalg.inv(theta)
    assert W[0, 1] == pytest.approx(S[0, 1], abs=1e-6)
    assert W[0, 0] == pytest.approx(S[0, 0], abs=1e-6)


def test_selection_recovers_true_edge_only():
    X = sparse_structure_data()
    S = correlation_from_covariance(empirical_covariance(X))
    sel = select_lambda_ebic(S, n_samples=X.shape[0])
    best_precision = graphical_lasso(S, sel.best_lambda).precision
    support = np.abs(best_precision) > 1e-10
    np.fill_diagonal(support, False)
    assert support[0, 1]          # the real edge survives
    assert not support[2, 3]      # independent pair stays absent


def test_selection_returns_full_diagnostics():
    X = sparse_structure_data(500)
    S = correlation_from_covariance(empirical_covariance(X))
    sel = select_lambda_ebic(S, n_samples=500, grid=(0.01, 0.1))
    assert set(sel.scores) == {0.01, 0.1}
    assert set(sel.n_edges) == {0.01, 0.1}
    assert sel.best_lambda in (0.01, 0.1)
    assert sel.n_edges[0.01] >= sel.n_edges[0.1]


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        select_lambda_ebic(np.eye(2), 100, grid=())


def test_default_grid_sorted_positive():
    assert all(g > 0 for g in DEFAULT_LAMBDA_GRID)
    assert list(DEFAULT_LAMBDA_GRID) == sorted(DEFAULT_LAMBDA_GRID)


def test_fdx_ebic_mode():
    from repro.core.fd import FD
    from repro.core.fdx import FDX
    from repro.dataset.relation import Relation

    rng = np.random.default_rng(1)
    rows = [(int(a), int(a) % 4, int(rng.integers(5)))
            for a in rng.integers(12, size=800)]
    rel = Relation.from_rows(["a", "b", "c"], rows)
    result = FDX(lam="ebic").discover(rel)
    assert FD(["a"], "b") in result.fds


def test_unknown_penalty_rule_rejected():
    from repro.core.structure import learn_structure
    from repro.linalg.covariance import empirical_covariance

    X = np.random.default_rng(0).normal(size=(50, 3))
    with pytest.raises(ValueError, match="penalty rule"):
        learn_structure(empirical_covariance(X), len(X), lam="magic")


# -- the λ grid under the job runner's heartbeat and cancel token --------------


class CountingHeartbeat:
    """Stands in for :class:`repro.resilience.Heartbeat`: counts beats and
    calls ``on_beat(count)`` after each."""

    def __init__(self, on_beat=None):
        self.beats = 0
        self.on_beat = on_beat

    def beat(self):
        self.beats += 1
        if self.on_beat is not None:
            self.on_beat(self.beats)


@pytest.fixture(scope="module")
def ebic_relation():
    from repro.datagen.synthetic import SyntheticSpec, generate

    return generate(SyntheticSpec(n_tuples=500, n_attributes=40, seed=1000)).relation


def _run_with(heartbeat, cancel_token, fn):
    """``fn()`` in a context that holds the given heartbeat and token."""
    import contextvars

    from repro.resilience.cancel import set_current_cancel_token
    from repro.resilience.watchdog import set_current_heartbeat

    def run():
        set_current_heartbeat(heartbeat)
        set_current_cancel_token(cancel_token)
        return fn()

    return contextvars.copy_context().run(run)


def test_ebic_grid_beats_the_heartbeat_every_outer_iteration(ebic_relation):
    from repro import FDX

    heartbeat = CountingHeartbeat()
    result = _run_with(heartbeat, None, lambda: FDX(lam="ebic").discover(ebic_relation))
    health = result.diagnostics["solver_health"]
    grid_iterations = sum(point["iterations"] for point in health["lambda"]["path"])
    final_iterations = sum(run["iterations"] for run in health["runs"])
    assert len(health["lambda"]["path"]) == len(DEFAULT_LAMBDA_GRID)
    assert heartbeat.beats >= grid_iterations + final_iterations


def test_cancelled_ebic_stops_inside_the_grid(monkeypatch, ebic_relation):
    import repro.linalg.model_selection as model_selection
    from repro import FDX
    from repro.resilience.cancel import CancelledError, CancelToken

    finished = []
    real = model_selection.graphical_lasso

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        finished.append(args[1])
        return result

    monkeypatch.setattr(model_selection, "graphical_lasso", counted)
    token = CancelToken()

    def cancel_after_the_first_beat(count):
        if count == 1:
            token.set()

    heartbeat = CountingHeartbeat(on_beat=cancel_after_the_first_beat)
    with pytest.raises(CancelledError):
        _run_with(heartbeat, token, lambda: FDX(lam="ebic").discover(ebic_relation))
    assert finished == []  # no grid solve ran to completion
