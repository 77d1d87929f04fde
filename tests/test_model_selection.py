"""Tests for repro.linalg.model_selection (eBIC penalty selection)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.covariance import (
    correlation_from_covariance,
    empirical_covariance,
    shrunk_covariance,
)
from repro.linalg.glasso import graphical_lasso
from repro.linalg.model_selection import (
    DEFAULT_LAMBDA_GRID,
    REFIT_TOL,
    constrained_mle,
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
    X = sparse_structure_data()
    S = correlation_from_covariance(empirical_covariance(X))
    n, p = X.shape
    true_support = np.eye(p, dtype=bool)
    true_support[0, 1] = true_support[1, 0] = True
    sparse = constrained_mle(S, true_support).precision
    dense = graphical_lasso(S, 0.0).precision  # saturated MLE
    assert ebic_score(S, sparse, 1, n) < ebic_score(S, dense, p * (p - 1) // 2, n)


def test_constrained_mle_matches_support():
    X = sparse_structure_data()
    S = correlation_from_covariance(empirical_covariance(X))
    support = np.eye(4, dtype=bool)
    support[0, 1] = support[1, 0] = True
    refit = constrained_mle(S, support)
    theta = refit.precision
    # Zero off the support; matches S on the support (covariance selection).
    assert theta[2, 3] == 0.0 and theta[0, 2] == 0.0
    assert refit.residual <= REFIT_TOL
    W = np.linalg.inv(theta)
    assert W[0, 1] == pytest.approx(S[0, 1], abs=1e-9)
    assert W[0, 0] == pytest.approx(S[0, 0], abs=1e-9)


@st.composite
def shrunk_correlations(draw):
    """A standardised, shrunk sample correlation matrix, as the eBIC grid
    sees it, of data in which some columns lean on earlier ones."""
    p = draw(st.integers(2, 12))
    n = draw(st.integers(20, 400))
    shrinkage = draw(st.sampled_from([0.01, 0.1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, p))
    for j in range(1, p):
        if rng.random() < 0.5:
            X[:, j] += rng.normal(0.0, 2.0) * X[:, rng.integers(j)]
    return shrunk_covariance(correlation_from_covariance(empirical_covariance(X)), shrinkage)


@settings(max_examples=40, deadline=None)
@given(shrunk_correlations(), st.sampled_from(DEFAULT_LAMBDA_GRID), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_certified_refit_matches_S_on_its_support_and_is_zero_off_it(
    S, lam, from_grid_fit, seed
):
    """The refit's certificate: ``W = Theta^-1`` equals ``S`` to within
    ``REFIT_TOL`` on the support (diagonal included), and ``Theta`` is
    exactly zero off it — for a grid fit's support started at that fit,
    and for a random support started cold."""
    p = S.shape[0]
    if from_grid_fit:
        fit = graphical_lasso(S, lam)
        support, Theta0 = fit.support, fit.precision
    else:
        upper = np.triu(np.random.default_rng(seed).random((p, p)) < 0.4, 1)
        support, Theta0 = upper | upper.T, None
    refit = constrained_mle(S, support, Theta0)
    mask = support | np.eye(p, dtype=bool)
    assert refit.residual <= REFIT_TOL
    W = np.linalg.inv(refit.precision)
    assert np.abs(W - S)[mask].max() <= REFIT_TOL
    assert not refit.precision[~mask].any()


@settings(max_examples=30, deadline=None)
@given(shrunk_correlations(), st.sampled_from([100, 2_000, 20_000]))
def test_pruned_selection_equals_the_unpruned_one(S, n_samples):
    """Skipping the refits whose likelihood bound cannot win changes
    nothing: every grid point refit and scored picks the same λ, and each
    pruned point really scores worse than the selected one."""
    selection = select_lambda_ebic(S, n_samples)
    scores, seen = {}, {}
    for lam in DEFAULT_LAMBDA_GRID:
        fit = graphical_lasso(S, lam)
        key = fit.support.tobytes()
        if key not in seen:
            refit = constrained_mle(S, fit.support, fit.precision)
            seen[key] = ebic_score(S, refit.precision, int(fit.support.sum()) // 2, n_samples)
        scores[lam] = seen[key]
    best = min(scores, key=lambda lam: (scores[lam], lam))
    assert selection.best_lambda == best
    for lam, record in selection.fits.items():
        if record["pruned"]:
            assert selection.scores[lam] == np.inf and scores[lam] > scores[best]
        else:
            assert selection.scores[lam] == pytest.approx(scores[lam], rel=1e-9)


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


def test_nothing_is_pruned_when_S_is_singular():
    """Without a positive-definite ``S`` there is no likelihood bound, so
    every point is refit; supports whose MLE does not exist (the edge
    between two copies of a column) report an uncertified refit."""
    X = sparse_structure_data(500)
    S = correlation_from_covariance(empirical_covariance(np.column_stack([X, X[:, 0]])))
    sel = select_lambda_ebic(S, n_samples=500)
    assert not any(record["pruned"] for record in sel.fits.values())
    assert not all(record["refit_certified"] for record in sel.fits.values())


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


def test_ebic_path_is_certified_or_pruned(ebic_relation):
    """Every grid point of a discovery's λ path is either pruned or scored
    at a certified refit, and the selected point is never pruned."""
    from repro import FDX

    result = FDX(lam="ebic").discover(ebic_relation)
    info = result.diagnostics["solver_health"]["lambda"]
    path = info["path"]
    assert any(point["pruned"] for point in path)
    for point in path:
        if point["pruned"]:
            assert point["score"] is None and point["refit_residual"] is None
            assert point["refit_certified"] is False
        else:
            assert point["refit_certified"] and point["refit_residual"] <= REFIT_TOL
    assert not path[info["grid_index"]]["pruned"]


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
    assert len(health["lambda"]["path"]) == len(DEFAULT_LAMBDA_GRID)
    # The selected λ's grid fit is the model: the grid is every solve.
    assert heartbeat.beats >= grid_iterations


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


# -- one graphical-lasso solve per λ -------------------------------------------


def test_ebic_solves_each_grid_point_once(monkeypatch, ebic_relation):
    """The selected λ's grid fit is the model; nothing solves it again."""
    import repro.core.structure as structure
    import repro.linalg.model_selection as model_selection
    from repro import FDX

    solved = []
    real = graphical_lasso

    def counted(S, lam, *args, **kwargs):
        solved.append(lam)
        return real(S, lam, *args, **kwargs)

    monkeypatch.setattr(model_selection, "graphical_lasso", counted)
    monkeypatch.setattr(structure, "graphical_lasso", counted)
    result = FDX(lam="ebic").discover(ebic_relation)
    assert not result.diagnostics["degraded"]
    assert solved == list(DEFAULT_LAMBDA_GRID)


def test_ebic_model_is_the_selected_grid_fit(ebic_relation):
    """The eBIC precision is, bit for bit, a fresh solve at the selected λ
    on the standardised, shrunk S the grid searched."""
    from repro import FDX

    result = FDX(lam="ebic").discover(ebic_relation)
    selected = result.diagnostics["solver_health"]["lambda"]["selected"]
    fresh = graphical_lasso(result.covariance, selected)
    assert np.array_equal(result.precision, fresh.precision)


def test_glasso_max_iter_bounds_every_ebic_grid_solve(ebic_relation):
    """``max_iter`` caps each grid solve where the grid runs, and FDX's
    ``glasso_max_iter`` reaches the configured (first) ladder attempt."""
    from repro import FDX
    from repro.core.structure import learn_structure, sample_covariance

    samples = FDX().transform_relation(ebic_relation)
    S = sample_covariance(samples, ebic_relation.n_attributes)
    estimate = learn_structure(S, samples.shape[0], lam="ebic", max_iter=2)
    path = estimate.lambda_info["path"]
    assert len(path) == len(DEFAULT_LAMBDA_GRID)
    assert all(point["iterations"] <= 2 for point in path)

    result = FDX(lam="ebic", glasso_max_iter=2).discover(ebic_relation)
    assert result.diagnostics["solver_health"]["runs"][0]["iterations"] <= 2


def test_ebic_selection_runs_in_the_glasso_stage(monkeypatch, ebic_relation):
    """λ selection is graphical-lasso work: it runs inside the
    ``structure.glasso`` span, not ``structure.covariance``."""
    import repro.linalg.model_selection as model_selection
    from repro import FDX
    from repro.obs import Tracer
    from repro.obs.trace import current_span

    open_spans = []
    real = model_selection.select_lambda_ebic

    def observed(*args, **kwargs):
        open_spans.append(current_span().name)
        return real(*args, **kwargs)

    monkeypatch.setattr(model_selection, "select_lambda_ebic", observed)
    FDX(lam="ebic", tracer=Tracer(enabled=True)).discover(ebic_relation)
    assert open_spans == ["structure.glasso"]
