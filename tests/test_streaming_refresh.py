"""Tests for repro.streaming.refresh (debounce policy + warm-started solve)."""

import numpy as np
import pytest

from repro.core.fd import FD
from repro.core.incremental import IncrementalFDX
from repro.dataset.relation import Relation
from repro.obs.registry import MetricsRegistry
from repro.service.protocol import Hyperparameters
from repro.service.sessions import Session
from repro.streaming import RefreshPolicy, refresh_solve


def fd_relation(n=600, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        a = int(rng.integers(15))
        rows.append((a, a % 5, int(rng.integers(6))))
    return Relation.from_rows(["a", "b", "c"], rows)


def accumulated_stats(n=600, seed=0):
    inc = IncrementalFDX()
    inc.add_batch(fd_relation(n, seed))
    return inc.snapshot()


# -- RefreshPolicy ------------------------------------------------------------

def test_policy_zero_always_refreshes():
    policy = RefreshPolicy(refresh_every_rows=0)
    assert policy.due(0, have_result=True) is True
    assert policy.due(0, have_result=False) is True


def test_policy_debounces_until_enough_rows():
    policy = RefreshPolicy(refresh_every_rows=100)
    assert policy.due(0, have_result=False) is True  # nothing cached yet
    assert policy.due(50, have_result=True) is False
    assert policy.due(100, have_result=True) is True
    assert policy.due(50, have_result=True, force=True) is True


def test_policy_validation():
    with pytest.raises(ValueError):
        RefreshPolicy(refresh_every_rows=-1)


# -- refresh_solve ------------------------------------------------------------

def test_warm_refresh_matches_cold_fds():
    stats = accumulated_stats()
    cold = refresh_solve(stats)
    warm = refresh_solve(stats, warm_start=cold.result.precision)
    assert cold.warm is False and warm.warm is True
    assert set(warm.result.fds) == set(cold.result.fds)
    assert FD(["a"], "b") in set(warm.result.fds)
    # Warm start may only help convergence, never hurt it.
    assert (
        warm.result.diagnostics["glasso_iterations"]
        <= cold.result.diagnostics["glasso_iterations"]
    )


def test_refresh_solve_records_metrics():
    registry = MetricsRegistry()
    stats = accumulated_stats()
    outcome = refresh_solve(stats, metrics=registry)
    refresh_solve(stats, warm_start=outcome.result.precision, metrics=registry)
    counters = registry.snapshot()["counters"]
    assert counters["session_refreshes_total{mode=cold}"] == 1
    assert counters["session_refreshes_total{mode=warm}"] == 1
    assert registry.snapshot()["histograms"]["session_refresh_seconds"]["count"] == 2


def test_ebic_refresh_reports_cold_everywhere():
    """An eBIC solve's λ grid solves cold, so a previous precision handed
    to it is not a warm start, and no report may say it was."""
    from repro.obs import Tracer
    from repro.obs.sinks import InMemorySink

    stats = accumulated_stats()
    previous = refresh_solve(stats, lam="ebic").result.precision
    registry, sink, events = MetricsRegistry(), InMemorySink(), []
    outcome = refresh_solve(
        stats, lam="ebic", warm_start=previous,
        tracer=Tracer(enabled=True, sinks=[sink]),
        metrics=registry, event_hook=events.append,
    )
    assert outcome.warm is False
    assert outcome.result.diagnostics["warm_start"] is False
    runs = outcome.result.diagnostics["solver_health"]["runs"]
    assert [run["warm_start"] for run in runs] == [False]
    spans = {event["name"]: event["attributes"] for event in sink.events()}
    assert spans["session.refresh"]["warm_start"] is False
    assert spans["structure.glasso"]["warm_start"] is False
    assert [event["warm"] for event in events] == [False]
    counters = registry.snapshot()["counters"]
    assert counters == {"session_refreshes_total{mode=cold}": 1}


# -- Session.refresh (debounce + warm-start wiring) ---------------------------

def test_session_debounce_serves_cached_result():
    session = Session("sess-test", Hyperparameters(refresh_every_rows=500))
    session.append(fd_relation(300))
    first = session.refresh()
    assert first.solved is True  # nothing cached: must solve
    second = session.refresh()
    assert second.solved is False  # only 0 new rows since the solve
    assert second.result is first.result
    session.append(fd_relation(200, seed=1))
    third = session.refresh()
    assert third.solved is False  # 200 < 500 rows since last solve
    forced = session.refresh(force=True)
    assert forced.solved is True


def test_session_second_refresh_is_warm():
    session = Session("sess-test", Hyperparameters())
    session.append(fd_relation(400))
    first = session.refresh()
    assert first.warm is False
    session.append(fd_relation(200, seed=1))
    second = session.refresh()
    assert second.warm is True
    assert set(second.result.fds) == set(first.result.fds)


def test_session_refresh_advances_changelog():
    session = Session("sess-test", Hyperparameters())
    session.append(fd_relation(400))
    session.refresh()
    assert session.changelog.version == 1
    assert FD(["a"], "b") in session.changelog.current_fds
    session.refresh(force=True)
    assert session.changelog.version == 2
    # Static data: second record is all-retained, streak advanced.
    assert session.changelog.streak(FD(["a"], "b")) == 2
