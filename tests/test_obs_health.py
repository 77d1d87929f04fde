"""SolverHealthMonitor unit tests: metrics, triggers, readiness verdicts."""

import pytest

from repro.obs.health import SolverHealthMonitor
from repro.obs.registry import MetricsRegistry


def run(
    converged=True,
    estimator="glasso",
    stage="configured",
    condition_number=10.0,
    iterations=5,
    kkt_residual=1e-7,
    active_set_size=3,
    warm_start=False,
    lam=0.02,
):
    return {
        "stage": stage,
        "estimator": estimator,
        "lam": lam,
        "iterations": iterations,
        "converged": converged,
        "objective": -1.0,
        "kkt_residual": kkt_residual,
        "active_set_size": active_set_size,
        "condition_number": condition_number,
        "warm_start": warm_start,
    }


def payload(*runs):
    return {"runs": list(runs), "lambda": {"mode": "fixed", "selected": 0.02}}


@pytest.fixture
def monitor():
    return SolverHealthMonitor(MetricsRegistry(), window=4, min_runs=2)


class TestObserve:
    def test_counts_and_histograms_land_in_the_registry(self, monitor):
        events = monitor.observe(payload(run(), run(converged=False)))
        snap = monitor.registry.snapshot()
        counters = snap["counters"]
        assert counters["solver_runs_total{estimator=glasso,status=converged}"] == 1
        assert counters["solver_runs_total{estimator=glasso,status=nonconverged}"] == 1
        assert counters["solver_starts_total{mode=cold}"] == 2
        assert {
            "solver_iterations", "solver_kkt_residual",
            "solver_condition_number", "solver_active_set_size",
        } <= set(snap["histograms"])
        assert dict(events)["solver.nonconverge"]["runs"] == 1

    def test_triggers_aggregate_to_one_event_per_reason(self, monitor):
        events = dict(
            monitor.observe(
                payload(
                    run(converged=False, stage="configured"),
                    run(converged=False, stage="reconditioned"),
                    run(condition_number=1e12),
                )
            )
        )
        assert set(events) == {"solver.nonconverge", "solver.illconditioned"}
        assert events["solver.nonconverge"]["runs"] == 2
        assert events["solver.illconditioned"]["condition_number"] == 1e12

    def test_empty_or_missing_payload_is_a_noop(self, monitor):
        assert monitor.observe(None) == []
        assert monitor.observe({}) == []
        assert monitor.observe({"runs": ["not-a-dict"]}) == []
        assert monitor.runs_total == 0


class TestReadiness:
    def test_single_bad_run_does_not_degrade_a_fresh_monitor(self, monitor):
        monitor.observe(payload(run(converged=False)))
        assert monitor.status() == "ok"  # below min_runs

    def test_nonconverging_window_degrades(self, monitor):
        monitor.observe(payload(run(converged=False), run(converged=False)))
        assert monitor.status() == "nonconverging"
        summary = monitor.summary()
        assert summary["status"] == "nonconverging"
        assert summary["recent_nonconverged_ratio"] == 1.0

    def test_illconditioned_window_degrades(self, monitor):
        monitor.observe(payload(run(), run(condition_number=1e9)))
        assert monitor.status() == "illconditioned"
        assert monitor.summary()["recent_max_condition_number"] == 1e9

    def test_healthy_runs_push_bad_ones_out_of_the_window(self, monitor):
        monitor.observe(payload(run(converged=False), run(converged=False)))
        assert monitor.status() == "nonconverging"
        monitor.observe(payload(*[run() for _ in range(4)]))  # window=4
        assert monitor.status() == "ok"
        # Lifetime totals keep the history the window forgot.
        assert monitor.summary()["nonconverged_total"] == 2
