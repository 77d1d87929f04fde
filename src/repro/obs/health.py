"""Solver-health telemetry: per-λ path records folded into readiness.

:class:`SolverHealthMonitor` consumes the ``diagnostics["solver_health"]``
payload each discovery produces (one record per graphical-lasso /
neighborhood solve, including every fallback-ladder rung and every eBIC
grid point) and turns it into:

* ``solver_*`` registry series — run counters by convergence status,
  iteration / KKT-residual / condition-number / active-set histograms,
  warm-vs-cold start counters — all carrying ``# HELP`` text for the
  Prometheus exposition;
* flight-recorder trigger reasons (``solver.nonconverge``,
  ``solver.illconditioned``) returned from :meth:`observe` so the
  service can dump the ring with the offending run in it;
* a ``summary()`` dict for the ``/v1/statusz`` ``solver`` section, whose
  ``status`` degrades readiness when the recent run window is
  non-converging or ill-conditioned.

The monitor never looks at wall-clock fields — run records deliberately
carry none, preserving the serial/thread/process determinism contract.
"""

from __future__ import annotations

import threading
from collections import deque

from .registry import MetricsRegistry, get_registry

__all__ = ["SolverHealthMonitor"]

#: Histogram buckets for Newton-step counts (glasso max_iter is 100).
ITERATION_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 200.0)

#: Log-spaced KKT-residual buckets (a certified solve sits at or below
#: its ``tol``, 1e-6 by default).
KKT_RESIDUAL_BUCKETS = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)

#: Log-spaced condition-number buckets for the solver-input covariance.
CONDITION_BUCKETS = (10.0, 1e2, 1e3, 1e4, 1e6, 1e8, 1e10)

#: Active-set (estimated edge count) buckets.
ACTIVE_SET_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0)


class SolverHealthMonitor:
    """Aggregate solver run records into metrics, triggers and readiness.

    Parameters
    ----------
    registry:
        Metrics registry the ``solver_*`` series are registered in.
    window:
        Number of most-recent runs the readiness verdict looks at.
    nonconverge_threshold:
        Fraction of the window that must be non-converged before
        ``status()`` reports ``"nonconverging"``.
    condition_limit:
        Condition-number ceiling; any run in the window above it (and a
        per-run trigger) reports ``"illconditioned"``.
    min_runs:
        Runs required before the monitor will degrade at all — a single
        cold-start wobble must not flip a fresh service to 503.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        window: int = 32,
        nonconverge_threshold: float = 0.5,
        condition_limit: float = 1e8,
        min_runs: int = 2,
    ) -> None:
        self.registry = registry if registry is not None else get_registry()
        self.window = int(window)
        self.nonconverge_threshold = float(nonconverge_threshold)
        self.condition_limit = float(condition_limit)
        self.min_runs = int(min_runs)
        self._lock = threading.Lock()
        self._recent: deque[dict] = deque(maxlen=self.window)
        self.runs_total = 0
        self.nonconverged_total = 0
        self.illconditioned_total = 0

    # -- ingestion ----------------------------------------------------------

    def observe(self, solver_health: dict | None) -> list[tuple[str, dict]]:
        """Fold one discovery's solver-health payload into the monitor.

        Returns flight-trigger ``(reason, data)`` pairs — at most one per
        reason per call, aggregated over the payload's runs, so a
        three-rung fallback walk produces one dump, not three.
        """
        runs = (solver_health or {}).get("runs") or []
        events: dict[str, dict] = {}
        for run in runs:
            if not isinstance(run, dict):
                continue
            converged = bool(run.get("converged"))
            estimator = str(run.get("estimator", "unknown"))
            status = "converged" if converged else "nonconverged"
            self.registry.counter(
                "solver_runs_total",
                labels={"status": status, "estimator": estimator},
                help="Structure-learning solver runs by convergence status",
            ).inc()
            iterations = run.get("iterations")
            if iterations is not None:
                self.registry.histogram(
                    "solver_iterations",
                    buckets=ITERATION_BUCKETS,
                    help="Proximal-Newton steps per solver run "
                    "(1 for neighborhood selection)",
                ).observe(float(iterations))
            residual = run.get("kkt_residual")
            if residual is not None:
                self.registry.histogram(
                    "solver_kkt_residual",
                    buckets=KKT_RESIDUAL_BUCKETS,
                    help="Final KKT residual per graphical-lasso run",
                ).observe(float(residual))
            condition = run.get("condition_number")
            if condition is not None:
                self.registry.histogram(
                    "solver_condition_number",
                    buckets=CONDITION_BUCKETS,
                    help="Condition-number estimate of the solver input",
                ).observe(float(condition))
            active = run.get("active_set_size")
            if active is not None:
                self.registry.histogram(
                    "solver_active_set_size",
                    buckets=ACTIVE_SET_BUCKETS,
                    help="Estimated precision-graph edges per solver run",
                ).observe(float(active))
            self.registry.counter(
                "solver_starts_total",
                labels={"mode": "warm" if run.get("warm_start") else "cold"},
                help="Solver runs by warm/cold start",
            ).inc()
            illconditioned = (
                condition is not None
                and float(condition) > self.condition_limit
            )
            with self._lock:
                self.runs_total += 1
                if not converged:
                    self.nonconverged_total += 1
                if illconditioned:
                    self.illconditioned_total += 1
                self._recent.append(
                    {
                        "converged": converged,
                        "condition_number": (
                            float(condition) if condition is not None else None
                        ),
                    }
                )
            if not converged:
                event = events.setdefault(
                    "solver.nonconverge", {"runs": 0}
                )
                event["runs"] += 1
                event.update(
                    stage=run.get("stage"),
                    estimator=estimator,
                    lam=run.get("lam"),
                    iterations=iterations,
                )
            if illconditioned:
                event = events.setdefault(
                    "solver.illconditioned", {"runs": 0}
                )
                event["runs"] += 1
                event.update(
                    stage=run.get("stage"),
                    condition_number=float(condition),
                    condition_limit=self.condition_limit,
                )
        return list(events.items())

    # -- readiness ----------------------------------------------------------

    def status(self) -> str:
        """``"ok"`` / ``"nonconverging"`` / ``"illconditioned"`` over the window."""
        with self._lock:
            recent = list(self._recent)
        if len(recent) < self.min_runs:
            return "ok"
        nonconverged = sum(1 for run in recent if not run["converged"])
        if nonconverged / len(recent) >= self.nonconverge_threshold:
            return "nonconverging"
        conditions = [
            run["condition_number"]
            for run in recent
            if run["condition_number"] is not None
        ]
        if conditions and max(conditions) > self.condition_limit:
            return "illconditioned"
        return "ok"

    def summary(self) -> dict:
        """The ``/v1/statusz`` ``solver`` section."""
        with self._lock:
            recent = list(self._recent)
            totals = {
                "runs_total": self.runs_total,
                "nonconverged_total": self.nonconverged_total,
                "illconditioned_total": self.illconditioned_total,
            }
        nonconverged = sum(1 for run in recent if not run["converged"])
        conditions = [
            run["condition_number"]
            for run in recent
            if run["condition_number"] is not None
        ]
        return {
            "status": self.status(),
            **totals,
            "window": self.window,
            "recent_runs": len(recent),
            "recent_nonconverged": nonconverged,
            "recent_nonconverged_ratio": (
                nonconverged / len(recent) if recent else 0.0
            ),
            "recent_max_condition_number": max(conditions, default=None),
            "nonconverge_threshold": self.nonconverge_threshold,
            "condition_limit": self.condition_limit,
        }
