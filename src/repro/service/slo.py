"""Per-endpoint latency SLOs tracked as burn-rate counters.

Each endpoint gets an :class:`SloObjective` — a latency threshold and an
error budget (the fraction of requests allowed to miss it). The service
takes them from its route table (:data:`repro.service.server.ROUTES`). Every
observed request increments two counters in the shared
:class:`repro.obs.MetricsRegistry`:

* ``slo_requests_total{endpoint=...}`` — requests measured against the
  objective,
* ``slo_breaches_total{endpoint=...}`` — requests slower than the
  objective's threshold,

so the raw series ride the existing Prometheus exposition and any
alerting stack can build multi-window burn rates from them. The
service additionally publishes the point-in-time
``slo_burn_rate{endpoint=...}`` gauge at scrape time:

    burn_rate = (breaches / requests) / error_budget

``1.0`` means the endpoint is consuming its error budget exactly as
fast as allowed over the process lifetime; sustained values above 1
mean the SLO will be missed. ``/v1/statusz`` reports the same numbers
per endpoint for human/deep-readiness consumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..obs.registry import MetricsRegistry

__all__ = ["SloObjective", "SloTracker"]


@dataclass(frozen=True)
class SloObjective:
    """Latency target: ``threshold_seconds`` missed by at most ``error_budget``."""

    threshold_seconds: float
    error_budget: float = 0.05

    def __post_init__(self) -> None:
        if self.threshold_seconds <= 0:
            raise ValueError("SLO threshold must be positive")
        if not 0 < self.error_budget <= 1:
            raise ValueError("error budget must be in (0, 1]")


#: Applied to endpoints without an explicit objective (including "?").
FALLBACK_OBJECTIVE = SloObjective(1.0, 0.05)


class SloTracker:
    """Measure request latencies against per-endpoint objectives.

    Thread-safe: all mutable state lives in registry counters, which
    take one lock per update. The per-endpoint counter handles are
    cached so the hot path skips the registry's get-or-create lock.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        objectives: Mapping[str, SloObjective] | None = None,
    ) -> None:
        self.registry = registry
        self.objectives = dict(objectives or {})
        self._handles: dict[str, tuple] = {}

    def objective_for(self, endpoint: str) -> SloObjective:
        return self.objectives.get(endpoint, FALLBACK_OBJECTIVE)

    def _counters(self, endpoint: str) -> tuple:
        handles = self._handles.get(endpoint)
        if handles is None:
            labels = {"endpoint": endpoint}
            handles = (
                self.registry.counter(
                    "slo_requests_total", labels=labels,
                    help="Requests measured against the endpoint's latency SLO",
                ),
                self.registry.counter(
                    "slo_breaches_total", labels=labels,
                    help="Requests slower than the endpoint's SLO threshold",
                ),
            )
            self._handles[endpoint] = handles
        return handles

    def observe(self, endpoint: str, seconds: float) -> bool:
        """Record one request; True when it breached the objective."""
        requests, breaches = self._counters(endpoint)
        requests.inc()
        breached = seconds > self.objective_for(endpoint).threshold_seconds
        if breached:
            breaches.inc()
        return breached

    def burn_rate(self, endpoint: str) -> float:
        """Lifetime budget burn rate (1.0 = spending exactly the budget)."""
        requests, breaches = self._counters(endpoint)
        total = requests.value
        if total == 0:
            return 0.0
        miss_rate = breaches.value / total
        return miss_rate / self.objective_for(endpoint).error_budget

    def summary(self) -> dict:
        """Per-endpoint SLO status for ``/v1/statusz``."""
        endpoints = {}
        for endpoint in sorted(self._handles):
            requests, breaches = self._counters(endpoint)
            objective = self.objective_for(endpoint)
            endpoints[endpoint] = {
                "threshold_seconds": objective.threshold_seconds,
                "error_budget": objective.error_budget,
                "requests": int(requests.value),
                "breaches": int(breaches.value),
                "burn_rate": self.burn_rate(endpoint),
            }
        return {
            "endpoints": endpoints,
            "worst_burn_rate": max(
                (e["burn_rate"] for e in endpoints.values()), default=0.0
            ),
        }

    def publish_burn_rates(self) -> None:
        """Refresh ``slo_burn_rate{endpoint=...}`` gauges (scrape time)."""
        for endpoint in list(self._handles):
            self.registry.gauge(
                "slo_burn_rate", labels={"endpoint": endpoint},
                help="Lifetime SLO budget burn rate (1.0 = on budget)",
            ).set(self.burn_rate(endpoint))
