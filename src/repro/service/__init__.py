"""`repro.service`: a concurrent FD-discovery server (extension).

The in-process :class:`repro.FDX` API pays the full transform +
graphical-lasso cost on every call. This subsystem turns the
reproduction into a long-lived service that amortizes that work:

* :mod:`~repro.service.protocol` — versioned JSON wire schemas,
* :mod:`~repro.service.jobs` — bounded worker pool with job lifecycle,
  per-job timeouts, cooperative cancellation and queue admission
  control (load shedding -> HTTP 429 + ``Retry-After``),
* :mod:`~repro.service.cache` — fingerprinted LRU/TTL result cache,
* :mod:`~repro.service.sessions` — streaming sessions over
  :class:`repro.core.IncrementalFDX`,
* :mod:`~repro.service.slo` — per-endpoint latency objectives with
  burn-rate counters, feeding ``GET /v1/statusz`` deep readiness,
* :mod:`~repro.service.server` — the stdlib ``http.server`` front end
  (``python -m repro serve``): one route table (method, path, endpoint
  label, SLO, service method), per-request ``X-Trace-Id`` correlation
  and structured JSONL request logging,
* :mod:`~repro.service.client` — a blocking Python client.

Everything is standard library + the repro core: no web framework.
Tracing/metrics plumbing lives in :mod:`repro.obs`; every service counter
and latency histogram lives in the service's
:class:`repro.obs.MetricsRegistry`, which both forms of ``/v1/metrics``
render.
"""

from ..resilience.retry import RetryPolicy
from .cache import ResultCache, dataset_fingerprint
from .client import ServiceClient, ServiceError, ServiceUnavailableError
from .jobs import Job, JobManager, QueueFullError
from .protocol import (
    PROTOCOL_VERSION,
    Hyperparameters,
    ProtocolError,
    relation_from_wire,
    relation_to_wire,
)
from .server import DiscoveryService, ServiceHandle, serve, start_in_thread
from .sessions import Session, SessionManager
from .slo import SloObjective, SloTracker

__all__ = [
    "PROTOCOL_VERSION",
    "DiscoveryService",
    "Hyperparameters",
    "Job",
    "JobManager",
    "ProtocolError",
    "QueueFullError",
    "ResultCache",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "ServiceHandle",
    "ServiceUnavailableError",
    "Session",
    "SessionManager",
    "SloObjective",
    "SloTracker",
    "dataset_fingerprint",
    "relation_from_wire",
    "relation_to_wire",
    "serve",
    "start_in_thread",
]
