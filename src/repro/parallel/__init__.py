"""`repro.parallel`: stdlib-only isolation and fan-out helpers.

FDX discovery is one serial pipeline; this package serves the layers
around it:

* :mod:`~repro.parallel.worker` — :func:`run_in_process`, a supervised
  one-job-one-process runner with sentinel-relayed cancellation and an
  escalating SIGTERM/SIGKILL teardown; the backbone of the service's
  ``executor="process"`` mode and the catalog's ``--backend process``;
* :mod:`~repro.parallel.executor` — :class:`ThreadExecutor`, the
  order-preserving, cancellable thread ``map`` behind the catalog's
  per-table fan-out.

Both report through :mod:`repro.obs` (``parallel.map`` / ``worker.job``
spans, ``parallel_tasks_total`` / ``parallel_worker_seconds`` metrics)
and the typed failure modes live in :mod:`repro.errors`
(:class:`~repro.errors.WorkerCrashError`,
:class:`~repro.errors.TaskTimeoutError`,
:class:`~repro.errors.RemoteTaskError`). See ``docs/PARALLEL.md``.
"""

from .executor import ThreadExecutor, preferred_start_method
from .worker import run_in_process

__all__ = ["ThreadExecutor", "preferred_start_method", "run_in_process"]
