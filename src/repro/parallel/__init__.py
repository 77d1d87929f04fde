"""`repro.parallel`: stdlib-only process isolation.

FDX discovery is one serial pipeline; this package serves the layers
around it. :func:`~repro.parallel.worker.run_in_process` is a supervised
one-job-one-process runner with sentinel-relayed cancellation and an
escalating SIGTERM/SIGKILL teardown; it is the backbone of the service's
``executor="process"`` mode and of catalog sweeps with ``--workers``
above 1, whose stdlib thread pool only supervises the children.

It reports through :mod:`repro.obs` (``worker.job`` spans,
``parallel_tasks_total`` / ``parallel_worker_seconds`` metrics) and the
typed failure modes live in :mod:`repro.errors`
(:class:`~repro.errors.WorkerCrashError`,
:class:`~repro.errors.TaskTimeoutError`,
:class:`~repro.errors.RemoteTaskError`). See ``docs/PARALLEL.md``.
"""

from .worker import preferred_start_method, run_in_process

__all__ = ["preferred_start_method", "run_in_process"]
