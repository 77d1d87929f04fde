"""One clock per discovery: every duration is read from ``stage_seconds``.

A discovery's :class:`repro.obs.StageClock` is its only timer. Its
stages cover the whole ``FDX.discover`` call (validation and the
evidence ledger included), and the result, a streaming refresh and the
service's ``fdx_discover_seconds`` all report the sum of its stages.
"""

import statistics
import time

import numpy as np

from repro.core.fdx import FDX
from repro.core.incremental import IncrementalFDX
from repro.datagen.synthetic import SyntheticSpec, generate
from repro.dataset.relation import Relation
from repro.obs.registry import MetricsRegistry
from repro.service import ServiceClient, start_in_thread
from repro.streaming import refresh_solve

BATCH_STAGES = {
    "validate", "transform", "covariance", "glasso", "factorization",
    "fd_generation", "evidence",
}


def fd_relation(n=600, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        a = int(rng.integers(15))
        rows.append((a, a % 5, int(rng.integers(6))))
    return Relation.from_rows(["a", "b", "c"], rows)


def staged_share(fdx: FDX, relation: Relation, runs: int = 3) -> float:
    """Median over ``runs`` of Σ stage_seconds / the wall time measured
    here around ``discover``."""
    shares = []
    for _ in range(runs):
        t0 = time.perf_counter()
        result = fdx.discover(relation)
        wall = time.perf_counter() - t0
        shares.append(result.total_seconds / wall)
    return statistics.median(shares)


# -- coverage ----------------------------------------------------------------

def test_stages_cover_the_discovery_wall_at_figure6_width():
    """The paper's widest Figure-6 shape (1000 x 68, λ 0.02): validation,
    the transform, the model and the evidence ledger are all staged."""
    relation = generate(SyntheticSpec(
        n_tuples=1000, n_attributes=68, domain_low=64, domain_high=216,
        noise_rate=0.01, seed=1000,
    )).relation
    assert staged_share(FDX(lam=0.02), relation) >= 0.95


# -- stage keys --------------------------------------------------------------

def test_batch_stage_keys_are_the_whole_pipeline():
    result = FDX().discover(fd_relation())
    assert set(result.diagnostics["stage_seconds"]) == BATCH_STAGES
    unledgered = FDX(evidence=False).discover(fd_relation())
    assert set(unledgered.diagnostics["stage_seconds"]) == BATCH_STAGES - {"evidence"}


def test_streaming_stage_keys_start_at_the_accumulated_covariance():
    inc = IncrementalFDX()
    inc.add_batch(fd_relation())
    assert set(inc.discover().diagnostics["stage_seconds"]) == {
        "covariance", "glasso", "factorization", "fd_generation", "evidence"
    }


# -- readers of the clock ----------------------------------------------------

def test_refresh_seconds_are_the_solve_stages():
    inc = IncrementalFDX()
    inc.add_batch(fd_relation())
    registry = MetricsRegistry()
    outcome = refresh_solve(inc.snapshot(), metrics=registry)
    assert outcome.seconds == outcome.result.total_seconds > 0
    observed = registry.snapshot()["histograms"]["session_refresh_seconds"]
    assert observed["count"] == 1
    assert observed["sum"] == outcome.seconds


def test_service_discover_seconds_are_the_reply_stages():
    with start_in_thread(workers=1, job_timeout=60.0) as handle:
        client = ServiceClient(handle.base_url, timeout=60.0)
        client.wait_until_healthy()
        result = client.discover(fd_relation(seed=7))
        observed = handle.service.registry.histogram("fdx_discover_seconds").snapshot()
    assert observed["count"] == 1
    assert observed["sum"] == sum(result.diagnostics["stage_seconds"].values())
