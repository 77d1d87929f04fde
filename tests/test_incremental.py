"""Tests for repro.core.incremental (streaming FDX)."""

import numpy as np
import pytest

from repro.core.fd import FD
from repro.core.fdx import FDX
from repro.core.incremental import IncrementalFDX
from repro.datagen.synthetic import SyntheticSpec, generate
from repro.dataset.relation import Relation
from repro.linalg.covariance import correlation_from_covariance, shrunk_covariance
from repro.linalg.model_selection import select_lambda_ebic
from repro.metrics.evaluation import score_fds


def fd_relation(n=600, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        a = int(rng.integers(15))
        rows.append((a, a % 5, int(rng.integers(6))))
    return Relation.from_rows(["a", "b", "c"], rows)


def test_one_batch_equals_batch_fdx():
    """One batch below the covariance chunk size gives the batch model bit
    for bit: both solve from the same second moment, and the streaming
    result is assembled by the batch result path."""
    rel = fd_relation()
    batch = FDX().discover(rel)
    inc = IncrementalFDX()
    inc.add_batch(rel)
    streamed = inc.discover()
    assert np.array_equal(streamed.precision, batch.precision)
    assert np.array_equal(streamed.autoregression, batch.autoregression)
    assert streamed.fds == batch.fds
    assert set(streamed.diagnostics["stage_seconds"]) == {
        "covariance", "glasso", "factorization", "fd_generation", "evidence"
    }


def stream(lam, n_batches=12, rows=250):
    relation = generate(SyntheticSpec(n_tuples=n_batches * rows, n_attributes=16, seed=1)).relation
    inc = IncrementalFDX(lam=lam)
    for k in range(n_batches):
        inc.add_batch(relation.select_rows(np.arange(k * rows, (k + 1) * rows)))
    return inc


def test_streaming_ebic_scores_with_the_accumulated_sample_count():
    """eBIC on a stream uses the accumulated pair-sample count, so it
    picks the penalty batch selection would on the same covariance."""
    inc = stream("ebic")
    stats = inc.snapshot()
    result = inc.discover()
    S = shrunk_covariance(correlation_from_covariance(stats.covariance()), 0.01)
    expected = select_lambda_ebic(S, n_samples=stats.n_samples).best_lambda
    selected = result.diagnostics["solver_health"]["lambda"]["selected"]
    assert selected == expected == 0.02
    assert len(result.fds) == 7
    assert set(result.fds) == set(stream(0.02).discover().fds)


def test_incremental_matches_batch_fds():
    rel = fd_relation(800)
    inc = IncrementalFDX()
    third = rel.n_rows // 3
    for start in range(0, rel.n_rows, third):
        idx = np.arange(start, min(start + third, rel.n_rows))
        if len(idx):
            inc.add_batch(rel.select_rows(idx))
    incremental_fds = set(inc.discover().fds)
    assert FD(["a"], "b") in incremental_fds


def test_incremental_accuracy_comparable_to_batch():
    rel = fd_relation(900, seed=2)
    truth = [FD(["a"], "b")]
    batch_f1 = score_fds(FDX().discover(rel).fds, truth).f1
    inc = IncrementalFDX()
    for start in range(0, 900, 300):
        inc.add_batch(rel.select_rows(np.arange(start, start + 300)))
    inc_f1 = score_fds(inc.discover().fds, truth).f1
    assert inc_f1 >= batch_f1 - 0.25


def test_small_batches_are_buffered():
    rel = fd_relation(200)
    inc = IncrementalFDX(min_batch_rows=100)
    inc.add_batch(rel.select_rows(np.arange(0, 30)))
    assert inc.n_batches == 0
    assert inc.n_rows_seen == 30
    inc.add_batch(rel.select_rows(np.arange(30, 150)))
    assert inc.n_batches == 1
    assert inc.n_rows_seen == 150


def test_discover_flushes_pending_buffer():
    rel = fd_relation(80)
    inc = IncrementalFDX(min_batch_rows=1000)
    inc.add_batch(rel)
    result = inc.discover()  # forced flush of the pending buffer
    assert result.n_pair_samples > 0


def test_schema_mismatch_rejected():
    inc = IncrementalFDX()
    inc.add_batch(fd_relation(100))
    other = Relation.from_rows(["x", "y"], [(1, 2)] * 100)
    with pytest.raises(ValueError, match="schema"):
        inc.add_batch(other)


def test_discover_without_data_raises():
    with pytest.raises(RuntimeError):
        IncrementalFDX().discover()
    with pytest.raises(RuntimeError):
        IncrementalFDX().covariance()


def test_reset_clears_state():
    inc = IncrementalFDX()
    inc.add_batch(fd_relation(100))
    inc.reset()
    assert inc.n_rows_seen == 0
    with pytest.raises(RuntimeError):
        inc.discover()


def test_diagnostics_mark_incremental():
    inc = IncrementalFDX()
    inc.add_batch(fd_relation(200))
    result = inc.discover()
    assert result.diagnostics["incremental"] is True
    assert result.diagnostics["n_batches"] == 1


def test_decay_forgets_broken_dependency():
    """After drift, a decayed stream drops the stale FD; an undecayed one
    keeps it much longer."""
    def make(n, seed, broken):
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(n):
            a = int(rng.integers(8))
            b = a % 4 if not broken else int(rng.integers(4))
            rows.append((a, b))
        return Relation.from_rows(["a", "b"], rows)

    decayed = IncrementalFDX(decay=0.5)
    flat = IncrementalFDX(decay=1.0)
    for day in range(3):
        for inc in (decayed, flat):
            inc.add_batch(make(300, day, broken=False))
    for day in range(3, 10):
        for inc in (decayed, flat):
            inc.add_batch(make(300, day, broken=True))
    assert FD(["a"], "b") not in decayed.discover().fds


def test_decay_validation():
    with pytest.raises(ValueError):
        IncrementalFDX(decay=0.0)
    with pytest.raises(ValueError):
        IncrementalFDX(decay=1.5)


def test_empty_batch_is_a_noop():
    inc = IncrementalFDX()
    empty = fd_relation(100).select_rows(np.arange(0))
    inc.add_batch(empty)
    assert inc.n_rows_seen == 0
    # An empty first batch must not pin the schema either.
    inc.add_batch(Relation.from_rows(["x", "y"], [(i % 4, i % 2) for i in range(100)]))
    assert inc.n_rows_seen == 100


def test_empty_batch_between_real_batches():
    inc = IncrementalFDX()
    inc.add_batch(fd_relation(100))
    before = inc.n_pair_samples
    inc.add_batch(fd_relation(100).select_rows(np.arange(0)))
    assert inc.n_pair_samples == before
    inc.add_batch(fd_relation(100, seed=1))
    assert inc.n_rows_seen == 200


def test_unseen_schema_raises_cleanly_and_keeps_state():
    inc = IncrementalFDX()
    inc.add_batch(fd_relation(200))
    with pytest.raises(ValueError, match="schema"):
        inc.add_batch(Relation.from_rows(["a", "b"], [(1, 2)] * 100))
    # The failed append must not have corrupted the accumulated state.
    assert inc.n_rows_seen == 200
    assert FD(["a"], "b") in set(inc.discover().fds)


def test_reset_after_discover_allows_fresh_stream():
    inc = IncrementalFDX()
    inc.add_batch(fd_relation(300))
    first = inc.discover()
    assert FD(["a"], "b") in set(first.fds)
    inc.reset()
    assert inc.n_rows_seen == 0 and inc.n_batches == 0
    # A fresh stream with a different schema is accepted after reset.
    rows = [(i % 6, (i % 6) % 3) for i in range(300)]
    inc.add_batch(Relation.from_rows(["x", "y"], rows))
    second = inc.discover()
    assert second.diagnostics["n_batches"] == 1
    assert all(fd.rhs in ("x", "y") for fd in second.fds)


def test_pair_sample_count_accumulates():
    inc = IncrementalFDX()
    inc.add_batch(fd_relation(100, seed=1))
    first = inc.n_pair_samples
    inc.add_batch(fd_relation(100, seed=2))
    assert inc.n_pair_samples == 2 * first


def test_decay_one_single_batch_matches_batch_fdx():
    """decay=1.0 with one batch is *exactly* the batch estimator: the
    first batch's pairing RNG matches FDX's, so the FD sets coincide."""
    rel = fd_relation(600)
    batch_fds = set(FDX().discover(rel).fds)
    inc = IncrementalFDX(decay=1.0)
    inc.add_batch(rel)
    assert set(inc.discover().fds) == batch_fds


def test_decay_one_accumulates_additively():
    """With decay=1.0 the accumulated second moment is the plain sum of
    the per-batch contributions (nothing is forgotten)."""
    inc = IncrementalFDX(decay=1.0)
    u1 = inc.add_batch(fd_relation(200, seed=1))
    u2 = inc.add_batch(fd_relation(200, seed=2))
    total = u1.n_samples + u2.n_samples
    assert inc.n_pair_samples == total
    expected = (u1.outer + u2.outer) / total
    assert np.allclose(inc.covariance(), expected)


def test_snapshot_is_immutable_copy():
    inc = IncrementalFDX()
    inc.add_batch(fd_relation(200))
    stats = inc.snapshot()
    before = stats.covariance().copy()
    inc.add_batch(fd_relation(200, seed=1))
    assert np.allclose(stats.covariance(), before)  # unaffected by appends
    assert stats.n_rows_seen == 200


def test_snapshot_flushes_pending_buffer():
    inc = IncrementalFDX(min_batch_rows=1000)
    inc.add_batch(fd_relation(80))
    stats = inc.snapshot(flush=True)
    assert stats.n_rows_seen == 80
    assert stats.n_samples > 0


def test_state_dict_round_trip():
    inc = IncrementalFDX(min_batch_rows=100)
    inc.add_batch(fd_relation(250))
    inc.add_batch(fd_relation(30, seed=1))  # stays pending
    state = inc.state_dict()

    revived = IncrementalFDX(min_batch_rows=100)
    revived.load_state(state)
    assert revived.n_rows_seen == inc.n_rows_seen
    assert revived.n_batches == inc.n_batches
    assert np.allclose(revived.covariance(), inc.covariance())
    assert set(revived.discover().fds) == set(inc.discover().fds)


def test_warm_start_discover_matches_cold():
    inc = IncrementalFDX()
    inc.add_batch(fd_relation(400))
    cold = inc.discover()
    warm = inc.discover(warm_start=cold.precision)
    assert warm.diagnostics["warm_start"] is True
    assert cold.diagnostics["warm_start"] is False
    assert set(warm.fds) == set(cold.fds)
