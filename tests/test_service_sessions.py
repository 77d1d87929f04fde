"""Tests for repro.service.sessions (streaming sessions over IncrementalFDX)."""

import numpy as np
import pytest

from repro.core.fd import FD
from repro.core.incremental import IncrementalFDX
from repro.dataset.relation import Relation
from repro.service.protocol import Hyperparameters, ProtocolError
from repro.service.sessions import SessionError, SessionManager


def fd_relation(n=600, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        a = int(rng.integers(15))
        rows.append((a, a % 5, int(rng.integers(6))))
    return Relation.from_rows(["a", "b", "c"], rows)


@pytest.fixture
def manager():
    return SessionManager(max_sessions=4, ttl_seconds=60.0)


def test_create_and_info(manager):
    session = manager.create(Hyperparameters(decay=0.9))
    info = session.to_dict()
    assert info["session_id"].startswith("sess-")
    assert info["hyperparameters"]["decay"] == 0.9
    assert info["n_rows_seen"] == 0
    assert len(manager) == 1


def test_unknown_session_404(manager):
    with pytest.raises(SessionError) as excinfo:
        manager.get("sess-nope")
    assert excinfo.value.status == 404


def test_append_and_discover_matches_incremental(manager):
    rel = fd_relation(750)
    session = manager.create()
    reference = IncrementalFDX()
    for start in range(0, 750, 150):
        batch = rel.select_rows(np.arange(start, start + 150))
        manager.append_batch(session.id, batch)
        reference.add_batch(batch)
    outcome = manager.discover(session.id)
    assert outcome.solved is True
    via_service = outcome.result
    assert set(via_service.fds) == set(reference.discover().fds)
    assert FD(["a"], "b") in set(via_service.fds)
    assert session.to_dict()["n_batches"] == reference.n_batches


def test_schema_mismatch_maps_to_409(manager):
    session = manager.create()
    manager.append_batch(session.id, fd_relation(100))
    other = Relation.from_rows(["x", "y"], [(1, 2)] * 100)
    with pytest.raises(ProtocolError) as excinfo:
        manager.append_batch(session.id, other)
    assert excinfo.value.status == 409


def test_discover_before_data_maps_to_409(manager):
    session = manager.create()
    with pytest.raises(ProtocolError) as excinfo:
        manager.discover(session.id)
    assert excinfo.value.status == 409


def test_reset_clears_statistics(manager):
    session = manager.create()
    manager.append_batch(session.id, fd_relation(200))
    info = manager.reset(session.id)
    assert info["n_rows_seen"] == 0 and info["n_appends"] == 0
    with pytest.raises(ProtocolError):
        manager.discover(session.id)
    # Accepts a fresh (even different-schema) stream after reset.
    manager.append_batch(session.id, Relation.from_rows(["x", "y"], [(i % 4, i % 2) for i in range(100)]))


def test_close_session(manager):
    session = manager.create()
    assert manager.close(session.id) is True
    assert manager.close(session.id) is False
    with pytest.raises(SessionError):
        manager.get(session.id)


def test_capacity_limit_maps_to_429(manager):
    for _ in range(4):
        manager.create()
    with pytest.raises(SessionError) as excinfo:
        manager.create()
    assert excinfo.value.status == 429


def test_idle_sessions_expire(monkeypatch):
    import repro.service.sessions as sessions_mod

    now = [0.0]
    monkeypatch.setattr(sessions_mod.time, "monotonic", lambda: now[0])
    manager = SessionManager(max_sessions=4, ttl_seconds=10.0)
    session = manager.create()
    now[0] = 5.0
    manager.get(session.id)  # touch refreshes the idle clock
    now[0] = 14.0
    assert manager.get(session.id) is session
    now[0] = 30.0
    with pytest.raises(SessionError):
        manager.get(session.id)
    assert manager.stats()["expired"] == 1


def test_stats_sweeps_without_request_traffic(monkeypatch):
    """Idle expiry must not depend on get() traffic: stats()/len() sweep."""
    import repro.service.sessions as sessions_mod

    now = [0.0]
    monkeypatch.setattr(sessions_mod.time, "monotonic", lambda: now[0])
    manager = SessionManager(max_sessions=4, ttl_seconds=10.0)
    manager.create()
    manager.create()
    now[0] = 30.0
    stats = manager.stats()  # nothing but a monitoring probe
    assert stats["active"] == 0
    assert stats["expired"] == 2


def test_len_sweeps_idle_sessions(monkeypatch):
    import repro.service.sessions as sessions_mod

    now = [0.0]
    monkeypatch.setattr(sessions_mod.time, "monotonic", lambda: now[0])
    manager = SessionManager(max_sessions=4, ttl_seconds=10.0)
    manager.create()
    assert len(manager) == 1
    now[0] = 30.0
    assert len(manager) == 0


def test_expiry_emits_sessions_expired_metric(monkeypatch):
    import repro.service.sessions as sessions_mod
    from repro.obs.registry import MetricsRegistry

    now = [0.0]
    monkeypatch.setattr(sessions_mod.time, "monotonic", lambda: now[0])
    registry = MetricsRegistry()
    manager = SessionManager(max_sessions=4, ttl_seconds=10.0, registry=registry)
    manager.create()
    now[0] = 30.0
    manager.stats()
    assert registry.counter("sessions_expired").value == 1


def test_capacity_frees_expired_slots(monkeypatch):
    """An expired session's slot is reusable without any get() in between."""
    import repro.service.sessions as sessions_mod

    now = [0.0]
    monkeypatch.setattr(sessions_mod.time, "monotonic", lambda: now[0])
    manager = SessionManager(max_sessions=2, ttl_seconds=10.0)
    manager.create()
    manager.create()
    now[0] = 30.0
    manager.create()  # would raise 429 if the sweep had not run
    assert manager.stats()["active"] == 1
