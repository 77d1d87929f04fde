"""Tests for repro.service.journal (append/replay/compact, torn tails).

The property-style interleaving test is the durability contract: any
valid sequence of job transitions, journaled as it happens and replayed
on a fresh process, must reconstruct exactly the job table the live
manager held — including when the final record is torn mid-write.
"""

import json
import os
import random

import pytest

from repro.service.journal import TERMINAL_EVENTS, JobJournal


@pytest.fixture
def journal(tmp_path):
    j = JobJournal(tmp_path)
    yield j
    j.close()


def test_append_and_replay_round_trip(journal, tmp_path):
    journal.append("submitted", "j-1", kind="discover", attempt=1, key="k1",
                   timeout=30.0, payload={"relation": {"rows": [[1]]}})
    journal.append("started", "j-1")
    journal.append("completed", "j-1")
    journal.sync()

    result = JobJournal(tmp_path).replay()
    assert result.records_total == 3
    assert result.records_skipped == 0
    assert not result.torn_tail
    rec = result.jobs["j-1"]
    assert rec["event"] == "completed"
    assert rec["kind"] == "discover"
    assert rec["attempt"] == 1
    assert rec["key"] == "k1"
    assert "submitted_ts" in rec and "terminal_ts" in rec
    assert result.interrupted == []


def test_in_flight_jobs_are_reported_interrupted(journal, tmp_path):
    journal.append("submitted", "j-queued", kind="discover", attempt=1)
    journal.append("submitted", "j-running", kind="discover", attempt=1)
    journal.append("started", "j-running")
    journal.append("submitted", "j-done", kind="discover", attempt=1)
    journal.append("started", "j-done")
    journal.append("completed", "j-done")
    journal.sync()

    result = JobJournal(tmp_path).replay()
    assert sorted(result.interrupted) == ["j-queued", "j-running"]
    assert result.jobs["j-done"]["event"] == "completed"


def test_failed_record_carries_error_and_crash_flag(journal, tmp_path):
    journal.append("submitted", "j-1", kind="discover", attempt=1)
    journal.append("started", "j-1")
    journal.append("failed", "j-1", error="ValueError: bad", crash=False)
    journal.sync()
    rec = JobJournal(tmp_path).replay().jobs["j-1"]
    assert rec["error"] == "ValueError: bad"


def test_quarantined_record_updates_key_index(journal, tmp_path):
    journal.append("submitted", "j-1", kind="discover", attempt=2, key="poison")
    journal.append("started", "j-1")
    journal.append("quarantined", "j-1", error="worker died", attempts=2,
                   key="poison")
    journal.sync()
    result = JobJournal(tmp_path).replay()
    assert result.quarantined_keys == {"poison": 2}
    assert result.jobs["j-1"]["event"] == "quarantined"
    assert result.attempts["poison"] == 2


def test_attempt_index_tracks_max_per_key(journal, tmp_path):
    journal.append("submitted", "j-1", kind="discover", attempt=1, key="k")
    journal.append("failed", "j-1", error="boom", crash=True)
    journal.append("submitted", "j-2", kind="discover", attempt=2, key="k")
    journal.sync()
    result = JobJournal(tmp_path).replay()
    assert result.attempts == {"k": 2}


def test_torn_final_record_is_tolerated(journal, tmp_path):
    journal.append("submitted", "j-1", kind="discover", attempt=1)
    journal.append("completed", "j-1")
    journal.append("submitted", "j-2", kind="discover", attempt=1)
    journal.sync()
    journal.close()

    # Simulate a crash mid-append: the last record is half-written.
    path = tmp_path / "jobs.jsonl"
    raw = path.read_bytes()
    path.write_bytes(raw[:-20])

    result = JobJournal(tmp_path).replay()
    assert result.torn_tail
    assert result.jobs["j-1"]["event"] == "completed"
    # j-2's submit record was the torn one; it is simply absent.
    assert result.records_skipped == 0


def test_garbage_interior_line_is_counted_not_fatal(journal, tmp_path):
    journal.append("submitted", "j-1", kind="discover", attempt=1)
    journal.sync()
    with open(tmp_path / "jobs.jsonl", "a", encoding="utf-8") as fh:
        fh.write("{not json}\n")
    journal.append("completed", "j-1")
    journal.sync()

    result = JobJournal(tmp_path).replay()
    assert result.records_skipped == 1
    assert not result.torn_tail
    assert result.jobs["j-1"]["event"] == "completed"


def test_compact_collapses_to_one_record_per_job(journal, tmp_path):
    for i in range(5):
        journal.append("submitted", f"j-{i}", kind="discover", attempt=1,
                       payload={"relation": {"rows": [[i]]}})
        journal.append("started", f"j-{i}")
        journal.append("completed", f"j-{i}")
    journal.append("submitted", "j-live", kind="discover", attempt=1,
                   payload={"relation": {"rows": [[9]]}})
    journal.sync()
    journal.close()

    reader = JobJournal(tmp_path)
    result = reader.replay()
    reader.compact(result)
    reader.close()

    lines = [json.loads(l) for l in
             (tmp_path / "jobs.jsonl").read_text().splitlines()]
    assert len(lines) == 6  # one per job
    by_id = {l["job_id"]: l for l in lines}
    # Terminal jobs shed their payload on compaction; live ones keep it
    # so a later --recover resubmit still has the request body.
    assert "payload" not in by_id["j-0"]
    assert by_id["j-live"]["payload"] == {"relation": {"rows": [[9]]}}

    # The compacted journal replays to the same table.
    again = JobJournal(tmp_path).replay()
    assert set(again.jobs) == set(result.jobs)
    assert again.jobs["j-0"]["event"] == "completed"
    assert "j-live" in again.interrupted


def test_fsync_policy_validation(tmp_path):
    with pytest.raises(ValueError):
        JobJournal(tmp_path, fsync_policy="sometimes")


def test_stats_reports_appends_and_size(journal):
    journal.append("submitted", "j-1", kind="discover", attempt=1)
    journal.sync()
    stats = journal.stats()
    assert stats["appends_total"] == 1
    assert stats["size_bytes"] > 0
    assert stats["fsync_policy"] == "batch"


# -- property-style: random interleavings reconstruct the live table ---------

_TERMINALS = ("completed", "failed", "cancelled", "quarantined")


def _random_history(rng, job_count):
    """Generate a valid interleaving of per-job transition sequences."""
    per_job = []
    for i in range(job_count):
        job_id = f"j-{i}"
        key = f"k-{rng.randrange(max(1, job_count // 2))}"
        seq = [("submitted", job_id,
                {"kind": "discover", "attempt": rng.randrange(1, 4), "key": key})]
        fate = rng.random()
        if fate < 0.15:
            pass  # stays queued (in-flight at crash)
        elif fate < 0.30:
            seq.append(("started", job_id, {}))  # running at crash
        else:
            if rng.random() < 0.8:
                seq.append(("started", job_id, {}))
            terminal = rng.choice(_TERMINALS)
            fields = {}
            if terminal == "failed":
                fields = {"error": "boom", "crash": bool(rng.getrandbits(1))}
            elif terminal == "quarantined":
                fields = {"error": "worker died", "attempts": 2, "key": key}
            seq.append((terminal, job_id, fields))
        per_job.append(seq)
    # Interleave: repeatedly pop the head of a random non-empty sequence.
    history = []
    live = [s for s in per_job if s]
    while live:
        seq = rng.choice(live)
        history.append(seq.pop(0))
        live = [s for s in per_job if s]
    return history


def _expected_table(history):
    """Reference replay: last event wins, submit fields stick."""
    jobs = {}
    for event, job_id, fields in history:
        rec = jobs.setdefault(job_id, {})
        rec["event"] = event
        for k, v in fields.items():
            if k != "crash":
                rec[k] = v
    return jobs


@pytest.mark.parametrize("seed", range(8))
def test_random_interleavings_replay_exactly(tmp_path, seed):
    rng = random.Random(seed)
    job_count = rng.randrange(3, 12)
    history = _random_history(rng, job_count)

    d = tmp_path / f"run-{seed}"
    d.mkdir()
    journal = JobJournal(d, fsync_policy="never")
    for event, job_id, fields in history:
        journal.append(event, job_id, **fields)
    journal.sync()
    journal.close()

    tear = rng.random() < 0.5
    if tear:
        path = d / "jobs.jsonl"
        raw = path.read_bytes()
        cut = rng.randrange(1, min(30, len(raw) - 1))
        path.write_bytes(raw[:-cut])

    result = JobJournal(d).replay()
    expected = _expected_table(history if not tear else history[:-1])
    if tear:
        # The torn record may or may not decode; replay must flag the
        # tear (or have lost it cleanly) and never raise.
        assert result.torn_tail or result.records_total == len(history)
        if result.records_total == len(history):
            expected = _expected_table(history)

    assert set(result.jobs) == set(expected)
    for job_id, want in expected.items():
        got = result.jobs[job_id]
        assert got["event"] == want["event"], job_id
        for field in ("kind", "attempt", "key", "error"):
            if field in want:
                assert got[field] == want[field], (job_id, field)
    want_interrupted = sorted(
        j for j, rec in expected.items() if rec["event"] not in TERMINAL_EVENTS
    )
    assert sorted(result.interrupted) == want_interrupted
    want_quarantined = {
        rec["key"]: rec["attempts"]
        for rec in expected.values() if rec["event"] == "quarantined"
    }
    assert result.quarantined_keys == want_quarantined
