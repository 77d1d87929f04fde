"""Tests for the benchmark regression ledger and detector."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import bench


def _run(name_to_seconds, **extra):
    return {
        "results": {
            name: {"seconds": seconds, "repeats": 3}
            for name, seconds in name_to_seconds.items()
        },
        **extra,
    }


# -- detector ----------------------------------------------------------------

def test_detector_flags_2x_slowdown():
    history = [_run({"glasso": s}) for s in (0.100, 0.103, 0.098, 0.101)]
    regressions = bench.detect_regressions(history, _run({"glasso": 0.200}))
    assert len(regressions) == 1
    regression = regressions[0]
    assert regression.name == "glasso"
    assert regression.seconds == pytest.approx(0.200)
    assert "glasso" in regression.describe()


def test_detector_passes_on_recorded_trajectory():
    timings = [0.100, 0.103, 0.098, 0.101, 0.099]
    history = [_run({"glasso": s}) for s in timings]
    for timing in timings:
        assert bench.detect_regressions(history, _run({"glasso": timing})) == []


def test_detector_rel_floor_absorbs_jitter_when_mad_is_zero():
    # Identical history -> MAD 0; only the relative floor guards.
    history = [_run({"udu": 0.010})] * 5
    assert bench.detect_regressions(history, _run({"udu": 0.012})) == []
    assert bench.detect_regressions(history, _run({"udu": 0.0131})) != []


def test_detector_mad_term_tolerates_noisy_history():
    # Noisy trajectory: the MAD widens the gate beyond the 30% floor.
    history = [_run({"t": s}) for s in (0.10, 0.16, 0.09, 0.15, 0.11)]
    assert bench.detect_regressions(history, _run({"t": 0.16})) == []


def test_detector_robust_to_single_historical_outlier():
    # One crazy historical run must not widen the gate (median + MAD).
    history = [_run({"t": s}) for s in (0.10, 0.10, 0.10, 0.10, 5.0)]
    assert bench.detect_regressions(history, _run({"t": 0.21})) != []


def test_detector_skips_thin_history_and_new_benchmarks():
    history = [_run({"old": 0.1})]
    run = _run({"old": 10.0, "brand_new": 1.0})
    assert bench.detect_regressions(history, run, min_history=2) == []


# -- ledger ------------------------------------------------------------------

def test_ledger_append_and_load(tmp_path):
    path = bench.ledger_path("micro", str(tmp_path))
    assert bench.load_ledger(path) == {"suite": None, "runs": []}
    bench.append_run(path, "micro", _run({"a": 0.1}))
    document = bench.append_run(path, "micro", _run({"a": 0.2}))
    assert document["suite"] == "micro"
    assert [r["results"]["a"]["seconds"] for r in document["runs"]] == [0.1, 0.2]
    # The file is plain, pretty-printed JSON (diff-friendly in git).
    assert json.loads((tmp_path / "BENCH_micro.json").read_text()) == document


def test_ledger_rejects_non_ledger_file(tmp_path):
    path = tmp_path / "BENCH_bad.json"
    path.write_text("[]")
    with pytest.raises(ValueError):
        bench.load_ledger(str(path))


def test_env_fingerprint_and_rss():
    env = bench.env_fingerprint()
    assert set(env) >= {"python", "numpy", "platform", "cpu_count"}
    assert bench.peak_rss_bytes() > 0


# -- runner + CLI ------------------------------------------------------------

def test_run_suite_smoke_records_all_cases():
    record = bench.run_suite("micro", repeat=1, smoke=True)
    assert set(record["results"]) == {"flight_record"}
    assert all(r["seconds"] > 0 for r in record["results"].values())
    assert record["smoke"] is True
    assert record["peak_rss_bytes"] > 0
    with pytest.raises(ValueError):
        bench.run_suite("nope")


_FIXTURE_SCRIPT = """
from repro.obs import bench
path = bench._catalog_fixture(2, 50)
assert bench._catalog_fixture(2, 50) == path  # memoised within the process
print(path)
"""


def test_catalog_fixture_is_removed_when_its_process_exits():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [sys.executable, "-c", _FIXTURE_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    path = Path(completed.stdout.strip())
    assert path.name == "catalog_2x50.sqlite"
    assert path.parent.name.startswith("repro-bench-catalog-")
    assert not path.parent.exists()


def test_discovery_cases_record_every_stage():
    """A case returning an FDXResult records each stage_seconds key as
    ``<case>.<stage>``, so the regression gate applies per stage."""
    record = bench.run_suite("scalability", repeat=1, smoke=True)
    stages = (
        "validate", "transform", "covariance", "glasso", "factorization",
        "fd_generation", "evidence",
    )
    for case in ("discover_p05", "discover_p10", "discover_p20"):
        assert case in record["results"]
        for stage in stages:
            assert record["results"][f"{case}.{stage}"]["seconds"] >= 0


def test_cli_bench_writes_ledger_and_gates(tmp_path):
    out = str(tmp_path)
    assert main(["bench", "--smoke", "--out", out]) == 0
    path = tmp_path / "BENCH_micro.json"
    assert path.exists()
    document = json.loads(path.read_text())
    assert len(document["runs"]) == 1

    # Inject a synthetic 2x slowdown into the trajectory twice (the
    # detector needs min_history), then verify the next honest run
    # passes while a doubled run fails with a non-zero exit.
    honest = document["runs"][0]
    for _ in range(2):
        bench.append_run(str(path), "micro", honest)
    doubled = json.loads(json.dumps(honest))
    for result in doubled["results"].values():
        result["seconds"] *= 2.0
    regressions = bench.detect_regressions(
        json.loads(path.read_text())["runs"], doubled
    )
    assert len(regressions) == len(honest["results"])

    assert main(["bench", "--smoke", "--out", out, "--no-record"]) in (0, 1)
    assert len(json.loads(path.read_text())["runs"]) == 3  # --no-record held


def test_cli_bench_exits_nonzero_on_injected_slowdown(tmp_path, monkeypatch):
    out = str(tmp_path)
    scale = {"factor": 1.0}

    def fake_run_suite(suite, repeat=3, smoke=False):
        return _run(
            {"glasso": 0.100 * scale["factor"], "udu": 0.050 * scale["factor"]},
            smoke=smoke,
        )

    monkeypatch.setattr(bench, "run_suite", fake_run_suite)
    # Record an honest trajectory, then inject a synthetic 2x slowdown.
    for _ in range(3):
        assert main(["bench", "--smoke", "--out", out]) == 0
    scale["factor"] = 2.0
    assert main(["bench", "--smoke", "--out", out, "--no-record"]) == 1
    assert main(["bench", "--smoke", "--out", out, "--no-record",
                 "--report-only"]) == 0


def test_cli_bench_unknown_suite(capsys):
    assert main(["bench", "--suite", "nope"]) == 2
    assert "unknown suite" in capsys.readouterr().err
