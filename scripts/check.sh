#!/usr/bin/env bash
# One-command repo check: byte-compile everything, run the tier-1 suite,
# the property modules again under hypothesis's randomized profile,
# the tier-2 observability and chaos smoke tests (real CLI + server
# subprocesses), the `repro serve` subprocess smoke (scripts/smoke_service.sh),
# a fast benchmark smoke pass reported against the recorded trajectory
# (report-only: timings on shared CI hosts are too noisy to hard-gate
# here; `python -m repro bench` without --report-only gates), and the
# hash-seed / streaming / flight-recorder end-to-end smokes, a check
# that the benchmark's span wrappers still reach the pipeline, the
# graphical-lasso certificate at the paper's widest Figure-6 shape, the
# eBIC grid and refit certificates on one discovery, and short benchmark
# windows (fixed λ, eBIC and the HTTP service mix) whose every result must
# pass the benchmark's oracle.
# Usable standalone and in CI:
#
#   bash scripts/check.sh
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"
export PYTHONPATH="${REPO_ROOT}/src${PYTHONPATH:+:$PYTHONPATH}"
PYTHON="${PYTHON:-python}"

echo "== compileall =="
"$PYTHON" -m compileall -q src tests benchmarks

echo "== tier-1 tests =="
"$PYTHON" -m pytest -x -q

echo "== hypothesis properties (randomized) =="
# Tier-1 draws every property's examples from the derandomized default
# profile (tests/conftest.py), so it cannot fail at random on unchanged
# code. This step keeps the search going: it reruns the property modules
# under hypothesis's random search, with a fresh seed each run.
"$PYTHON" -m pytest -q --hypothesis-profile=randomized \
    $(grep -l "^from hypothesis" tests/test_*.py)

echo "== tier-2 observability smoke =="
"$PYTHON" -m pytest -q -m tier2 tests/test_obs_smoke.py

echo "== tier-2 chaos smoke =="
"$PYTHON" -m pytest -q -m tier2 tests/test_chaos.py

echo "== service smoke =="
# The real `repro serve` subprocess: discover + session round trips and
# malformed raw-socket bodies answered 400 by a server that stays healthy.
PYTHON="$PYTHON" bash scripts/smoke_service.sh

echo "== perfbench wiring smoke =="
# The benchmark's traced run (perfbench/tracing.py) wraps pipeline entry
# points by module and name: every target must still resolve, and one
# discovery plus one streaming refresh must reach the wrapped names.
"$PYTHON" - <<'PY'
import sys

sys.path.insert(0, "perfbench")
import tracing

recorder = tracing.Recorder()
tracing.install(recorder)

import numpy as np
from repro import FDX
from repro.core.incremental import IncrementalFDX
from repro.datagen.synthetic import SyntheticSpec, generate
from repro.streaming import refresh

relation = generate(SyntheticSpec(n_tuples=400, n_attributes=8, seed=0)).relation
FDX(lam=0.02).discover(relation)
engine = IncrementalFDX()
for k in range(2):
    engine.add_batch(relation.select_rows(np.arange(200 * k, 200 * (k + 1))))
refresh.refresh_solve(engine.snapshot())
names = {span.name for span in recorder.spans}
expected = {
    "core.fdx.discover", "core.transform", "core.structure", "linalg.covariance",
    "linalg.glasso", "core.fdx.generate_fds", "obs.explain.evidence",
    "core.incremental.solve",
}
assert expected <= names, sorted(expected - names)
print(f"perfbench wiring smoke OK: {len(tracing.TARGETS)} targets resolve, "
      f"{len(recorder.spans)} spans over {len(names)} names")
PY

echo "== graphical-lasso certificate =="
# One discovery at the paper's widest Figure-6 shape, 500 x 190 at λ 0.02:
# the configured rung must certify (KKT residual within 1e-6) in at most
# 30 Newton steps, without a fallback.
"$PYTHON" - <<'PY'
from repro import FDX
from repro.datagen.synthetic import SyntheticSpec, generate

spec = SyntheticSpec(n_tuples=500, n_attributes=190, domain_low=64, domain_high=216,
                     noise_rate=0.01, seed=1000)
diagnostics = FDX(lam=0.02).discover(generate(spec).relation).diagnostics
run = diagnostics["solver_health"]["runs"][0]
assert run["stage"] == "configured", run
assert run["converged"] and run["kkt_residual"] <= 1e-6, run
assert not diagnostics["degraded"] and len(diagnostics["fallback_chain"]) == 1, \
    diagnostics["fallback_chain"]
assert run["iterations"] <= 30, run
print(f"graphical-lasso certificate OK: 500 x 190 at lam 0.02 certified in "
      f"{run['iterations']} Newton steps, KKT residual {run['kkt_residual']:.1e}")
PY

echo "== eBIC certificate smoke =="
# FDX(lam="ebic") solves every grid point to a certified graphical lasso,
# and scores it at a certified support refit or prunes it by the exact
# likelihood bound: each λ-path entry's grid solve must be converged and
# the entry pruned or certified (refit residual within the refit
# tolerance), and the selected λ is never a pruned point.
"$PYTHON" - <<'PY'
from repro import FDX
from repro.datagen.synthetic import SyntheticSpec, generate
from repro.linalg.model_selection import REFIT_TOL

relation = generate(SyntheticSpec(n_tuples=500, n_attributes=40, seed=1000)).relation
info = FDX(lam="ebic").discover(relation).diagnostics["solver_health"]["lambda"]
path = info["path"]
for point in path:
    assert point["converged"], point
    assert point["pruned"] or (
        point["refit_certified"] and point["refit_residual"] <= REFIT_TOL
    ), point
assert not path[info["grid_index"]]["pruned"], info
pruned = sum(point["pruned"] for point in path)
worst = max(point["refit_residual"] for point in path if not point["pruned"])
print(f"eBIC certificate smoke OK: lam {info['selected']} selected, {pruned} of "
      f"{len(path)} grid points pruned, largest refit residual {worst:.1e} "
      f"<= {REFIT_TOL:g}")
PY

echo "== perfbench oracle =="
# Two seconds of each of the benchmark's workloads (perfbench/run.py):
# fig6_wide (fixed λ), ebic_solver (eBIC λ grid) and service_mix (a
# `repro serve` subprocess: cache misses, hits, session appends and warm
# refreshes). Every result they time is checked against the library
# oracle, and the JSON summary on each run's last line must report no
# failed result.
for workload in fig6_wide ebic_solver service_mix; do
    PERFBENCH_LAST="$("$PYTHON" perfbench/run.py --workload "$workload" --seed 1 --seconds 2 | tail -n 1)"
    "$PYTHON" - "$workload" "$PERFBENCH_LAST" <<'PY'
import json, sys
workload, last = sys.argv[1], json.loads(sys.argv[2])
assert last["correct"] is True and last["failed"] == 0, last
print(f"perfbench oracle OK ({workload}): {last['attempted']} results checked, none failed")
PY
done

echo "== bench smoke (report-only) =="
"$PYTHON" -m repro bench --suite micro --smoke --no-record --report-only
# The discovery cases also record each pipeline stage (<case>.<stage>).
"$PYTHON" -m repro bench --suite scalability --smoke --no-record --report-only
# The catalog cases build SQLite fixtures in temporary directories, which
# the bench process must remove when it exits.
count_catalog_fixtures() {
    "$PYTHON" -c 'import glob, os, tempfile
print(len(glob.glob(os.path.join(tempfile.gettempdir(), "repro-bench-catalog-*"))))'
}
FIXTURES_BEFORE="$(count_catalog_fixtures)"
"$PYTHON" -m repro bench --suite catalog --smoke --no-record --report-only
FIXTURES_AFTER="$(count_catalog_fixtures)"
if [ "$FIXTURES_AFTER" -gt "$FIXTURES_BEFORE" ]; then
    echo "bench smoke left $((FIXTURES_AFTER - FIXTURES_BEFORE)) catalog fixture directories behind" >&2
    exit 1
fi

echo "== hash-seed smoke =="
# The synthetic generator and the pipeline must not depend on Python's
# per-process string-hash seed: write one noisy synthetic instance under
# two PYTHONHASHSEED values, discover FDs on each through the real CLI,
# and require identical CSVs and identical FD lists.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
for hash_seed in 1 2; do
    PYTHONHASHSEED=$hash_seed "$PYTHON" - "$SMOKE_DIR/synthetic-$hash_seed.csv" <<'PY'
import sys
from repro.dataset.io import write_csv
from repro.datagen.synthetic import SyntheticSpec, generate
spec = SyntheticSpec(n_tuples=400, n_attributes=10, noise_rate=0.05, seed=4000)
write_csv(generate(spec).relation, sys.argv[1])
PY
    PYTHONHASHSEED=$hash_seed "$PYTHON" -m repro discover \
        "$SMOKE_DIR/synthetic-$hash_seed.csv" --json > "$SMOKE_DIR/fds-$hash_seed.json"
done
cmp "$SMOKE_DIR/synthetic-1.csv" "$SMOKE_DIR/synthetic-2.csv"
"$PYTHON" - "$SMOKE_DIR/fds-1.json" "$SMOKE_DIR/fds-2.json" <<'PY'
import json, sys
first, second = (json.load(open(path))["fds"] for path in sys.argv[1:])
assert first == second, (first, second)
assert first, "no FDs discovered on the synthetic instance"
print(f"hash-seed smoke OK: identical CSV and {len(first)} identical FDs "
      "under PYTHONHASHSEED=1 and =2")
PY

echo "== explain smoke =="
# Every emitted FD must carry a parseable evidence record: run a real
# CLI discovery with --explain-out and verify the ledger's first record
# has a positive threshold margin and matching edge evidence.
"$PYTHON" -m repro dataset tic-tac-toe --output "$SMOKE_DIR/ttt.csv" >/dev/null
"$PYTHON" -m repro discover "$SMOKE_DIR/ttt.csv" --sparsity 0.01 \
    --explain --explain-out "$SMOKE_DIR/evidence.json" >/dev/null
"$PYTHON" - "$SMOKE_DIR/evidence.json" <<'PY'
import json, sys
evidence = json.load(open(sys.argv[1]))
records = evidence["records"]
assert records, "discovery emitted no evidence records"
record = records[0]
assert record["margin"] > 0, record
assert record["edges"], record
assert evidence["suppressed_total"] >= len(evidence["near_misses"])
print(f"explain smoke OK: {len(records)} FDs with evidence, "
      f"first margin {record['margin']:.4g}, "
      f"{evidence['suppressed_total']} near-miss edges")
PY

echo "== stage coverage smoke =="
# One clock times the whole discovery: the stages printed by --trace
# must cover at least 95% of the root fdx.discover span.
"$PYTHON" -m repro discover "$SMOKE_DIR/ttt.csv" --trace > "$SMOKE_DIR/trace.txt"
"$PYTHON" - "$SMOKE_DIR/trace.txt" <<'PY'
import re, sys
out = open(sys.argv[1]).read()
match = re.search(r"stage sum [\d.]+s of total [\d.]+s \(([\d.]+)%\)", out)
assert match, f"no stage-sum line in:\n{out}"
coverage = float(match.group(1))
assert coverage >= 95.0, f"stages cover {coverage}% of the root span:\n{out}"
print(f"stage coverage smoke OK: stages cover {coverage}% of fdx.discover")
PY

echo "== catalog sweep smoke =="
# Real CLI sweep over a 3-table sqlite fixture with a shared key
# column; the written report must parse with at least one FD and one
# cross-table shared-key hint.
"$PYTHON" - "$SMOKE_DIR/catalog.sqlite" <<'PY'
import sqlite3, sys
conn = sqlite3.connect(sys.argv[1])
conn.execute("CREATE TABLE orders (order_id INT, customer_id INT, zip TEXT, city TEXT)")
conn.execute("CREATE TABLE customers (customer_id INT, name TEXT, region TEXT)")
conn.execute("CREATE TABLE items (item_id INT, amount REAL, grade TEXT)")
conn.executemany("INSERT INTO orders VALUES (?,?,?,?)",
                 [(i, i % 50, f"z{i % 20:02d}", f"c{(i % 20) % 10}")
                  for i in range(400)])
conn.executemany("INSERT INTO customers VALUES (?,?,?)",
                 [(i, f"n{i}", f"r{i % 5}") for i in range(50)])
conn.executemany("INSERT INTO items VALUES (?,?,?)",
                 [(i, (i % 13) / 2.0, f"g{i % 4}") for i in range(200)])
conn.commit(); conn.close()
PY
"$PYTHON" -m repro sweep --input "$SMOKE_DIR/catalog.sqlite" --sample 500 \
    --report "$SMOKE_DIR/catalog.json" >/dev/null
"$PYTHON" - "$SMOKE_DIR/catalog.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
totals = report["totals"]
assert totals["tables"] == 3 and totals["tables_error"] == 0, totals
assert totals["fds"] >= 1, totals
assert totals["hints"] >= 1, totals
assert any(h["kind"] in ("shared_key", "foreign_key_candidate")
           for h in report["hints"]), report["hints"]
for table in report["tables"]:
    assert table["sampling"]["standard_error"], table["table"]
print(f"catalog smoke OK: {totals['tables_ok']} tables, {totals['fds']} FDs, "
      f"{totals['hints']} cross-table hints")
PY
# The same fixture with tables fanned out to child processes must give
# the serial report's per-table FDs, sampling summaries and hints.
"$PYTHON" -m repro sweep --input "$SMOKE_DIR/catalog.sqlite" --sample 500 \
    --workers 2 --report "$SMOKE_DIR/catalog_workers2.json" >/dev/null
"$PYTHON" - "$SMOKE_DIR/catalog.json" "$SMOKE_DIR/catalog_workers2.json" <<'PY'
import json, sys
serial, fanned = (json.load(open(path)) for path in sys.argv[1:3])
assert fanned["totals"]["tables_error"] == 0, fanned["totals"]
for key in ("fds", "sampling"):
    a = {t["table"]: t[key] for t in serial["tables"]}
    b = {t["table"]: t[key] for t in fanned["tables"]}
    assert a == b, (key, a, b)
assert serial["hints"] == fanned["hints"], (serial["hints"], fanned["hints"])
print(f"catalog --workers 2 parity OK: {len(fanned['tables'])} tables match serial")
PY
# --timeout bounds every table at any worker count: a 1 ms budget at one
# worker turns every table into a TaskTimeoutError record (exit 2).
status=0
"$PYTHON" -m repro sweep --input "$SMOKE_DIR/catalog.sqlite" --sample 500 \
    --workers 1 --timeout 0.001 --report "$SMOKE_DIR/catalog_timeout.json" \
    >/dev/null || status=$?
"$PYTHON" - "$status" "$SMOKE_DIR/catalog_timeout.json" <<'PY'
import json, sys
status, report = int(sys.argv[1]), json.load(open(sys.argv[2]))
assert status == 2, status
types = [t.get("error", {}).get("type") for t in report["tables"]]
assert len(types) == 3 and set(types) == {"TaskTimeoutError"}, types
print(f"catalog --timeout OK: {len(types)} TaskTimeoutError records, exit 2")
PY
# An invalid FDX option fails the whole sweep with one error line.
status=0
"$PYTHON" -m repro sweep --input "$SMOKE_DIR/catalog.sqlite" --lam -1 \
    >/dev/null 2>"$SMOKE_DIR/catalog_lam.err" || status=$?
"$PYTHON" - "$status" "$SMOKE_DIR/catalog_lam.err" <<'PY'
import sys
status, err = int(sys.argv[1]), open(sys.argv[2]).read()
assert status == 2, status
assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, err
assert "Traceback" not in err, err
print(f"catalog --lam -1 OK: exit 2, {err.strip()}")
PY

echo "== streaming session smoke =="
# In-process service round trip over the streaming surface: create a
# session, append, read FDs + deltas, checkpoint, then boot a second
# service over the same directory and verify the session was restored
# with its changelog intact.
"$PYTHON" - <<'PY'
import tempfile
import numpy as np
from repro.dataset.relation import Relation
from repro.service import ServiceClient, start_in_thread

rng = np.random.default_rng(0)
rows = [(a := int(rng.integers(15)), a % 5, int(rng.integers(6))) for _ in range(400)]
relation = Relation.from_rows(["a", "b", "c"], rows)

with tempfile.TemporaryDirectory() as ckpt_dir:
    with start_in_thread(workers=2, checkpoint_dir=ckpt_dir) as handle:
        client = ServiceClient(handle.base_url, timeout=60.0)
        client.wait_until_healthy()
        sid = client.create_session()
        client.append_batch(sid, relation)
        fds = client.session_fds(sid).fds
        assert fds, "no FDs discovered over the session"
        deltas = client.session_deltas(sid)
        assert deltas["version"] == 1 and deltas["deltas"][0]["added"]
        drift = client.session_drift(sid)
        assert "score" in drift
        client.checkpoint_session(sid)
    # Restart: a fresh service over the same checkpoint directory.
    with start_in_thread(workers=2, checkpoint_dir=ckpt_dir) as handle:
        client = ServiceClient(handle.base_url, timeout=60.0)
        client.wait_until_healthy()
        info = client.session_info(sid)
        assert info["n_rows_seen"] == 400, info
        restored = client.session_deltas(sid)
        assert restored["version"] == deltas["version"], restored
        refreshed = client.session_fds_raw(sid, force=True)
        assert refreshed["refresh"]["warm"] is True, refreshed["refresh"]
        print(f"streaming smoke OK: {len(fds)} FDs, "
              f"changelog v{restored['version']} survived restart, warm refresh")
PY

echo "== flight recorder smoke =="
# Boot the service with a flight-dump directory, inject one http.5xx
# fault, and verify the failure produced exactly one parseable dump
# carrying the offending request's evidence (span + log line + trigger).
"$PYTHON" - <<'PY'
import glob
import json
import os
import tempfile
import time

from repro.resilience.faults import FaultInjector
from repro.service import ServiceClient, start_in_thread
from repro.service.client import ServiceError

with tempfile.TemporaryDirectory() as flight_dir:
    with start_in_thread(workers=1, flight_dir=flight_dir) as handle:
        client = ServiceClient(handle.base_url, retry=None)
        client.wait_until_healthy()
        with FaultInjector(seed=0).inject("http.5xx", times=1).install():
            try:
                client.healthz()
                raise SystemExit("fault did not fire")
            except ServiceError as exc:
                assert exc.status == 500, exc.status
                assert exc.trace_id, "no trace id on the client error"
                trace_id = exc.trace_id
        deadline = time.monotonic() + 5.0
        dumps = []
        while time.monotonic() < deadline and not dumps:
            dumps = glob.glob(os.path.join(flight_dir, "flight-*.jsonl"))
            time.sleep(0.05)
        assert len(dumps) == 1, dumps
        lines = [json.loads(line) for line in open(dumps[0])]
        assert lines[0]["kind"] == "dump" and lines[0]["reason"] == "http.5xx"
        kinds = {line["kind"] for line in lines[1:]}
        assert {"request", "trigger", "span"} <= kinds, kinds
        assert any(l["kind"] == "trigger" and l.get("trace_id") == trace_id
                   for l in lines[1:])
        print(f"flight smoke OK: dump {os.path.basename(dumps[0])} "
              f"({lines[0]['events']} events, trace {trace_id})")
PY

echo "== crash recovery smoke =="
# Real serve subprocess with a job journal: submit slow async jobs,
# kill -9 the server mid-run, restart with --recover resubmit, and
# verify the interrupted jobs were restored from the journal and their
# work was resubmitted and completed.
"$PYTHON" - <<'PY'
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request

import numpy as np


def start_server(journal_dir, *extra):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--journal-dir", journal_dir, *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(f"server exited early (rc={proc.poll()})")
        m = re.search(r"listening on (http://[\d.]+:\d+)", line)
        if m:
            return proc, m.group(1)
    raise SystemExit("server never printed its address")


def request(base, path, body=None):
    req = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode() if body is not None else None,
        headers={"Content-Type": "application/json"} if body is not None else {},
    )
    with urllib.request.urlopen(req, timeout=30.0) as resp:
        return json.loads(resp.read())


def relation_payload(seed, n_rows):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_rows):
        base = int(rng.integers(12))
        rows.append([base, base % 4] + [int(rng.integers(5)) for _ in range(4)])
    return {"attributes": [f"a{i}" for i in range(6)], "rows": rows}


journal_dir = tempfile.mkdtemp(prefix="repro-journal-")
proc1 = proc2 = None
try:
    proc1, base = start_server(journal_dir)
    # One worker: the first job runs, the second sits in the queue —
    # both are in flight when the process dies. The first job is big
    # enough (hundreds of ms) to still be running when the kill lands;
    # the second is tiny so its submit barely delays the kill.
    ids = []
    for seed, n_rows in ((1, 20_000), (2, 400)):
        body = request(base, "/v1/discover",
                       {"relation": relation_payload(seed, n_rows), "wait": False})
        ids.append(body["job_id"])
    os.kill(proc1.pid, signal.SIGKILL)
    proc1.wait(timeout=10.0)

    proc2, base = start_server(journal_dir, "--recover", "resubmit")
    resubmitted = []
    for job_id in ids:
        job = request(base, f"/v1/jobs/{job_id}")
        assert job["state"] == "interrupted", job
        assert job.get("restored") is True, job
        assert "restart" in job["error"], job
        assert job.get("resubmitted_as"), job
        resubmitted.append(job["resubmitted_as"])
    status = request(base, "/v1/statusz")
    assert status["jobs"]["interrupted_at_boot"] == 2, status["jobs"]
    assert status["checks"]["storage"] == "ok", status["checks"]
    deadline = time.monotonic() + 120.0
    done = set()
    while time.monotonic() < deadline and len(done) < len(resubmitted):
        for new_id in resubmitted:
            job = request(base, f"/v1/jobs/{new_id}")
            if job["state"] == "done":
                done.add(new_id)
            else:
                assert job["state"] in ("queued", "running"), job
        time.sleep(0.2)
    assert len(done) == len(resubmitted), f"resubmitted jobs not done: {done}"
    print(f"crash recovery smoke OK: {len(ids)} jobs interrupted by kill -9, "
          f"resubmitted as {len(done)} completed jobs after replay")
finally:
    for proc in (proc1, proc2):
        if proc is not None and proc.poll() is None:
            proc.kill()
    import shutil
    shutil.rmtree(journal_dir, ignore_errors=True)
PY

echo "check: OK"
