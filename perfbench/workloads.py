"""The benchmark's three workloads.

Each workload makes its inputs from the seed (several times over, to time
set-up), runs one closed-loop caller for the timed window, and afterwards
checks every result against a library reference:

* ``fig6_wide`` and ``ebic_solver`` call ``FDX.discover`` in-process;
* ``service_mix`` drives a ``repro serve`` subprocess over one HTTP/1.1
  connection.

Every operation is timed twice: in wall time, and in the CPU time of the
threads and processes doing its work, scaled to a reference speed (see
clock.py). One probe runs between each two operations and serves both:
an operation's speed is the mean of the probes on either side of it. The
end-to-end metrics use the scaled time; the traced run's layer arithmetic
uses the wall time. ``run.py`` turns the returned :class:`RunResult` into
metrics.
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import FDX
from repro.core.fd import FD
from repro.core.incremental import IncrementalFDX
from repro.datagen.realworld import hospital
from repro.datagen.synthetic import SyntheticSpec, generate
from repro.dataset.relation import Relation
from repro.metrics.evaluation import score_fds
from repro.service.protocol import Hyperparameters, relation_from_wire, relation_to_wire
from repro.streaming import refresh_solve

import tracing
from clock import cpu_seconds, probe, scaled

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Instances per seed on the library workloads. Instances differ by up to
#: half in cost, so a percentile over few of them moves with the seed.
LIBRARY_INSTANCES = 32
#: What the self-test adds to one expected answer.
CORRUPT_FD = "planted -> by_self_test"


@dataclass
class Op:
    """One timed operation as the caller saw it."""

    id: str
    kind: str
    seconds: float
    #: CPU seconds of the caller's thread plus, on the service, the
    #: server's, at the reference speed.
    scaled_seconds: float = 0.0
    ok: bool = True
    #: What the oracle needs to judge the result.
    detail: Any = None


@dataclass
class RunResult:
    ops: list[Op]
    window_seconds: float
    setup_seconds: list[float]
    peak_rss_mb: float
    fd_f1: float = 0.0
    #: Results checked besides the timed operations (service warm-up).
    extra_checks: int = 0
    failures: list[str] = field(default_factory=list)
    provenance: dict[str, Any] = field(default_factory=dict)
    #: Server counter increases over the timed window (traced service run).
    scrape: dict[str, float] = field(default_factory=dict)

    def latencies_ms(self, kind: str, scaled: bool = False) -> list[float]:
        return [
            1000.0 * (op.scaled_seconds if scaled else op.seconds)
            for op in self.ops if op.kind == kind
        ]


def canonical_fds(fds) -> tuple[str, ...]:
    """Order-free, comparable form of a list of ``FD`` objects."""
    return tuple(sorted(str(fd) for fd in fds))


def fresh_copy(relation: Relation) -> Relation:
    """A new ``Relation`` with the same cells, so that nothing memoised on
    the original (its value codes) makes a repeated discovery warm."""
    return Relation(
        relation.schema, {name: relation.column(name) for name in relation.schema.names}
    )


# -- library workloads --------------------------------------------------------


@dataclass(frozen=True)
class LibraryWorkload:
    """One caller, closed loop: cold ``FDX(lam).discover`` calls on
    rotating seeded instances of the Figure-6 generator."""

    n_tuples: int
    n_attributes: int
    lam: float | str
    n_instances: int = LIBRARY_INSTANCES

    def instances(self, seed: int):
        return [
            generate(SyntheticSpec(
                n_tuples=self.n_tuples,
                n_attributes=self.n_attributes,
                domain_low=64,
                domain_high=216,
                noise_rate=0.01,
                seed=seed * 1000 + i,
            ))
            for i in range(self.n_instances)
        ]

    def run(self, seed: int, seconds: float, recorder=None, corrupt: bool = False) -> RunResult:
        setup_seconds = []
        for _ in range(SETUP_REPEATS):
            before = probe(3)
            c0 = cpu_seconds()
            datasets = self.instances(seed)
            cpu = cpu_seconds() - c0
            setup_seconds.append(scaled(cpu, (before + probe(3)) / 2))
        if recorder is not None:
            tracing.install(recorder)
        FDX(lam=self.lam).discover(fresh_copy(datasets[0].relation))  # warm-up
        if recorder is not None:
            recorder.clear()

        ops: list[Op] = []
        last_probe = probe()
        t_start = time.perf_counter()
        deadline = t_start + seconds
        while time.perf_counter() < deadline:
            index = len(ops) % len(datasets)
            relation = fresh_copy(datasets[index].relation)
            op = Op(f"op-{len(ops)}", "discover", 0.0)
            if recorder is not None:
                recorder.default_op = op.id
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                fds = FDX(lam=self.lam).discover(relation).fds
            except Exception as exc:  # noqa: BLE001 - a failed operation
                op.ok = False
                fds = f"{type(exc).__name__}: {exc}"
            op.seconds = time.perf_counter() - t0
            cpu = cpu_seconds() - c0
            after = probe()
            op.scaled_seconds = scaled(cpu, (last_probe + after) / 2)
            last_probe = after
            op.detail = (index, fds)
            ops.append(op)
        window = time.perf_counter() - t_start
        if recorder is not None:
            recorder.default_op = None
        result = RunResult(
            ops=ops,
            window_seconds=window,
            setup_seconds=setup_seconds,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )

        # Oracle, after the window: one more cold library call per instance.
        references = [
            FDX(lam=self.lam).discover(fresh_copy(ds.relation)).fds for ds in datasets
        ]
        expected = [canonical_fds(fds) for fds in references]
        if corrupt:
            expected[0] += (CORRUPT_FD,)
        for op in ops:
            index, fds = op.detail
            op.detail = None
            if not op.ok:
                result.failures.append(f"{op.id}: raised {fds}")
            elif canonical_fds(fds) != expected[index]:
                op.ok = False
                result.failures.append(f"{op.id}: FDs differ from the library reference")
        result.fd_f1 = statistics.fmean(
            score_fds(fds, ds.true_fds).f1 for fds, ds in zip(references, datasets)
        )
        return result


# -- service workload ---------------------------------------------------------


class ServerProcess:
    """A ``repro serve`` process on an ephemeral port, healthy on return."""

    def __init__(self, argv: list[str], boot_timeout: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            argv, cwd=str(ROOT), env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        try:
            self.port = self._read_port(boot_timeout)
            self._wait_healthy(boot_timeout)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        seen = ""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                seen += line
                if "listening on http://" in line:
                    address = line.split("listening on http://", 1)[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(f"server did not report its port: {seen!r}")

    def _wait_healthy(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/v1/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.02)
        raise RuntimeError("server never became healthy")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 30.0) -> None:
        """SIGINT (the server's clean shutdown), then SIGKILL; always reaps."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Client:
    """One persistent HTTP/1.1 connection; each request is timed from
    sending it to having read the whole response."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(self, method: str, path: str, body: bytes | None, trace_id: str):
        headers = {"X-Trace-Id": trace_id}
        if body is not None:
            headers["Content-Type"] = "application/json"
        t0 = time.perf_counter()
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            status, data = response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()  # reconnects on the next request
            status, data = 0, f"{type(exc).__name__}: {exc}".encode()
        return status, data, time.perf_counter() - t0

    def json(self, method: str, path: str, body: bytes | None, trace_id: str):
        status, data, _ = self.call(method, path, body, trace_id)
        if not 200 <= status < 300:
            raise RuntimeError(f"{method} {path} -> {status}: {data[:200]!r}")
        return json.loads(data)

    def close(self) -> None:
        self.conn.close()


def scrape(client: Client) -> dict[str, float]:
    """Counters the server reports about itself (JSON and Prometheus)."""
    snapshot = client.json("GET", "/v1/metrics", None, "scrape")
    counters = {f"counter:{k}": float(v) for k, v in snapshot["counters"].items()}
    _, text, _ = client.call("GET", "/v1/metrics?format=prometheus", None, "scrape")
    for line in text.decode().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            try:
                counters[name] = float(value)
            except ValueError:
                pass
    return counters


def _wire(relation: Relation) -> bytes:
    return json.dumps({"relation": relation_to_wire(relation)}).encode()


def _decode(body: bytes) -> Relation:
    return relation_from_wire(json.loads(body)["relation"])


def _fds_of(payload: dict) -> tuple[str, ...]:
    return canonical_fds(FD.from_dict(d) for d in payload["result"]["fds"])


@dataclass
class ServiceInputs:
    hospitals: list  # RealWorldDataset: the miss pool, then the hit bodies
    bodies: list[bytes]
    batch_bodies: list[bytes]


class ServiceWorkload:
    """Miss, hit, append, hit, append, refresh -- repeated by one client."""

    #: Distinct miss bodies, more than a 20-s window sends: a body sent
    #: again would find its digest in the server's body index (8 times the
    #: result cache) and skip fingerprinting, so the share of cheaper
    #: misses would follow the host's speed.
    MISS_POOL = 64
    HIT_BODIES = 3  # discovered in warm-up, then repeated byte for byte
    CACHE_ENTRIES = 8  # so a miss body is evicted long before it comes round
    BATCH_ROWS = 250
    N_BATCHES = 24
    STREAM_ATTRIBUTES = 16
    PRIMING_BATCHES = 2
    CYCLE = ("miss", "hit", "append", "hit", "append", "refresh")

    def inputs(self, seed: int) -> ServiceInputs:
        hospitals = [
            hospital(seed=seed * 1000 + i) for i in range(self.MISS_POOL + self.HIT_BODIES)
        ]
        stream = generate(SyntheticSpec(
            n_tuples=self.BATCH_ROWS * self.N_BATCHES,
            n_attributes=self.STREAM_ATTRIBUTES,
            seed=seed,
        )).relation
        return ServiceInputs(
            hospitals=hospitals,
            bodies=[_wire(h.relation) for h in hospitals],
            batch_bodies=[
                _wire(stream.select_rows(range(k * self.BATCH_ROWS, (k + 1) * self.BATCH_ROWS)))
                for k in range(self.N_BATCHES)
            ],
        )

    def argv(self, spans_out: Path | None) -> list[str]:
        serve_args = ["--port", "0", "--cache-entries", str(self.CACHE_ENTRIES)]
        if spans_out is None:
            return [sys.executable, "-m", "repro", "serve", *serve_args]
        launcher = Path(__file__).resolve().parent / "serve_traced.py"
        return [sys.executable, str(launcher), "--spans-out", str(spans_out), *serve_args]

    def run(self, seed: int, seconds: float, spans_out: Path | None = None,
            corrupt: bool = False) -> RunResult:
        setup_seconds = []
        server = None
        try:
            for _ in range(SETUP_REPEATS):
                if server is not None:
                    server.stop()
                before = probe(3)
                c0 = cpu_seconds()
                inputs = self.inputs(seed)
                server = ServerProcess(self.argv(spans_out))
                # The server's CPU clock started at zero when it did.
                cpu = cpu_seconds(server.proc.pid) - c0
                setup_seconds.append(scaled(cpu, (before + probe(3)) / 2))
            client = Client(server.port)
            try:
                result, oracle = self._drive(inputs, server, client, seconds, spans_out is not None)
            finally:
                client.close()
        finally:
            if server is not None:
                server.stop()
        result.setup_seconds = setup_seconds
        result.provenance["server_pid"] = server.proc.pid
        self._check(inputs, result, oracle, corrupt)
        return result

    def _drive(self, inputs: ServiceInputs, server: ServerProcess, client: Client,
               seconds: float, traced: bool) -> tuple[RunResult, dict]:
        hits = range(self.MISS_POOL, self.MISS_POOL + self.HIT_BODIES)
        session = client.json("POST", "/v1/sessions", b"{}", "setup")["session_id"]
        # Warm-up: discover the hit bodies once, and prime the session with
        # one cold refresh so that every timed refresh is warm-started.
        warm = {
            j: client.json("POST", "/v1/discover", inputs.bodies[j], f"warm-{j}") for j in hits
        }
        events: list[tuple[str, Any]] = []
        for k in range(self.PRIMING_BATCHES):
            client.json("POST", f"/v1/sessions/{session}/batches",
                        inputs.batch_bodies[k], f"warm-batch-{k}")
            events.append(("append", k))
        client.json("GET", f"/v1/sessions/{session}/fds?force=1", None, "warm-refresh")
        events.append(("refresh", None))
        before = scrape(client) if traced else {}

        ops: list[Op] = []
        counts = dict.fromkeys(self.CYCLE, 0)
        rows_seen = self.PRIMING_BATCHES * self.BATCH_ROWS
        pid = server.proc.pid
        last_probe = probe()
        t_start = time.perf_counter()
        deadline = t_start + seconds
        while time.perf_counter() < deadline:
            n = len(ops)
            kind = self.CYCLE[n % len(self.CYCLE)]
            if kind == "miss":
                key = counts["miss"] % self.MISS_POOL
                method, path, body = "POST", "/v1/discover", inputs.bodies[key]
            elif kind == "hit":
                key = hits[counts["hit"] % len(hits)]
                method, path, body = "POST", "/v1/discover", inputs.bodies[key]
            elif kind == "append":
                batch = (self.PRIMING_BATCHES + counts["append"]) % self.N_BATCHES
                rows_seen += self.BATCH_ROWS
                key = rows_seen
                method, path = "POST", f"/v1/sessions/{session}/batches"
                body = inputs.batch_bodies[batch]
                events.append(("append", batch))
            else:
                key = n
                method, path, body = "GET", f"/v1/sessions/{session}/fds?force=1", None
                events.append(("refresh", n))
            counts[kind] += 1
            op_id = f"op-{n}"
            c0 = cpu_seconds(pid)
            status, data, op_seconds = client.call(method, path, body, op_id)
            cpu = cpu_seconds(pid) - c0
            after = probe()
            op_scaled = scaled(cpu, (last_probe + after) / 2)
            last_probe = after
            ops.append(Op(op_id, kind, op_seconds, op_scaled, status == 200, (key, status, data)))
        window = time.perf_counter() - t_start
        result = RunResult(
            ops=ops,
            window_seconds=window,
            setup_seconds=[],
            peak_rss_mb=server.peak_rss_mb(),
            extra_checks=len(warm),
        )
        if traced:
            after = scrape(client)
            result.scrape = {k: v - before.get(k, 0.0) for k, v in after.items()}
        return result, {"events": events, "warm": warm}

    def _check(self, inputs: ServiceInputs, result: RunResult, oracle: dict,
               corrupt: bool) -> None:
        """Judge every response against the library, after the window."""
        hp = Hyperparameters()
        references = [
            FDX(
                lam=hp.lam, sparsity=hp.sparsity, ordering=hp.ordering,
                shrinkage=hp.shrinkage, max_rows_per_attribute=hp.max_rows_per_attribute,
                seed=hp.seed,
            ).discover(_decode(body)).fds
            for body in inputs.bodies
        ]
        expected = [canonical_fds(fds) for fds in references]
        if corrupt:
            expected[0] += (CORRUPT_FD,)
        result.fd_f1 = statistics.fmean(
            score_fds(fds, h.embedded_fds).f1 for fds, h in zip(references, inputs.hospitals)
        )
        refreshes = self._replay_session(
            [_decode(body) for body in inputs.batch_bodies], oracle["events"], hp
        )
        for j, payload in oracle["warm"].items():
            if _fds_of(payload) != expected[j]:
                result.failures.append(f"warm-up discover {j}: FDs differ from the library reference")
        for op in result.ops:
            key, status, data = op.detail
            op.detail = None
            if status != 200:
                op.ok = False
                result.failures.append(f"{op.id} ({op.kind}): HTTP {status}: {data[:200]!r}")
                continue
            payload = json.loads(data)
            problem = None
            if op.kind in ("miss", "hit"):
                if payload.get("cached") is not (op.kind == "hit"):
                    problem = f"cached={payload.get('cached')!r}"
                elif _fds_of(payload) != expected[key]:
                    problem = "FDs differ from the library reference"
            elif op.kind == "append":
                if payload.get("n_rows_seen") != key:
                    problem = f"n_rows_seen={payload.get('n_rows_seen')}, expected {key}"
            elif _fds_of(payload) != refreshes[key]:
                problem = "FDs differ from the library replay of the session"
            if problem is not None:
                op.ok = False
                result.failures.append(f"{op.id} ({op.kind}): {problem}")

    @staticmethod
    def _replay_session(batches: list[Relation], events, hp: Hyperparameters) -> dict:
        """Replay the session's appends and refreshes on the library; the
        expected FDs of each refresh, keyed by its op index."""
        engine = IncrementalFDX(
            lam=hp.lam, sparsity=hp.sparsity, ordering=hp.ordering,
            shrinkage=hp.shrinkage, min_batch_rows=hp.min_batch_rows,
            decay=hp.decay, seed=hp.seed,
        )
        previous = None
        expected = {}
        for kind, key in events:
            if kind == "append":
                engine.add_batch(batches[key])
                continue
            outcome = refresh_solve(
                engine.snapshot(flush=True), lam=hp.lam, sparsity=hp.sparsity,
                ordering=hp.ordering, shrinkage=hp.shrinkage, warm_start=previous,
            )
            previous = outcome.result.precision
            expected[key] = canonical_fds(outcome.result.fds)
        return expected


WORKLOADS = {
    "fig6_wide": LibraryWorkload(n_tuples=1000, n_attributes=68, lam=0.02),
    "ebic_solver": LibraryWorkload(n_tuples=500, n_attributes=40, lam="ebic"),
    "service_mix": ServiceWorkload(),
}
