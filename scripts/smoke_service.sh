#!/usr/bin/env bash
# Smoke test for `python -m repro serve`: boots the real server process,
# runs one discover round trip and one streaming-session round trip via
# the Python client, checks the cache hit shows up in /v1/metrics, sends
# malformed bodies over a raw socket (each must get a 400, an oversized
# Content-Length a 413, and the server must stay healthy; the bodies
# include relations with an array cell, a non-list column, and a
# non-numeric value in a numeric column of a session's first batch),
# and exits nonzero on any failure. Invoked by
# scripts/check.sh and the tier-2 pytest marker
# (tests/test_service_smoke.py), and usable standalone:
#
#   bash scripts/smoke_service.sh
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export PYTHONPATH="${REPO_ROOT}/src${PYTHONPATH:+:$PYTHONPATH}"
PYTHON="${PYTHON:-python}"

PORT="$("$PYTHON" - <<'EOF'
import socket
with socket.socket() as s:
    s.bind(("127.0.0.1", 0))
    print(s.getsockname()[1])
EOF
)"

"$PYTHON" -m repro serve --port "$PORT" --workers 2 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; wait "$SERVER_PID" 2>/dev/null || true' EXIT

"$PYTHON" - "$PORT" <<'EOF'
import sys

import numpy as np

from repro.core.fd import FD
from repro.service import ServiceClient

port = int(sys.argv[1])
client = ServiceClient(f"http://127.0.0.1:{port}", timeout=60.0)
client.wait_until_healthy(timeout=30.0)

from repro.dataset.relation import Relation

rng = np.random.default_rng(0)
rows = []
for _ in range(1000):
    base = int(rng.integers(20))
    rows.append(tuple([base, base % 5] + [int(rng.integers(6)) for _ in range(8)]))
relation = Relation.from_rows([f"a{i}" for i in range(10)], rows)

# One-shot discover + cache hit on the identical repeat.
result = client.discover(relation)
assert FD(["a0"], "a1") in set(result.fds), result.fds
assert client.discover_raw(relation)["cached"] is True
assert client.metrics()["counters"]["discover_cache_hits"] >= 1

# Streaming session round trip.
session = client.create_session()
for start in range(0, 1000, 250):
    client.append_batch(session, relation.select_rows(np.arange(start, start + 250)))
session_result = client.session_fds(session)
assert FD(["a0"], "a1") in set(session_result.fds), session_result.fds
client.close_session(session)

# Malformed bodies over a raw socket: a typed 4xx, never a 500.
import json
import socket


def raw_status(head: bytes, body: bytes, path: str = "/v1/discover") -> int:
    with socket.create_connection(("127.0.0.1", port), timeout=30.0) as sock:
        sock.sendall(b"POST " + path.encode() + b" HTTP/1.1\r\nHost: smoke\r\n"
                     b"Connection: close\r\n" + head + b"\r\n" + body)
        reply = b""
        while b"\r\n" not in reply:
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    return int(reply.split(b" ", 2)[1])


assert raw_status(b"Content-Length: abc\r\n", b"{}") == 400
# A declared length above the body cap is refused before reading.
assert raw_status(b"Content-Length: 10000000000000\r\n", b"{}") == 413
non_utf8 = b'{"relation": "\xff\xfe"}'
assert raw_status(b"Content-Length: %d\r\n" % len(non_utf8), non_utf8) == 400


def json_status(payload: dict, path: str = "/v1/discover") -> int:
    body = json.dumps(payload).encode()
    return raw_status(b"Content-Length: %d\r\n" % len(body), body, path)


# Relations whose cells or containers the pipeline cannot take.
array_cell = {"attributes": ["a", "b"], "rows": [[i, i % 3] for i in range(60)]}
array_cell["rows"][0][1] = [1, 2]
assert json_status({"relation": array_cell}) == 400
non_list_column = {"attributes": ["a", "b"], "columns": {"a": [1, 2, 3], "b": 5}}
assert json_status({"relation": non_list_column}) == 400
# A first batch that is refused must not reach the fresh session's state.
session = client.create_session()
non_numeric = {"attributes": ["a", {"name": "b", "dtype": "numeric"}],
               "rows": [[i, i / 2] for i in range(60)]}
non_numeric["rows"][5][1] = "abc"
assert json_status({"relation": non_numeric}, f"/v1/sessions/{session}/batches") == 400
assert client.session_info(session)["n_rows_seen"] == 0
assert client.healthz()["status"] == "ok"

print("smoke_service: OK")
EOF
