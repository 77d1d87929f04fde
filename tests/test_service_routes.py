"""The service's route table and its one request path.

Covers what the table promises: the SERVICE.md endpoint table lists
exactly its routes, rows that share an endpoint label share an SLO,
malformed bodies and ill-typed hyperparameters answer a typed 4xx (never
a 500, never an ``http.5xx`` flight trigger), a refused session batch
costs the session no rows, kept-alive replies are not held back by
Nagle's algorithm, and a hypothesis fuzz of bodies, paths and query
strings never gets a 5xx or leaves a job hung.
"""

import http.client
import json
import pathlib
import re
import socket
import statistics
import string
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.relation import Relation
from repro.service import ServiceClient, start_in_thread
from repro.service.jobs import TERMINAL_STATES
from repro.service.protocol import relation_to_wire
from repro.service.server import ROUTES, match_route

SERVICE_MD = pathlib.Path(__file__).resolve().parent.parent / "docs" / "SERVICE.md"


def small_relation(seed=0, n=120):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        base = int(rng.integers(8))
        rows.append((base, base % 3, int(rng.integers(4))))
    return Relation.from_rows(["a", "b", "c"], rows)


RELATION_WIRE = relation_to_wire(small_relation())


@pytest.fixture(scope="module")
def handle():
    with start_in_thread(workers=2, job_timeout=60.0) as h:
        ServiceClient(h.base_url).wait_until_healthy()
        yield h


def raw_request(handle, method, path, body=None, headers=None):
    """One request on a fresh connection: ``(status, decoded JSON or None)``."""
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=60)
    try:
        conn.putrequest(method, path, skip_accept_encoding=True)
        headers = dict(headers or {})
        if body is not None:
            headers.setdefault("Content-Length", str(len(body)))
        for name, value in headers.items():
            conn.putheader(name, value)
        conn.endheaders(body)
        response = conn.getresponse()
        data = response.read()
    finally:
        conn.close()
    try:
        return response.status, json.loads(data)
    except ValueError:
        return response.status, None


def http_5xx_triggers(service):
    return [
        event for event in service.flight.events()
        if event["kind"] == "trigger" and event.get("data", {}).get("reason") == "http.5xx"
    ]


# -- the table -------------------------------------------------------------------

def documented_routes():
    """(method, path) pairs of the SERVICE.md endpoint table, queries stripped."""
    text = SERVICE_MD.read_text(encoding="utf-8")
    section = text.split("## Endpoints", 1)[1].split("\n## ", 1)[0]
    pairs = set()
    for method, path in re.findall(r"^\| `(GET|POST|DELETE) (/[^`]*)` \|", section, re.M):
        pairs.add((method, path.split("?", 1)[0]))
    return pairs


def test_service_md_lists_exactly_the_route_table():
    table = {(route.method, route.path) for route in ROUTES}
    documented = documented_routes()
    assert documented - table == set(), "documented routes the server lacks"
    assert table - documented == set(), "routes missing from docs/SERVICE.md"


def test_rows_sharing_a_name_share_one_slo():
    objectives = {}
    for route in ROUTES:
        assert objectives.setdefault(route.name, route.slo) == route.slo, route.name
    assert len({(route.method, route.path) for route in ROUTES}) == len(ROUTES)


@pytest.mark.parametrize("method, path, name, path_id", [
    ("GET", "/v1/healthz", "healthz", None),
    ("GET", "//v1//healthz/", "healthz", None),  # empty segments are ignored
    ("GET", "/v1/sessions/s-1/fds", "session_fds", "s-1"),
    ("POST", "/v1/sessions/s-1/reset", "sessions", "s-1"),
    ("DELETE", "/v1/jobs/j-9", "jobs", "j-9"),
    ("GET", "/v1/jobs/j-9/explain", "jobs_explain", "j-9"),
])
def test_match_route(method, path, name, path_id):
    route, matched_id = match_route(method, path)
    assert (route.name, matched_id) == (name, path_id)


@pytest.mark.parametrize("method, path", [
    ("POST", "/v1/healthz"),  # a known path under the wrong method
    ("DELETE", "/v1/sessions"),
    ("GET", "/v1/sessions/s-1/nope"),
    ("GET", "/v1/bogus"),
    ("GET", "/other"),
    ("GET", "/"),
])
def test_unmatched_requests_match_nothing(method, path):
    assert match_route(method, path) == (None, None)


# -- malformed input is a typed 4xx ------------------------------------------------

NON_UTF8 = b'{"relation": "\xff\xfe"}'
DEEP = b"[" * 20001 + b"]" * 20001


def relation_body(relation=RELATION_WIRE, b_cell=None, b_column=None,
                  b_dtype="categorical", last_row=None):
    """A body carrying ``relation`` with one defect: column b's first cell
    or whole column replaced (b typed ``b_dtype``), or, sent as rows, its
    last row replaced."""
    attributes = [{"name": "a"}, {"name": "b", "dtype": b_dtype}, {"name": "c"}]
    columns = {name: list(values) for name, values in relation["columns"].items()}
    if last_row is not None:
        rows = [list(row) for row in zip(*columns.values())][:-1] + [last_row]
        return json.dumps({"relation": {"attributes": attributes, "rows": rows}}).encode()
    if b_column is not None:
        columns["b"] = b_column
    else:
        columns["b"][0] = b_cell
    return json.dumps({"relation": {"attributes": attributes, "columns": columns}}).encode()


@pytest.mark.parametrize("path, body, headers", [
    ("/v1/discover", b"{}", {"Content-Length": "abc"}),
    ("/v1/sessions", b"{}", {"Content-Length": "-5"}),
    ("/v1/discover", NON_UTF8, None),
    ("/v1/sessions", NON_UTF8, None),
    ("/v1/sessions/{sid}/batches", NON_UTF8, None),
    ("/v1/catalog", NON_UTF8, None),
    ("/v1/discover", DEEP, None),
    ("/v1/discover", relation_body(b_cell=[1, 2]), None),
    ("/v1/discover", relation_body(b_cell={"x": 1}), None),
    ("/v1/discover", relation_body(b_cell="abc", b_dtype="numeric"), None),
    ("/v1/discover", relation_body(b_cell=10**400, b_dtype="numeric"), None),
    ("/v1/discover", relation_body(b_column=5), None),
    ("/v1/discover", relation_body(b_column="x" * 120), None),  # one char a row
    ("/v1/discover", relation_body(last_row="abc"), None),  # one char a cell
    ("/v1/discover", relation_body(last_row={"a": 1, "b": 2, "c": 3}), None),
], ids=["length-abc", "length-negative", "utf8-discover", "utf8-sessions",
        "utf8-batches", "utf8-catalog", "deep-nesting", "array-cell",
        "object-cell", "numeric-abc", "numeric-overflow", "number-column",
        "string-column", "string-row", "object-row"])
def test_malformed_body_is_400_not_500(handle, path, body, headers):
    if "{sid}" in path:
        path = path.format(sid=ServiceClient(handle.base_url).create_session())
    status, payload = raw_request(handle, "POST", path, body, headers)
    assert status == 400, payload
    assert payload["error"]["message"]
    assert http_5xx_triggers(handle.service) == []
    assert handle.service.last_error() is None


def test_rejected_batch_leaves_the_session_intact(handle):
    """A batch with a cell the transform cannot encode is refused before
    it is buffered, so it loses neither the rows before it nor the next
    append."""
    client = ServiceClient(handle.base_url)
    path = f"/v1/sessions/{client.create_session()}/batches"
    good = json.dumps({"relation": RELATION_WIRE}).encode()  # 120 rows
    # Ten rows: below min_batch_rows, so an accepted batch would be buffered.
    bad = relation_body(relation_to_wire(small_relation(n=10)), b_cell=[1, 2])
    for body, expected in ((good, 200), (bad, 400), (good, 200)):
        status, payload = raw_request(handle, "POST", path, body)
        assert status == expected, payload
    assert payload["n_rows_seen"] == 240, payload
    assert http_5xx_triggers(handle.service) == []
    assert handle.service.last_error() is None


@pytest.mark.parametrize("declared", [10_000_000_000_000, 200_000_000])
def test_oversized_content_length_is_413_not_500_or_a_hang(handle, declared):
    """A declared length above the body cap is refused before any read
    (no allocation, no wait for bytes that never come); the connection
    is closed after the reply, since its body was never read."""
    with socket.create_connection(("127.0.0.1", handle.port), timeout=10) as sock:
        sock.sendall(
            b"POST /v1/discover HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: %d\r\n\r\n{}" % declared
        )
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.split(b" ", 2)[1] == b"413", head
    assert b"connection: close" in head.lower()
    assert json.loads(body)["error"]["message"]
    assert handle.service.last_error() is None
    assert http_5xx_triggers(handle.service) == []
    status, _ = raw_request(handle, "GET", "/v1/healthz")
    assert status == 200


@pytest.mark.parametrize("path, hyperparameters", [
    ("/v1/discover", {"sparsity": "x"}),
    ("/v1/discover", {"lam": -1}),
    ("/v1/sessions", {"decay": 7}),
    ("/v1/sessions", {"lam": "abc"}),
    ("/v1/discover", {"max_rows_per_attribute": 0}),
    ("/v1/discover", {"max_rows_per_attribute": 1}),
])
def test_ill_typed_hyperparameters_are_400(handle, path, hyperparameters):
    body = {"hyperparameters": hyperparameters}
    if path == "/v1/discover":
        body["relation"] = RELATION_WIRE
    status, payload = raw_request(handle, "POST", path, json.dumps(body).encode())
    assert status == 400, payload
    assert "hyperparameter" in payload["error"]["message"]
    assert http_5xx_triggers(handle.service) == []


def test_ebic_and_default_hyperparameters_still_accepted(handle):
    for hyperparameters in ({"lam": "ebic"}, {}):
        body = {"relation": RELATION_WIRE, "hyperparameters": hyperparameters}
        status, payload = raw_request(
            handle, "POST", "/v1/discover", json.dumps(body).encode()
        )
        assert status == 200, payload
        status, payload = raw_request(
            handle, "POST", "/v1/sessions",
            json.dumps({"hyperparameters": hyperparameters}).encode(),
        )
        assert status == 201, payload


# -- keep-alive latency --------------------------------------------------------------

def test_keep_alive_replies_are_not_held_by_nagle(handle):
    """Header and body writes go out at once, not one delayed ACK apart."""
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
    try:
        seconds = []
        for _ in range(21):
            started = time.perf_counter()
            conn.request("GET", "/v1/healthz")
            response = conn.getresponse()
            response.read()
            seconds.append(time.perf_counter() - started)
            assert response.status == 200
    finally:
        conn.close()
    assert statistics.median(seconds) < 0.020, seconds


# -- fuzz -------------------------------------------------------------------------------

SEGMENTS = st.one_of(
    st.sampled_from([
        "v1", "discover", "sessions", "jobs", "catalog", "healthz", "metrics",
        "debug", "flight", "batches", "fds", "deltas", "drift", "explain",
        "checkpoint", "reset", "statusz", "..", "%00", "",
    ]),
    st.text(alphabet=string.ascii_letters + string.digits + "-_.~%", max_size=8),
)
PATHS = st.lists(SEGMENTS, max_size=5).map(lambda parts: "/" + "/".join(parts))
QUERIES = st.text(alphabet=string.ascii_letters + string.digits + "=&%+-._", max_size=30)
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
ILL_TYPED = st.one_of(
    st.text(max_size=6), st.booleans(), st.none(), st.integers(max_value=-1),
    st.floats(max_value=-1e-9), st.sampled_from([float("nan"), float("inf")]),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=3), st.integers()),
)
HYPERPARAMETER_NAMES = st.sampled_from([
    "lam", "sparsity", "ordering", "shrinkage", "max_rows_per_attribute",
    "min_batch_rows", "decay", "seed", "refresh_every_rows", "drift_threshold",
])


def hyperparameter_body(name, value, with_relation):
    body = {"hyperparameters": {name: value}}
    if with_relation:
        body["relation"] = RELATION_WIRE
    return json.dumps(body).encode()


REQUESTS = st.one_of(
    st.tuples(st.sampled_from(["GET", "POST", "DELETE"]), PATHS, QUERIES,
              st.binary(max_size=64)),
    st.tuples(st.just("POST"),
              st.sampled_from(["/v1/discover", "/v1/sessions", "/v1/catalog",
                               "/v1/sessions/x/batches"]),
              st.just(""), JSON_DOCS.map(lambda doc: json.dumps(doc).encode())),
    st.tuples(st.just("POST"), st.sampled_from(["/v1/discover", "/v1/sessions"]),
              st.just(""), st.builds(hyperparameter_body, HYPERPARAMETER_NAMES,
                                     ILL_TYPED, st.booleans())),
)


def test_fuzzed_requests_never_get_a_5xx_or_hang_a_job(handle):
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(request=REQUESTS)
    def fuzz(request):
        method, path, query, body = request
        target = path + ("?" + query if query else "")
        status, payload = raw_request(
            handle, method, target, None if method == "GET" else body
        )
        assert status < 500, (method, target, body[:200], payload)

    fuzz()
    with handle.service.jobs._lock:
        jobs = list(handle.service.jobs._jobs.values())
    for job in jobs:
        assert job.wait(timeout=30) in TERMINAL_STATES, (job.id, job.state)
    assert http_5xx_triggers(handle.service) == []
    assert handle.service.last_error() is None
