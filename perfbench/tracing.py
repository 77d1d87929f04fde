"""Outside-in span tracing for the benchmark's traced run.

Nothing here edits the program. :func:`install` replaces each layer's
public entry point, at the name its caller looks it up under, with a
wrapper that records one :class:`Span` per call: name, start, end and the
span that was open when the call began. The open span is kept in a
``ContextVar``, so a job that the service submits with
``contextvars.copy_context()`` parents its spans to the request that
submitted it, although it runs on another thread.

Spans stay in memory (:class:`Recorder`) and are written out once, when
the run ends. :func:`layer_metrics` turns them into per-layer numbers; a
span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass(eq=False)
class Span:
    name: str
    parent: "Span | None"
    #: Id of the timed operation (request) the span belongs to.
    op: str | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        #: Operation id of root spans opened without one; the library
        #: workloads set it before each timed call.
        self.default_op: str | None = None
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    def clear(self) -> None:
        with self._lock:
            self.spans = []

    @contextlib.contextmanager
    def span(self, name: str, op: str | None = None):
        parent = self.current.get()
        if op is None:
            op = parent.op if parent is not None else self.default_op
        span = Span(name, parent, op)
        token = self.current.set(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self.current.reset(token)
            with self._lock:
                self.spans.append(span)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one span per call; ``observe(span, args,
        kwargs, result)`` may attach counts read off a successful call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        """Write every span as JSON; parents are list indices."""
        with self._lock:
            spans = list(self.spans)
        index = {id(span): i for i, span in enumerate(spans)}
        rows = [
            {
                "name": s.name,
                "parent": index.get(id(s.parent)) if s.parent is not None else None,
                "op": s.op,
                "start": s.start,
                "end": s.end,
                "attrs": s.attrs,
            }
            for s in spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def load_spans(path) -> list[Span]:
    """Inverse of :meth:`Recorder.dump`."""
    with open(path) as fh:
        rows = json.load(fh)
    spans = [Span(r["name"], None, r["op"], r["start"], r["end"], r["attrs"]) for r in rows]
    for span, row in zip(spans, rows):
        if row["parent"] is not None:
            span.parent = spans[row["parent"]]
    return spans


# -- counts read off calls ----------------------------------------------------


def _cells(span, args, kwargs, result) -> None:
    span.attrs["cells"] = int(result.size)


def _rows(span, args, kwargs, result) -> None:
    span.attrs["rows"] = int(args[0].shape[0])


def _glasso(span, args, kwargs, result) -> None:
    span.attrs.update(
        iterations=int(result.n_iter),
        converged=bool(result.converged),
        warm=kwargs.get("Theta0") is not None,
    )


def _grid(span, args, kwargs, result) -> None:
    span.attrs["grid_points"] = len(result.scores)


def _degraded(span, args, kwargs, result) -> None:
    span.attrs["degraded"] = bool(result.degraded)


#: (module, attribute path, span name, observer). The module is the one
#: the *caller* looks the name up in, so the wrapper is what gets called;
#: methods are patched on their class.
TARGETS = [
    ("repro.core.fdx", "FDX.discover", "core.fdx.discover", None),
    ("repro.core.fdx", "validate_relation", "core.fdx.validate", None),
    ("repro.service.server", "validate_relation", "core.fdx.validate", None),
    ("repro.core.fdx", "pair_difference_transform", "core.transform", _cells),
    ("repro.core.incremental", "pair_difference_transform", "core.transform", _cells),
    ("repro.core.fdx", "center_within_blocks", "core.transform.center", None),
    ("repro.core.incremental", "center_within_blocks", "core.transform.center", None),
    ("repro.core.fdx", "learn_structure_resilient", "core.structure", _degraded),
    ("repro.core.incremental", "learn_structure", "core.structure", None),
    ("repro.core.structure", "empirical_covariance_chunked", "linalg.covariance", _rows),
    ("repro.core.structure", "correlation_from_covariance", "linalg.covariance", None),
    ("repro.core.structure", "shrunk_covariance", "linalg.covariance", None),
    ("repro.linalg.model_selection", "select_lambda_ebic", "linalg.model_selection", _grid),
    ("repro.core.structure", "graphical_lasso", "linalg.glasso", _glasso),
    ("repro.linalg.model_selection", "graphical_lasso", "linalg.glasso", _glasso),
    ("repro.core.structure", "compute_order", "linalg.cholesky.factorize", None),
    ("repro.core.structure", "factorize_with_order", "linalg.cholesky.factorize", None),
    ("repro.linalg.cholesky", "OrderedFactorization.autoregression_in_original_order",
     "linalg.cholesky.reorder", None),
    ("repro.core.fdx", "generate_fds", "core.fdx.generate_fds", None),
    ("repro.core.incremental", "generate_fds", "core.fdx.generate_fds", None),
    ("repro.core.fdx", "build_evidence", "obs.explain.evidence", None),
    ("repro.obs.explain", "build_evidence", "obs.explain.evidence", None),
    ("repro.core.fdx", "FDXResult.to_dict", "service.protocol.encode", None),
    ("repro.service.server", "relation_from_wire", "service.protocol.decode", None),
    ("repro.service.server", "dataset_fingerprint", "service.cache.fingerprint", None),
    ("repro.service.jobs", "JobManager._run", "service.jobs.run", None),
    ("repro.service.sessions", "SessionManager.append_batch", "service.sessions.append", None),
    ("repro.core.incremental", "IncrementalFDX.add_batch", "core.incremental.add_batch", None),
    ("repro.streaming.drift", "DriftDetector.update", "streaming.drift.update", None),
    ("repro.service.sessions", "SessionManager.discover", "service.sessions.refresh", None),
    ("repro.service.sessions", "refresh_solve", "streaming.refresh", None),
    ("repro.streaming.refresh", "discover_from_stats", "core.incremental.solve", None),
]


def install(recorder: Recorder) -> None:
    """Wrap every entry point of :data:`TARGETS`, the relation build and
    JSON codec of the HTTP layer, and the server's request handler."""
    for module_name, path, name, observe in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), observe))

    # relation_from_wire builds its Relation by the name protocol imported.
    protocol = importlib.import_module("repro.service.protocol")
    relation_cls = protocol.Relation

    def build_relation(*args, **kwargs):
        return relation_cls(*args, **kwargs)

    traced_build = recorder.wrap("dataset.relation_build", build_relation)
    traced_build.from_rows = recorder.wrap("dataset.relation_build", relation_cls.from_rows)
    protocol.Relation = traced_build

    # The HTTP layer parses and serialises with json.loads and json.dumps.
    server = importlib.import_module("repro.service.server")
    real_json = server.json

    class TracedJson:
        JSONDecodeError = real_json.JSONDecodeError
        loads = staticmethod(recorder.wrap("service.protocol.decode", real_json.loads))
        dumps = staticmethod(recorder.wrap("service.protocol.encode", real_json.dumps))

    server.json = TracedJson

    # Each request becomes a root span named by the client's X-Trace-Id.
    make_handler = server._make_handler

    def traced_make_handler(*args, **kwargs):
        handler = make_handler(*args, **kwargs)
        route = handler._route

        def traced_route(self, method):
            with recorder.span("service.server.route", op=self.headers.get("X-Trace-Id")):
                return route(self, method)

        handler._route = traced_route
        return handler

    server._make_handler = traced_make_handler


def span_cost_seconds(calls: int = 20000) -> float:
    """Extra seconds one wrapped call costs over a bare one (best of 3)."""
    recorder = Recorder()

    def noop():
        return None

    traced = recorder.wrap("calibration", noop)
    bare = wrapped = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = min(bare, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        wrapped = min(wrapped, time.perf_counter() - t0)
    return max(wrapped - bare, 0.0) / calls


#: Span name -> its self-time metric (ms per operation).
SELF_TIME_METRICS = {
    "core.fdx.validate": "core.fdx.validate_ms",
    "core.transform": "core.transform.ms",
    "core.transform.center": "core.transform.center_ms",
    "core.structure": "core.structure.ms",
    "linalg.covariance": "linalg.covariance.ms",
    "linalg.model_selection": "linalg.model_selection.refit_ms",
    "linalg.glasso": "linalg.glasso.ms",
    "linalg.cholesky.factorize": "linalg.cholesky.factorize_ms",
    "linalg.cholesky.reorder": "linalg.cholesky.reorder_ms",
    "core.fdx.generate_fds": "core.fdx.generate_fds_ms",
    "obs.explain.evidence": "obs.explain.evidence_ms",
    "dataset.relation_build": "dataset.relation_build_ms",
    "service.protocol.decode": "service.protocol.decode_ms",
    "service.protocol.encode": "service.protocol.encode_ms",
    "service.cache.fingerprint": "service.cache.fingerprint_ms",
    "service.jobs.run": "service.jobs.run_ms",
    "service.server.route": "service.server.handler_ms",
    "service.sessions.append": "service.sessions.append_ms",
    "core.incremental.add_batch": "core.incremental.add_batch_ms",
    "streaming.drift.update": "streaming.drift.update_ms",
    "service.sessions.refresh": "service.sessions.refresh_ms",
    "streaming.refresh": "streaming.refresh.ms",
    "core.incremental.solve": "core.incremental.solve_ms",
}


def _assembly_seconds(discover: Span) -> float:
    """What FDX.discover does after FD generation outside child spans:
    diagnostics and the result object."""
    generated = [c.end for c in discover.children if c.name == "core.fdx.generate_fds"]
    if not generated:
        return 0.0
    after = max(generated)
    later = sum(c.duration for c in discover.children if c.start >= after)
    return max(discover.end - after - later, 0.0)


def layer_metrics(
    spans: list[Span],
    roots: dict[str, float],
    transport_root: str | None,
    span_cost: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``roots`` maps each timed operation's id to its wall seconds as the
    caller measured them; spans of anything else (warm-up, scrapes, the
    oracle) are ignored. When ``transport_root`` names the server's
    request span, an operation's time outside its root spans is transport
    time; otherwise it is unaccounted.
    """
    spans = [s for s in spans if s.op in roots]
    for span in spans:
        span.children = []
    for span in spans:
        if span.parent is not None:
            span.parent.children.append(span)
    n_ops = max(len(roots), 1)
    wall = sum(roots.values())
    own = dict.fromkeys(SELF_TIME_METRICS, 0.0)
    inclusive: dict[str, float] = {}
    covered = dict.fromkeys(roots, 0.0)
    assembly = unaccounted = 0.0
    for span in spans:
        self_time = span.duration - sum(c.duration for c in span.children)
        inclusive[span.name] = inclusive.get(span.name, 0.0) + span.duration
        if span.parent is None:
            covered[span.op] += span.duration
        if span.name == "core.fdx.discover":
            part = min(_assembly_seconds(span), self_time)
            assembly += part
            unaccounted += self_time - part
        else:
            own[span.name] += self_time
    outside = sum(max(seconds - covered[op], 0.0) for op, seconds in roots.items())
    transport = outside if transport_root is not None else 0.0
    if transport_root is None:
        unaccounted += outside

    def ms(seconds: float) -> float:
        return 1000.0 * seconds / n_ops

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    glasso = named("linalg.glasso")
    warm = [s for s in glasso if s.attrs.get("warm")]
    iterations = sum(s.attrs.get("iterations", 0) for s in glasso)
    covariance = [s for s in named("linalg.covariance") if "rows" in s.attrs]
    selections = named("linalg.model_selection")
    resilient = [s for s in named("core.structure") if "degraded" in s.attrs]
    selection_seconds = inclusive.get("linalg.model_selection", 0.0)
    metrics = {metric: ms(own[name]) for name, metric in SELF_TIME_METRICS.items()}
    metrics.update({
        "core.fdx.assembly_ms": ms(assembly),
        "service.server.transport_ms": ms(transport),
        "unaccounted_ms": ms(unaccounted),
        "unaccounted_share": ratio(unaccounted, wall),
        "traced_op_ms": ms(wall),
        "tracing_overhead_share": ratio(len(spans) * span_cost, wall),
        "core.transform.share": ratio(
            own["core.transform"] + own["core.transform.center"], wall
        ),
        "core.transform.cells_per_s": ratio(
            sum(s.attrs.get("cells", 0) for s in named("core.transform")),
            own["core.transform"],
        ),
        "linalg.covariance.rows_in": ratio(
            sum(s.attrs["rows"] for s in covariance), len(covariance)
        ),
        "linalg.model_selection.ebic_ms": ms(selection_seconds),
        "linalg.model_selection.share": ratio(selection_seconds, wall),
        "linalg.model_selection.grid_points": ratio(
            sum(s.attrs.get("grid_points", 0) for s in selections), len(selections)
        ),
        "linalg.glasso.calls": len(glasso) / n_ops,
        "linalg.glasso.iterations": ratio(iterations, len(glasso)),
        "linalg.glasso.ms_per_iteration": ratio(1000.0 * own["linalg.glasso"], iterations),
        "linalg.glasso.converged_ratio": ratio(
            sum(1 for s in glasso if s.attrs.get("converged")), len(glasso)
        ),
        "linalg.glasso.warm_iterations": ratio(
            sum(s.attrs.get("iterations", 0) for s in warm), len(warm)
        ),
        "core.structure.fallback_ratio": ratio(
            sum(1 for s in resilient if s.attrs["degraded"]), len(resilient)
        ),
    })
    return metrics
