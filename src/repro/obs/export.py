"""Chrome trace-event export: render traces and flight dumps as timelines.

Converts observability events — span ``to_dict`` payloads, request log
lines, and flight-recorder entries — into the Chrome trace-event JSON
format, which https://ui.perfetto.dev (and ``chrome://tracing``) load
directly. Spans become ``"X"`` complete events with microsecond
timestamps; requests, triggers, metric deltas, and state transitions
become ``"i"`` instant markers on the same timeline.

Track layout: each trace id becomes one *process* row (named with the
trace id), and within it spans are grouped by their origin OS process
(the handler vs. each worker pid, read from the ``worker_pid``
attribute). Because sibling spans can overlap in time (catalog tables
supervised on pool threads), each origin group is split greedily into *lanes*: a
span goes to the first lane where it either nests inside the open span
or starts after the lane's last end, so the viewer never has to render
partially overlapping slices on one track.

Inputs come from :func:`load_events` (an obs JSONL file or a flight
dump — flight ``span``/``request`` entries are unwrapped back into sink
events) or any in-memory event list (``InMemorySink.events()``,
``FlightRecorder.events()``).
"""

from __future__ import annotations

import json
from typing import Iterable

__all__ = ["chrome_trace_events", "load_events", "write_chrome_trace"]

_EPS = 1e-9


def load_events(path: str) -> list[dict]:
    """Read a JSONL obs log or flight dump into sink-shaped event dicts.

    Flight-dump lines (``{"kind": ..., "data": {...}}``) are unwrapped
    so a ``span`` flight entry is indistinguishable from the original
    ``Span.to_dict`` event; obs JSONL lines pass through unchanged.
    """
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            event = json.loads(line)
            if "type" not in event and "kind" in event:
                event = _unwrap_flight(event)
                if event is None:
                    continue
            events.append(event)
    return events


def _unwrap_flight(entry: dict) -> dict | None:
    kind = entry.get("kind")
    if kind == "dump":  # dump header line: provenance, not an event
        return None
    event = dict(entry.get("data") or {})
    event["type"] = kind
    if "trace_id" in entry:
        event.setdefault("trace_id", entry["trace_id"])
    event.setdefault("ts", entry.get("ts"))
    return event


def chrome_trace_events(
    events: Iterable[dict], trace_id: str | None = None
) -> list[dict]:
    """Convert obs events into Chrome trace-event dicts.

    ``trace_id`` filters to one trace; by default every trace in
    ``events`` gets its own process row.
    """
    spans: list[dict] = []
    instants: list[dict] = []
    for event in events:
        if trace_id is not None and event.get("trace_id") not in (trace_id, None):
            continue
        if event.get("type") == "span" and "span_id" in event:
            spans.append(event)
        else:
            instants.append(event)

    trace_pids: dict[str, int] = {}
    out: list[dict] = []

    def pid_for(tid_trace: str | None) -> int:
        key = tid_trace or "untraced"
        if key not in trace_pids:
            trace_pids[key] = len(trace_pids) + 1
            out.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": trace_pids[key],
                    "tid": 0,
                    "args": {"name": f"trace {key}"},
                }
            )
        return trace_pids[key]

    # Group spans by (trace, origin process), then lane-assign within
    # each group so overlapping siblings land on separate tracks.
    groups: dict[tuple[str, str], list[dict]] = {}
    for span in spans:
        origin = str((span.get("attributes") or {}).get("worker_pid", "handler"))
        groups.setdefault((span.get("trace_id") or "untraced", origin), []).append(span)

    tid_counter: dict[str, int] = {}
    for (span_trace, origin), group in sorted(groups.items()):
        pid = pid_for(span_trace)
        base_tid = tid_counter.get(span_trace, 0)
        lanes = _assign_lanes(group)
        n_lanes = max(lane for _, lane in lanes) + 1 if lanes else 0
        label = "handler" if origin == "handler" else f"worker {origin}"
        for lane_index in range(n_lanes):
            tid = base_tid + lane_index + 1
            lane_label = label if n_lanes == 1 else f"{label} #{lane_index + 1}"
            out.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": lane_label},
                }
            )
        for span, lane in lanes:
            attributes = dict(span.get("attributes") or {})
            args = {
                "trace_id": span.get("trace_id"),
                "span_id": span.get("span_id"),
                "parent_id": span.get("parent_id"),
                **attributes,
            }
            out.append(
                {
                    "ph": "X",
                    "name": span["name"],
                    "cat": "span",
                    "ts": float(span.get("started_at") or 0.0) * 1e6,
                    "dur": max(0.0, float(span.get("duration_seconds") or 0.0)) * 1e6,
                    "pid": pid,
                    "tid": base_tid + lane + 1,
                    "args": args,
                }
            )
        tid_counter[span_trace] = base_tid + n_lanes

    for event in instants:
        ts = event.get("ts")
        if ts is None:
            continue
        kind = event.get("type", "event")
        name = _instant_name(kind, event)
        out.append(
            {
                "ph": "i",
                "s": "p",
                "name": name,
                "cat": kind,
                "ts": float(ts) * 1e6,
                "pid": pid_for(event.get("trace_id")),
                "tid": 0,
                "args": {
                    k: v
                    for k, v in event.items()
                    if k not in ("type", "ts") and _jsonable(v)
                },
            }
        )
    return out


def _instant_name(kind: str, event: dict) -> str:
    if kind == "request":
        return (
            f"{event.get('method', '?')} {event.get('path', '?')}"
            f" -> {event.get('status', '?')}"
        )
    if kind == "trigger":
        return f"trigger: {event.get('reason', '?')}"
    if kind == "metric":
        return f"metric: {event.get('name', '?')} +{event.get('delta', '?')}"
    if kind == "state":
        return f"state: {event.get('state', event.get('event', kind))}"
    return kind


def _jsonable(value) -> bool:
    return isinstance(value, (str, int, float, bool, dict, list, type(None)))


def _assign_lanes(spans: list[dict]) -> list[tuple[dict, int]]:
    """Greedy lane assignment: nested-or-sequential spans share a lane.

    Each lane keeps a stack of open-interval end times. A span fits a
    lane when, after popping intervals that ended before it starts, it
    is either the lane's first span or nests inside the lane's open
    span. Sorting by (start, -duration) places parents before their
    children.
    """
    ordered = sorted(
        spans,
        key=lambda s: (
            float(s.get("started_at") or 0.0),
            -float(s.get("duration_seconds") or 0.0),
        ),
    )
    lanes: list[list[float]] = []
    placed: list[tuple[dict, int]] = []
    for span in ordered:
        start = float(span.get("started_at") or 0.0)
        end = start + max(0.0, float(span.get("duration_seconds") or 0.0))
        lane_index = None
        for i, stack in enumerate(lanes):
            while stack and start >= stack[-1] - _EPS:
                stack.pop()
            if not stack or end <= stack[-1] + _EPS:
                stack.append(end)
                lane_index = i
                break
        if lane_index is None:
            lanes.append([end])
            lane_index = len(lanes) - 1
        placed.append((span, lane_index))
    return placed


def write_chrome_trace(
    events: Iterable[dict], path: str, trace_id: str | None = None
) -> dict:
    """Write a Perfetto-loadable Chrome trace JSON file.

    Returns a small summary (event and trace counts) for CLI reporting.
    """
    trace_events = chrome_trace_events(events, trace_id=trace_id)
    body = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, default=str)
    traces = {
        e["args"].get("trace_id")
        for e in trace_events
        if e.get("ph") == "X" and isinstance(e.get("args"), dict)
    }
    return {
        "path": path,
        "trace_events": len(trace_events),
        "spans": sum(1 for e in trace_events if e.get("ph") == "X"),
        "traces": len({t for t in traces if t}),
    }
