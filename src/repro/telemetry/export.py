"""Chrome trace-event JSON export.

:func:`chrome_trace` renders a flat profiler trace (a profiler's
``ProfileEvent``s, or a JSONL dump loaded with ``read_events``) as a
Chrome trace-event document — load it in Perfetto
(https://ui.perfetto.dev) or ``about://tracing``:

* one *thread* track per entity — the client (session, ``entk_*``
  toolkit spans, pattern spans), each pilot, each unit — with the
  reconstructed spans as ``"X"`` complete events (``cat`` = the Fig. 3
  component, so Perfetto can color/aggregate by component);
* the metric series of :meth:`MetricsRegistry.from_events` (recorded
  ``metric`` events plus the derived ``units.<STATE>`` gauges) become
  ``"C"`` counter tracks;
* fault markers (task/node/pilot failures) become ``"i"`` instants.

Timestamps are emitted in microseconds of sim (or wall) time.  The
serialization (:func:`write_chrome_trace`) uses sorted keys and fixed
separators so same-seed runs produce byte-identical files — the
determinism tests diff these bytes directly.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.sink import ProfileEvent
from repro.telemetry.span import Span, SpanTree, SpanBuilder, component_of

__all__ = ["chrome_trace", "write_chrome_trace"]

_PID = 1

#: Point events surfaced as global instants in the rendered trace.
_INSTANT_NAMES = frozenset({
    "task_fault",
    "node_fail",
    "node_repair",
    "pilot_fault",
    "pilot_resubmit",
    "unit_node_kill",
    "unit_pilot_kill",
})


def _us(t: float) -> float:
    return t * 1e6


def _track_of(span: Span, tree: SpanTree) -> str:
    """The entity track a span renders on: its nearest unit/pilot ancestor."""
    current: Span | None = span
    while current is not None:
        if current.name == "unit":
            return f"unit {current.ref}"
        if current.name == "pilot":
            return f"pilot {current.ref}"
        current = tree.spans.get(current.parent or "")
    return "client"


def chrome_trace(events: Iterable[ProfileEvent]) -> dict[str, Any]:
    """Render a flat event trace as a Chrome trace-event document."""
    events = list(events)
    tree = SpanBuilder().add_events(events).build()

    spans = sorted(tree, key=lambda span: (span.t_start, span.uid))
    tids: dict[str, int] = {"client": 1}
    for span in spans:
        track = _track_of(span, tree)
        if track not in tids:
            tids[track] = len(tids) + 1

    trace_events: list[dict[str, Any]] = []
    trace_events.append({
        "ph": "M", "pid": _PID, "tid": 0, "name": "process_name",
        "args": {"name": "repro"},
    })
    for track, tid in tids.items():  # insertion order: first appearance
        trace_events.append({
            "ph": "M", "pid": _PID, "tid": tid, "name": "thread_name",
            "args": {"name": track},
        })

    for span in spans:
        args = {"uid": span.uid, "ref": span.ref}
        args.update(
            (key, value)
            for key, value in sorted(span.attrs.items())
            if isinstance(value, (str, int, float, bool))
        )
        trace_events.append({
            "ph": "X", "pid": _PID, "tid": tids[_track_of(span, tree)],
            "name": span.name, "cat": component_of(span),
            "ts": _us(span.t_start), "dur": _us(span.duration),
            "args": args,
        })

    registry = MetricsRegistry.from_events(events)
    counters = [(t, name, v) for name in registry.names()
                for t, v in registry.series(name).points]
    counters.sort(key=lambda point: point[:2])  # stable: series order
    for time, name, value in counters:
        trace_events.append({
            "ph": "C", "pid": _PID, "tid": 0, "name": name,
            "cat": "metric", "ts": _us(time), "args": {"value": value},
        })

    instants = [ev for ev in events if ev.name in _INSTANT_NAMES]
    instants.sort(key=lambda ev: (ev.time, ev.name, ev.uid))
    for ev in instants:
        trace_events.append({
            "ph": "i", "pid": _PID, "tid": 0, "s": "g",
            "name": f"{ev.name} {ev.uid}", "cat": "fault",
            "ts": _us(ev.time), "args": {},
        })

    return {"displayTimeUnit": "ms", "traceEvents": trace_events}


def write_chrome_trace(events: Iterable[ProfileEvent], path: Any) -> None:
    """Serialize :func:`chrome_trace` output byte-deterministically."""
    doc = chrome_trace(events)
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.write("\n")
