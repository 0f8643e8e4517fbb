"""Order-insensitive projections of a finished run's trace.

Two traces that differ only in the order of events *within one
timestamp*, or in how the unit lifecycle's records are batched, have
equal projections: every unit's lifecycle records with their times
(:func:`per_unit`), the span tree, the critical path, the Fig. 3 breakdown, the
fault summary, and every metric's value at the end of each distinct
event time.  Tests pin the :func:`digests` of these projections, so a
change that reorders a trace on purpose can show it changed nothing
else.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from typing import Any

from repro.analytics.faults import fault_recovery_summary
from repro.core.profiler import breakdown_from_profile
from repro.telemetry import MetricsRegistry, SpanBuilder, critical_path
from repro.telemetry.sink import LIFECYCLE_EVENTS, ProfileEvent, TraceIndex, expand

#: Each unit's lifecycle records, as :func:`per_unit` names them.
STATE_EVENTS = ("unit_new", "unit_state")
SLOT_EVENTS = ("unit_slots",)


def per_unit(events) -> list:
    """*events* with every lifecycle batch event replaced by one event
    per member (``units_<kind>`` becomes ``unit_<kind>``), carrying the
    member's own fields: the records a trace of one event per unit
    holds."""
    out = []
    for ev in events:
        if ev.name in LIFECYCLE_EVENTS:
            name = "unit_" + ev.name[len("units_"):]
            out.extend(ProfileEvent(ev.time, name, uid, attrs)
                       for uid, attrs in expand(ev))
        else:
            out.append(ev)
    return out


def one_per_unit(events) -> list:
    """*events* with every lifecycle batch event split into one batch of
    one per member, each carrying the member's own fields: the trace a
    writer of one event per unit would have written, in the one format."""
    out = []
    for ev in events:
        if ev.name not in LIFECYCLE_EVENTS:
            out.append(ev)
            continue
        for uid, attrs in expand(ev):
            serial = int(uid.rpartition(".")[2])
            one = dict(attrs, n=1, members=[[serial, 1]])
            for key in ("cores", "slots"):
                if key in attrs:
                    one["widths"] = attrs[key]
            out.append(ProfileEvent(ev.time, ev.name, uid, one))
    return out


def _event_key(ev) -> tuple:
    return (ev.time, ev.name, sorted(ev.attrs.items()))


def _by_unit(events, names) -> dict[str, list]:
    """Each unit's events named in *names*, in trace order."""
    out: dict[str, list] = {}
    for ev in events:
        if ev.name in names:
            out.setdefault(ev.uid, []).append(_event_key(ev))
    return out


def phase_spans(tree, names) -> list:
    """The spans of *tree* named in *names*, as sorted (name, ref,
    start, end) keys with their multiplicity."""
    counts = Counter(
        (s.name, s.ref, s.t_start, s.t_end) for s in tree if s.name in names
    )
    return sorted(counts.items())


def project(events, pattern=None) -> dict[str, Any]:
    """The order-insensitive projections of *events* (a finished run's
    trace); the critical path and breakdown need the run's *pattern*."""
    events = list(events)
    index = TraceIndex(events)
    tree = SpanBuilder().add_events(events).build()
    registry = MetricsRegistry.from_events(events)
    times = sorted({ev.time for ev in events})
    records = per_unit(events)
    out: dict[str, Any] = {
        "states": _by_unit(records, STATE_EVENTS),
        "slots": _by_unit(records, SLOT_EVENTS),
        "events": sorted(
            (ev.time, ev.name, ev.uid, sorted(ev.attrs.items()))
            for ev in records
        ),
        "spans": sorted(
            (s.uid, s.name, s.ref, s.t_start, s.t_end, s.parent,
             sorted(s.attrs.items()))
            for s in tree
        ),
        "faults": fault_recovery_summary(index).as_dict(),
        "metrics": {
            name: [registry.series(name).value_at(t) for t in times]
            for name in sorted(registry.names())
        },
    }
    if pattern is not None:
        path = critical_path(tree, pattern.uid)
        out["critical_path"] = (
            [(s.t_start, s.t_end, s.component) for s in path.segments],
            path.total,
        )
        out["breakdown"] = breakdown_from_profile(index, pattern).as_dict()
    return out


def digest(value: Any) -> str:
    """A short stable digest of one projection."""
    payload = json.dumps(value, sort_keys=True, separators=(",", ":"),
                         default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def digests(projection: dict[str, Any]) -> dict[str, str]:
    return {name: digest(value) for name, value in projection.items()}
