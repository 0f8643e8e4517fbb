"""The causal span model.

A :class:`Span` is one named interval of (virtual or wall) time attached
to an entity — the session, a pattern, a pilot, a compute unit — with a
parent span and free-form attributes.  Two sources produce spans:

* **derived** — :class:`SpanBuilder` reconstructs the span tree from the
  flat profiler trace: the paired ``entk_*`` client events, the pilot
  lifecycle events, and each unit's state sequence, read from the
  members of the ``units_state`` batch events that name it (every
  interval between consecutive state entries becomes one
  ``unit:<STATE>`` phase span).  The agent's phases are derived from
  the same sequence: ``agent.stage_in`` and ``agent.stage_out`` span
  the ``AGENT_STAGING_INPUT`` and ``AGENT_STAGING_OUTPUT`` states, and
  ``exec.launch`` spans from the ``units_slots`` event that names the
  unit to its next state (``EXECUTING``, unless the unit is killed while
  launching), in whichever launch group the unit starts;
* **explicit** — :class:`Tracer` emits ``span_open``/``span_close``
  event pairs from instrumented code (``with tracer.span(...)``), with
  causal parenthood tracked on a per-thread stack.  Only work that no
  lifecycle event brackets is traced this way: ``driver.submit``,
  ``umgr.submit``, ``pmgr.submit`` and the local ``exec.payload``.

The agent's phase spans are always derived; an explicit span of the same
name would stand beside them, not replace them.

The builder takes :class:`~repro.telemetry.sink.ProfileEvent` objects
in any order (it sorts by timestamp, stably): a profiler's own, or a
JSONL trace dump loaded with :func:`~repro.telemetry.sink.read_events`,
so the ``repro trace`` CLI and the in-process analytics share one code
path.

This module must not import the pilot layer at runtime (the session
imports *us*).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping

from repro.telemetry.sink import (
    LIFECYCLE_EVENTS,
    NEW,
    SLOTS,
    ProfileEvent,
    TraceIndex,
    member_patterns,
    member_uids,
)
from repro.utils.ids import generate_id

__all__ = ["Span", "SpanTree", "SpanBuilder", "Tracer", "component_of"]

#: Span names whose time the paper books as EnTK *core* overhead.
_CORE_SPAN_NAMES = frozenset({"entk_init", "entk_alloc", "entk_cancel"})
#: Span names booked as EnTK *pattern* overhead.
_PATTERN_SPAN_NAMES = frozenset({"entk_stage_create", "entk_pattern_overhead"})
#: The one span name booked as application execution.
_EXEC_SPAN_NAME = "unit:EXECUTING"
#: Agent phase spans derived from unit state intervals: the state a
#: staging phase spans, by span name.
_STAGING_PHASES = {
    "AGENT_STAGING_INPUT": "agent.stage_in",
    "AGENT_STAGING_OUTPUT": "agent.stage_out",
}
_LAUNCH_SPAN_NAME = "exec.launch"


#: The attributes of every span that has none: one shared, read-only
#: mapping instead of an empty dict per span.
_NO_ATTRS: Mapping[str, Any] = MappingProxyType({})


def _no_attrs() -> Mapping[str, Any]:
    return _NO_ATTRS


def _copy_attrs(attrs: Mapping[str, Any]) -> Mapping[str, Any]:
    """A span's own copy of *attrs*, or the shared mapping when empty."""
    return dict(attrs) if attrs else _NO_ATTRS


@dataclass(slots=True)
class Span:
    """One named, causally-parented time interval.

    ``uid`` identifies the span; ``ref`` names the runtime entity the
    span belongs to (a unit, pilot, pattern or session uid), which is
    how explicit spans without a recorded parent find their place in
    the tree.  A span without attributes shares one read-only empty
    ``attrs`` mapping.
    """

    uid: str
    name: str
    t_start: float
    t_end: float
    parent: str | None = None
    ref: str = ""
    attrs: Mapping[str, Any] = field(default_factory=_no_attrs)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name} [{self.t_start:.3f}, {self.t_end:.3f}] "
            f"ref={self.ref!r}>"
        )


def component_of(span: Span) -> str:
    """Which Fig. 3 component a span's time is booked under.

    Explicit spans may carry a ``component`` attribute; derived spans
    are classified by name.  Everything unclassified is *runtime* —
    the paper's catch-all for what the pilot system adds.
    """
    explicit = span.attrs.get("component")
    if explicit:
        return str(explicit)
    if span.name in _CORE_SPAN_NAMES:
        return "core"
    if span.name in _PATTERN_SPAN_NAMES:
        return "pattern"
    if span.name == _EXEC_SPAN_NAME:
        return "execution"
    return "runtime"


class Tracer:
    """Emits explicit ``span_open``/``span_close`` pairs into a profiler.

    ``span()`` is the context manager for synchronous sections; it also
    pushes the span onto a per-thread stack so nested spans (and manual
    ``begin()`` calls made underneath) record their causal parent.
    ``begin()``/``end()`` are the manual API for asynchronous sections
    that open in one event callback and close in another — they record
    the parent active at ``begin`` time but do not occupy the stack.

    Span uids come from :func:`repro.utils.ids.generate_id`, so traces
    stay bit-identical across same-seed runs (the id counters are part
    of the deterministic replay state).
    """

    def __init__(self, profiler: Any) -> None:
        self._prof = profiler
        self._local = threading.local()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def begin(
        self, name: str, ref: str = "", *, component: str = "", **attrs: Any
    ) -> str:
        """Open a span; returns its uid (pass to :meth:`end`)."""
        uid = generate_id("span", width=6)
        stack = self._stack()
        if component:
            attrs["component"] = component
        self._prof.event("span_open", uid, span=name, ref=ref,
                         parent=stack[-1] if stack else "", **attrs)
        return uid

    def end(self, uid: str) -> None:
        """Close a span opened with :meth:`begin`."""
        self._prof.event("span_close", uid)

    @contextmanager
    def span(
        self, name: str, ref: str = "", *, component: str = "", **attrs: Any
    ) -> Iterator[str]:
        """Context manager: open a span, nest children under it, close it."""
        uid = self.begin(name, ref, component=component, **attrs)
        stack = self._stack()
        stack.append(uid)
        try:
            yield uid
        finally:
            stack.pop()
            self.end(uid)


@dataclass
class SpanTree:
    """The reconstructed span tree: one root plus a uid index."""

    root: Span
    spans: dict[str, Span]

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans.values())

    def __len__(self) -> int:
        return len(self.spans)

    def find(self, name: str | None = None, ref: str | None = None) -> list[Span]:
        """Spans filtered by name and/or entity ref, in creation order."""
        return [
            span
            for span in self.spans.values()
            if (name is None or span.name == name)
            and (ref is None or span.ref == ref)
        ]

    def _parents(self, spans: Iterable[Span]) -> set[str]:
        """Uids of the spans that *spans* hang off: each one's recorded
        parent, or the root when that parent is unknown or itself."""
        root, known = self.root, self.spans
        return {
            span.parent
            if span.parent in known and span.parent != span.uid
            else root.uid
            for span in spans
            if span is not root
        }

    def leaves(self) -> list[Span]:
        """Spans that no other span hangs off, in creation order."""
        parents = self._parents(self.spans.values())
        return [span for span in self.spans.values() if span.uid not in parents]

    def pattern(self, uid: str | None = None) -> Span | None:
        """The pattern span (by uid, or the innermost one when unique).

        With nested patterns (a :class:`PatternSequence` wrapping its
        constituents) and no explicit uid, the *first leaf-most* pattern
        span is returned — the one actual runs hang their units off.
        """
        patterns = self.find(name="pattern")
        if uid is not None:
            for span in patterns:
                if span.ref == uid:
                    return span
            return None
        if not patterns:
            return None
        outer = self._parents(patterns)
        inner = [span for span in patterns if span.uid not in outer]
        return inner[0] if inner else patterns[0]


class SpanBuilder:
    """Reconstructs the causal span tree from the flat event trace.

    Feed :class:`ProfileEvent`s with :meth:`add_events` (any iterable,
    any order), then call :meth:`build`.
    """

    def __init__(self) -> None:
        self._events: list[ProfileEvent] = []

    def add_events(self, events: Iterable[ProfileEvent]) -> "SpanBuilder":
        self._events.extend(events)
        return self

    # -- construction ------------------------------------------------------

    def build(self) -> SpanTree:
        if not self._events:
            raise ValueError("no events to build a span tree from")
        events = sorted(self._events, key=lambda ev: ev.time)  # stable
        t_trace_end = events[-1].time
        # Each derivation pass reads only the event names it handles, in
        # time order, from one index that build() drops when it returns.
        trace = TraceIndex(events)

        spans: dict[str, Span] = {}

        def add(span: Span) -> Span:
            spans[span.uid] = span
            return span

        root = add(self._session_span(trace, events[0].time, t_trace_end))

        for name in ("entk_init", "entk_alloc", "entk_cancel"):
            for i, (uid, t0, t1, attrs) in enumerate(
                self._paired(trace, f"{name}_start", f"{name}_stop")
            ):
                add(Span(f"{name}:{i}", name, t0, t1,
                         parent=root.uid, ref=uid, attrs=_copy_attrs(attrs)))

        self._pattern_spans(trace, spans, root, t_trace_end)
        self._pilot_spans(trace, spans, root, t_trace_end)
        self._unit_spans(trace, spans, root, t_trace_end)
        self._explicit_spans(trace, spans, root, t_trace_end)
        return SpanTree(root=root, spans=spans)

    # -- derivation passes -------------------------------------------------

    @staticmethod
    def _paired(
        trace: TraceIndex, start_name: str, stop_name: str
    ) -> list[tuple[str, float, float, Mapping[str, Any]]]:
        """Match *start*/*stop* events per uid, in order of occurrence."""
        open_by_uid: dict[str, list[tuple[float, Mapping[str, Any]]]] = {}
        pairs: list[tuple[str, float, float, Mapping[str, Any]]] = []
        for ev in trace.select(start_name, stop_name):
            if ev.name == start_name:
                open_by_uid.setdefault(ev.uid, []).append((ev.time, ev.attrs))
            elif ev.name == stop_name and open_by_uid.get(ev.uid):
                t0, attrs = open_by_uid[ev.uid].pop(0)
                pairs.append((ev.uid, t0, ev.time, attrs))
        pairs.sort(key=lambda pair: pair[1])  # stable: by start time
        return pairs

    def _session_span(
        self, trace: TraceIndex, t_first: float, t_trace_end: float
    ) -> Span:
        starts = trace.events("session_start")
        closes = trace.events("session_close")
        uid = starts[0].uid if starts else "session"
        t0 = starts[0].time if starts else t_first
        t1 = closes[-1].time if closes else t_trace_end
        return Span(f"session:{uid}", "session", t0, max(t1, t_trace_end),
                    parent=None, ref=uid)

    def _pattern_spans(
        self, trace: TraceIndex, spans: dict[str, Span], root: Span,
        t_trace_end: float,
    ) -> None:
        patterns = self._paired(trace, "entk_pattern_start",
                                "entk_pattern_stop")
        # Unstopped patterns (crashed run) still deserve a span.
        stopped = [uid for uid, _, _, _ in patterns]
        for ev in trace.events("entk_pattern_start"):
            if ev.uid not in stopped:
                patterns.append((ev.uid, ev.time, t_trace_end, ev.attrs))
        for uid, t0, t1, attrs in patterns:
            spans[f"pattern:{uid}"] = Span(
                f"pattern:{uid}", "pattern", t0, t1, parent=root.uid,
                ref=uid, attrs=_copy_attrs(attrs),
            )
        # Nest patterns by strict containment (PatternSequence wrappers).
        pattern_spans = [s for s in spans.values() if s.name == "pattern"]
        for span in pattern_spans:
            enclosing = [
                other
                for other in pattern_spans
                if other is not span
                and other.t_start <= span.t_start
                and span.t_end <= other.t_end
                and other.duration > span.duration
            ]
            if enclosing:
                enclosing.sort(key=lambda s: (s.duration, s.uid))
                span.parent = enclosing[0].uid

        create_counts: dict[str, int] = {}
        for uid, t0, t1, attrs in self._paired(
            trace, "entk_stage_create_start", "entk_stage_create_stop"
        ):
            i = create_counts.get(uid, 0)
            create_counts[uid] = i + 1
            parent = f"pattern:{uid}" if f"pattern:{uid}" in spans else root.uid
            key = f"entk_stage_create:{uid}:{i}"
            spans[key] = Span(key, "entk_stage_create", t0, t1,
                              parent=parent, ref=uid, attrs=_copy_attrs(attrs))

        # The charged pattern overhead delays delivery of a batch starting
        # at the moment it is recorded; book it as a [t, t+seconds] span.
        charge_counts: dict[str, int] = {}
        for ev in trace.events("entk_pattern_overhead"):
            seconds = float(ev.attrs.get("seconds", 0.0))
            i = charge_counts.get(ev.uid, 0)
            charge_counts[ev.uid] = i + 1
            parent = (f"pattern:{ev.uid}"
                      if f"pattern:{ev.uid}" in spans else root.uid)
            key = f"entk_pattern_overhead:{ev.uid}:{i}"
            spans[key] = Span(key, "entk_pattern_overhead", ev.time,
                              ev.time + seconds, parent=parent, ref=ev.uid,
                              attrs=_copy_attrs(ev.attrs))

    def _pilot_spans(
        self, trace: TraceIndex, spans: dict[str, Span], root: Span,
        t_trace_end: float,
    ) -> None:
        submits: dict[str, float] = {}
        ends: dict[str, float] = {}
        startup_open: dict[str, float] = {}
        startup_count: dict[str, int] = {}
        for ev in trace.select("pilot_submit", "pilot_resubmit", "agent_start",
                               "agent_stop", "agent_abort", "pilot_cancel"):
            if ev.name == "pilot_submit":
                submits.setdefault(ev.uid, ev.time)
                startup_open[ev.uid] = ev.time
            elif ev.name == "pilot_resubmit":
                startup_open[ev.uid] = ev.time
            elif ev.name == "agent_start" and ev.uid in startup_open:
                i = startup_count.get(ev.uid, 0)
                startup_count[ev.uid] = i + 1
                key = f"pilot_startup:{ev.uid}:{i}"
                spans[key] = Span(key, "pilot_startup",
                                  startup_open.pop(ev.uid), ev.time,
                                  parent=f"pilot:{ev.uid}", ref=ev.uid)
            elif ev.name in ("agent_stop", "agent_abort", "pilot_cancel"):
                ends[ev.uid] = ev.time
        for uid, t0 in submits.items():
            spans[f"pilot:{uid}"] = Span(
                f"pilot:{uid}", "pilot", t0, ends.get(uid, t_trace_end),
                parent=root.uid, ref=uid,
            )

    def _unit_spans(
        self, trace: TraceIndex, spans: dict[str, Span], root: Span,
        t_trace_end: float,
    ) -> None:
        created, states, launches = self._lifecycles(trace, t_trace_end)
        for uid in sorted(set(created) | set(states)):
            t_created, pattern_uid = created.get(uid, (None, ""))
            seq = states.get(uid, [])
            t0 = t_created if t_created is not None else seq[0][0]
            t1 = seq[-1][0] if seq else t_trace_end
            parent = (f"pattern:{pattern_uid}"
                      if f"pattern:{pattern_uid}" in spans else root.uid)
            container = Span(f"unit:{uid}", "unit", t0, t1, parent=parent,
                             ref=uid, attrs={"pattern": pattern_uid})
            spans[container.uid] = container
            for i in range(len(seq) - 1):
                t_phase, state = seq[i]
                key = f"unit:{uid}:{i}"
                spans[key] = Span(key, f"unit:{state}", t_phase,
                                  seq[i + 1][0], parent=container.uid,
                                  ref=uid)
            self._phase_spans(spans, container.uid, uid, seq,
                              launches.get(uid, ()), t_trace_end)

    @staticmethod
    def _lifecycles(
        trace: TraceIndex, t_trace_end: float,
    ) -> tuple[dict[str, tuple[float, str]],
               dict[str, list[tuple[float, str]]],
               dict[str, list[tuple[float, float]]]]:
        """Per unit, from the lifecycle batch events' members: its
        creation time and pattern uid, the (time, state) sequence of its
        state events, and its launch intervals, each from a slots event
        to the unit's next state event (or the end of the trace)."""
        created: dict[str, tuple[float, str]] = {}
        states: dict[str, list[tuple[float, str]]] = {}
        launching: dict[str, float] = {}
        launches: dict[str, list[tuple[float, float]]] = {}
        for ev in trace.select(*LIFECYCLE_EVENTS):
            name = ev.name
            if name == NEW:
                for uid, pattern in zip(member_uids(ev), member_patterns(ev)):
                    created.setdefault(uid, (ev.time, str(pattern)))
            elif name == SLOTS:
                for uid in member_uids(ev):
                    launching[uid] = ev.time
            else:
                entry = (ev.time, str(ev.attrs.get("state", "")))
                for uid in member_uids(ev):
                    seq = states.get(uid)
                    if seq is None:
                        states[uid] = [entry]
                    else:
                        seq.append(entry)
                    if launching:
                        t_launch = launching.pop(uid, None)
                        if t_launch is not None:
                            launches.setdefault(uid, []).append(
                                (t_launch, ev.time)
                            )
        for uid, t_launch in launching.items():
            launches.setdefault(uid, []).append((t_launch, t_trace_end))
        return created, states, launches

    @staticmethod
    def _phase_spans(
        spans: dict[str, Span], parent: str, uid: str,
        seq: list[tuple[float, str]], launches: Iterable[tuple[float, float]],
        t_trace_end: float,
    ) -> None:
        """The agent's phase spans of *uid*, derived from its state
        sequence and launch intervals; a phase still open when the trace
        ends lasts until then."""
        intervals = [
            (_STAGING_PHASES[state], t_phase,
             seq[i + 1][0] if i + 1 < len(seq) else t_trace_end)
            for i, (t_phase, state) in enumerate(seq)
            if state in _STAGING_PHASES
        ]
        intervals.extend((_LAUNCH_SPAN_NAME, t0, t1) for t0, t1 in launches)
        counts: dict[str, int] = {}
        for name, t0, t1 in intervals:
            i = counts.get(name, 0)
            counts[name] = i + 1
            key = f"{name}:{uid}:{i}"
            spans[key] = Span(key, name, t0, t1, parent=parent, ref=uid)

    def _explicit_spans(
        self, trace: TraceIndex, spans: dict[str, Span], root: Span,
        t_trace_end: float,
    ) -> None:
        opened: dict[str, Span] = {}
        for ev in trace.select("span_open", "span_close"):
            if ev.name == "span_open":
                attrs = {
                    key: value
                    for key, value in ev.attrs.items()
                    if key not in ("span", "ref", "parent")
                }
                span = Span(ev.uid, str(ev.attrs.get("span", "span")),
                            ev.time, t_trace_end,
                            parent=str(ev.attrs.get("parent", "")) or None,
                            ref=str(ev.attrs.get("ref", "")),
                            attrs=attrs or _NO_ATTRS)
                opened[ev.uid] = span
                spans[ev.uid] = span
            elif ev.name == "span_close" and ev.uid in opened:
                opened.pop(ev.uid).t_end = ev.time
        # Resolve parents: explicit parent uid, else the ref's entity
        # span, else the session root.
        for span in spans.values():
            if not span.uid.startswith("span."):
                continue
            if span.parent and span.parent in spans:
                continue
            span.parent = self._entity_span(span.ref, spans, root)

    @staticmethod
    def _entity_span(ref: str, spans: dict[str, Span], root: Span) -> str:
        for key in (f"unit:{ref}", f"pilot:{ref}", f"pattern:{ref}"):
            if key in spans:
                return key
        return root.uid
