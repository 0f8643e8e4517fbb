"""Append-only event tracing.

Every state transition and every notable runtime action lands in one
:class:`Profiler` as ``(time, name, uid, attrs)``.  The analytics layer
(:mod:`repro.analytics`) turns these traces into the paper's TTC and
overhead decompositions; nothing else in the runtime ever reads the trace,
so profiling cannot perturb scheduling decisions.

Where appended events *live* is delegated to an
:class:`~repro.telemetry.sink.EventSink`: the default
:class:`~repro.telemetry.sink.MemorySink` keeps the historical
everything-resident list, while a
:class:`~repro.telemetry.sink.SpoolSink` streams events to an NDJSON
spool file and keeps none of them in memory — the million-unit scale
envelope.  The events are ``ProfileEvent`` objects, defined next to the
sinks in :mod:`repro.telemetry.sink`.

Every query (``events``, ``first``, ``last``, ``span``) reads the whole
sink, which on a spool means parsing the file again.  An analysis that
asks many questions calls :meth:`Profiler.index` once and queries the
returned :class:`~repro.telemetry.sink.TraceIndex` instead.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterator

from repro.telemetry.sink import (
    EventSink,
    MemorySink,
    ProfileEvent,
    TraceIndex,
    TraceQueries,
    encode_row,
)

__all__ = ["Profiler"]


class Profiler(TraceQueries):
    """Thread-safe, append-only event trace."""

    def __init__(
        self, clock: Callable[[], float], sink: EventSink | None = None
    ) -> None:
        self._clock = clock
        self._sink: EventSink = MemorySink() if sink is None else sink
        self._lock = threading.Lock()

    @property
    def sink(self) -> EventSink:
        return self._sink

    def event(self, name: str, uid: str = "", **attrs: Any) -> ProfileEvent:
        """Record one event stamped with the session clock."""
        ev = ProfileEvent(self._clock(), name, uid, attrs)
        with self._lock:
            self._sink.append(ev)
        return ev

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._sink)

    def __iter__(self) -> Iterator[ProfileEvent]:
        with self._lock:
            return iter(self._sink.events())

    def events(self, name: str | None = None, uid: str | None = None) -> list[ProfileEvent]:
        """Events filtered by name and/or uid, in recording order."""
        with self._lock:
            snapshot = self._sink.events()
        return [
            ev
            for ev in snapshot
            if (name is None or ev.name == name) and (uid is None or ev.uid == uid)
        ]

    def index(self) -> TraceIndex:
        """The whole trace read once (one ``EventSink.events()`` call) and
        indexed by event name; answers the same queries as the profiler.

        The index is a snapshot: events recorded afterwards are not in
        it.  Nothing keeps it, so build one per analysis.
        """
        with self._lock:
            snapshot = self._sink.events()
        return TraceIndex(snapshot)

    # -- persistence ---------------------------------------------------------

    def write_jsonl(self, path) -> int:
        """Dump the trace as JSON lines (one event per line); returns the
        event count.  The format matches what RADICAL-Analytics-style
        post-processing expects: ``{"time", "name", "uid", **attrs}`` —
        and is byte-identical to a :class:`SpoolSink`'s spool file."""
        from pathlib import Path

        path = Path(path)
        with self._lock:
            snapshot = self._sink.events()
        with path.open("w") as stream:
            for ev in snapshot:
                stream.write(encode_row(ev.row()) + "\n")
        return len(snapshot)

    def close(self) -> None:
        """Flush and close the sink (a no-op for memory sinks)."""
        with self._lock:
            self._sink.close()
