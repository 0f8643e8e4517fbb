"""Spillable append-only sinks for the flat event trace, and the unit
lifecycle's trace format.

The profiler used to keep every :class:`ProfileEvent` in one resident
Python list — fine at 10^4 units, but the dominant memory term at 10^6
(each event is an object plus an attrs dict).  A *sink* abstracts where
appended events live:

* :class:`MemorySink` — the historical behaviour: every event resident,
  O(1) random access.  The default; nothing changes for existing runs.
* :class:`SpoolSink` — events are serialized to a newline-delimited
  JSON spool file as they are appended (the exact format of
  ``Profiler.write_jsonl``, so ``repro trace`` subcommands read spool
  files directly) and none stays resident.  Reading re-reads the whole
  spool and *revives* each line as a :class:`ProfileEvent`.

Every trace reader — ``SpanBuilder``, ``MetricsRegistry.from_events``,
the Chrome export, the analytics — takes ``ProfileEvent``s and reads
the whole trace: a sink's ``events()``, or a file loaded with
:func:`read_events`.

Revival is exact: JSON floats round-trip through ``repr`` so a trace
digested from a spool is byte-identical to one digested live (the
golden-hash determinism tests pin this).

A spool whose last line was cut off mid-write (a crash while appending)
still reads back: :func:`read_events` drops the torn tail and warns
with the number of complete events recovered.

**The lifecycle format.**  The unit store writes every unit list it
moves as one *batch* event, whatever the list's length:

* ``units_new`` — the list was registered; carries ``pattern``;
* ``units_state`` — the list left state ``prev`` for ``state``; the
  agent layer adds the ``pilot`` and the ``cores`` the list holds;
* ``units_slots`` — the list was placed; carries ``pilot`` and the
  ``slots`` (cores) it occupies.

Each one names its members.  ``uid`` is the first member's uid, ``n``
the member count, and ``members`` the members' uid serials as
run-length ranges in list order: ``[[first, count], ...]`` names
``unit.<first>`` to ``unit.<first + count - 1>`` (at least six digits,
as ``UnitStore.uid`` formats them).  A contiguous list is one range
whatever its length; rows that faults scatter take one range per run.
Two fields hold per-member values, where a scalar applies to every
member and a list is run-length ``[value, count]`` pairs in member
order: ``pattern`` (each member's pattern uid) and ``widths`` (each
member's own cores, beside a ``cores`` or ``slots`` field that holds the
list's total).  :func:`expand` gives each member's ``(uid, attrs)`` with
exactly the attrs a one-unit event would carry, so the readers derive
every unit's phase spans and gauges from batches.  A batch event with no
``members`` names its ``uid`` alone.

``ProfileEvent`` itself is defined here, its one home, so this module
does not import the pilot layer — the session imports telemetry.
:class:`TraceIndex` sits next to it: one pass over a trace that answers
the profiler's query API, so an analysis reads a spool once instead of
once per query.
"""

from __future__ import annotations

import json
from array import array
import warnings
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

__all__ = [
    "LIFECYCLE_EVENTS",
    "NEW",
    "SLOTS",
    "STATE",
    "ProfileEvent",
    "EventSink",
    "MemorySink",
    "SpoolSink",
    "TraceIndex",
    "TraceQueries",
    "encode_row",
    "expand",
    "member_count",
    "member_patterns",
    "member_uids",
    "read_events",
    "runs",
    "serial_runs",
    "unit_count",
]

#: Spool lines decoded per ``json.loads`` call; bounds the memory a read
#: needs on top of the revived events.
_BLOCK_LINES = 1024

#: One trace row as JSON: the bytes of ``json.dumps(row, default=str)``
#: from one shared encoder, where ``json.dumps`` builds an encoder per
#: call.  Spool files and ``Profiler.write_jsonl`` both write with it.
encode_row = json.JSONEncoder(default=str).encode


@dataclass(slots=True)
class ProfileEvent:
    # Not frozen: a frozen dataclass pays object.__setattr__ per field on
    # every init, and this is the hottest allocation in a simulated run.
    # Treat instances as immutable all the same — nothing may mutate a
    # recorded event.
    time: float
    name: str
    uid: str
    attrs: dict[str, Any] = field(default_factory=dict)

    def row(self) -> dict[str, Any]:
        """The event as one flat JSONL row: ``{"time","name","uid",**attrs}``."""
        record = {"time": self.time, "name": self.name, "uid": self.uid}
        record.update(self.attrs)
        return record


def revive(row: dict[str, Any]) -> ProfileEvent:
    """The inverse of :meth:`ProfileEvent.row` for one parsed JSONL row."""
    time = row.pop("time")
    name = row.pop("name")
    uid = row.pop("uid", "")
    return ProfileEvent(float(time), str(name), str(uid), row)


def read_events(path: str | Path) -> list[ProfileEvent]:
    """Revive every event of an NDJSON trace file.

    Lines are decoded a block at a time, one ``json.loads`` per block;
    a block that does not decode to exactly one row per line is decoded
    line by line instead.  A last line that does not decode is a torn
    tail: it is dropped with one warning that says how many events were
    recovered.  An undecodable line followed by more lines raises
    ``ValueError``.
    """
    events: list[ProfileEvent] = []
    bad: tuple[int, json.JSONDecodeError] | None = None
    with Path(path).open(encoding="utf-8") as stream:
        lineno = 0
        while block := list(islice(stream, _BLOCK_LINES)):
            if bad is None:
                try:
                    rows = json.loads("[" + ",".join(block) + "]")
                except json.JSONDecodeError:
                    rows = None
                if rows is not None and len(rows) == len(block):
                    events.extend(map(revive, rows))
                    lineno += len(block)
                    continue
            for line in block:
                lineno += 1
                if not line.strip():
                    continue
                if bad is not None:
                    raise ValueError(
                        f"{path}:{bad[0]}: bad JSONL: {bad[1]}"
                    ) from bad[1]
                try:
                    events.append(revive(json.loads(line)))
                except json.JSONDecodeError as exc:
                    bad = (lineno, exc)
    if bad is not None:
        warnings.warn(
            f"{path}:{bad[0]}: torn last line dropped; recovered "
            f"{len(events)} complete events",
            RuntimeWarning,
            stacklevel=2,
        )
    return events


# -- the unit lifecycle's trace format ------------------------------------

NEW, STATE, SLOTS = "units_new", "units_state", "units_slots"
LIFECYCLE_EVENTS = (NEW, STATE, SLOTS)

#: Fields that hold a list's total width; ``widths`` holds each member's.
_WIDTH_FIELDS = ("cores", "slots")
#: Batch bookkeeping that no one-unit event carries.
_BATCH_FIELDS = frozenset({"n", "members", "widths"})


def runs(values: Sequence[Any]) -> Any:
    """*values* as a per-member field: the value itself when all are
    equal, else run-length ``[value, count]`` pairs."""
    first = values[0]
    if values.count(first) == len(values):
        return first
    out: list[list[Any]] = []
    for value in values:
        if out and out[-1][0] == value:
            out[-1][1] += 1
        else:
            out.append([value, 1])
    return out


def serial_runs(serials: Iterable[int]) -> list[list[int]]:
    """Run-length ``[first, count]`` ranges of *serials*, in order."""
    out: list[list[int]] = []
    last = None
    for serial in serials:
        if serial == last:
            out[-1][1] += 1
        else:
            out.append([serial, 1])
        last = serial + 1
    return out


def _values(value: Any, n: int) -> Iterator[Any]:
    """The *n* per-member values a per-member field encodes."""
    if isinstance(value, list):
        return chain.from_iterable(repeat(v, count) for v, count in value)
    return repeat(value, n)


def member_count(ev: Any) -> int:
    """How many units batch event *ev* names."""
    return int(ev.attrs.get("n", 1))


def member_uids(ev: Any) -> list[str]:
    """The uids batch event *ev* names, in list order."""
    members = ev.attrs.get("members")
    if members is None:
        return [ev.uid]
    return [
        f"unit.{serial:06d}"
        for first, count in members
        for serial in range(first, first + count)
    ]


def state_prev(ev: Any) -> Any:
    """The state the members of ``units_state`` event *ev* left.

    Every reader rejects a state event without ``prev`` with this
    ``ValueError``: it is not a trace this runtime writes.
    """
    prev = ev.attrs.get("prev")
    if prev is None:
        raise ValueError(
            f"units_state event of {ev.uid} at t={ev.time} has no "
            "'prev': not a trace this runtime writes"
        )
    return prev


def member_patterns(ev: Any) -> Iterator[Any]:
    """Each member's ``pattern`` field of batch event *ev*, in list order."""
    return _values(ev.attrs.get("pattern", ""), member_count(ev))


def expand(ev: Any) -> list[tuple[str, dict[str, Any]]]:
    """Each member's ``(uid, attrs)`` of batch event *ev*: the attrs a
    one-unit event would carry (a member's own width in ``cores`` or
    ``slots`` and its own ``pattern``), in list order."""
    attrs = ev.attrs
    uids = member_uids(ev)
    n = len(uids)
    common = {k: v for k, v in attrs.items() if k not in _BATCH_FIELDS}
    per_member: dict[str, Iterator[Any]] = {}
    if "widths" in attrs:
        for key in _WIDTH_FIELDS:
            if key in common:
                per_member[key] = _values(attrs["widths"], n)
    if isinstance(common.get("pattern"), list):
        per_member["pattern"] = _values(common["pattern"], n)
    out = []
    for uid in uids:
        own = dict(common)
        for key, values in per_member.items():
            own[key] = next(values)
        out.append((uid, own))
    return out


def unit_count(events: Iterable[Any]) -> int:
    """Units a trace registers: the members of its ``units_new`` events
    (events duck-typed on ``name``/``attrs``)."""
    return sum(member_count(ev) for ev in events if ev.name == NEW)


class TraceQueries:
    """The profiler's derived queries, written over ``events(name, uid)``.

    :class:`~repro.pilot.profiler.Profiler` and :class:`TraceIndex` both
    inherit these, so the two differ only in how ``events`` finds its
    matches: a full scan of the sink, or one name's postings.
    """

    __slots__ = ()

    def events(self, name: str | None = None, uid: str | None = None) -> list[Any]:
        raise NotImplementedError

    def first(self, name: str, uid: str | None = None) -> Any | None:
        matches = self.events(name, uid)
        return matches[0] if matches else None

    def last(self, name: str, uid: str | None = None) -> Any | None:
        matches = self.events(name, uid)
        return matches[-1] if matches else None

    def span(self, start_name: str, end_name: str, uid: str | None = None) -> float | None:
        """Seconds from the first *start_name* to the last *end_name*."""
        start = self.first(start_name, uid)
        end = self.last(end_name, uid)
        if start is None or end is None:
            return None
        return end.time - start.time


class TraceIndex(TraceQueries):
    """One pass over a trace that answers the profiler's query API.

    Keeps the events in recording order plus, per event name, the
    positions of that name's events, so ``events(name, uid)``,
    ``first``, ``last`` and ``span`` read one name's postings instead
    of the whole trace.  Events are duck-typed on ``name``/``uid``/
    ``time``.  :meth:`repro.pilot.profiler.Profiler.index` builds one
    from a single ``EventSink.events()`` read; nothing caches it, so it
    never outlives the call that built it.
    """

    __slots__ = ("_events", "_postings")

    def __init__(self, events: Iterable[Any]) -> None:
        # A list is taken over as is (callers hand in fresh lists).
        self._events: list[Any] = (
            events if isinstance(events, list) else list(events)
        )
        # Positions in typed arrays: a list would add one int object
        # per event on top of its slot.
        postings: dict[str, array] = {}
        for position, ev in enumerate(self._events):
            bucket = postings.get(ev.name)
            if bucket is None:
                postings[ev.name] = bucket = array("l")
            bucket.append(position)
        self._postings = postings

    def index(self) -> "TraceIndex":
        """Already an index; lets analyses index a profiler or an index."""
        return self

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._events)

    def events(self, name: str | None = None, uid: str | None = None) -> list[Any]:
        """Events filtered by name and/or uid, in recording order."""
        if name is None:
            found = self._events
        else:
            found = [self._events[i] for i in self._postings.get(name, ())]
        if uid is None:
            return list(found) if name is None else found
        return [ev for ev in found if ev.uid == uid]

    def select(self, *names: str) -> list[Any]:
        """Events with any of *names*, merged in recording order."""
        positions = [i for name in names for i in self._postings.get(name, ())]
        if len(names) > 1:
            positions.sort()
        return [self._events[i] for i in positions]


class EventSink:
    """Append-only event storage; the profiler serializes all access.

    The contract is deliberately tiny: ``append`` one event, read all
    ``events``, ``len``, and lifecycle ``flush``/``close``.
    Sinks need no locking of their own — the owning profiler already
    guards every call.
    """

    __slots__ = ()

    def append(self, ev: ProfileEvent) -> None:
        raise NotImplementedError

    def events(self) -> list[ProfileEvent]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator[ProfileEvent]:
        return iter(self.events())

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink(EventSink):
    """Every event resident in one list (the historical profiler store)."""

    __slots__ = ("_events",)

    def __init__(self) -> None:
        self._events: list[ProfileEvent] = []

    def append(self, ev: ProfileEvent) -> None:
        self._events.append(ev)

    def events(self) -> list[ProfileEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)


class SpoolSink(EventSink):
    """Stream events to an NDJSON spool file; keep none resident.

    ``path`` is created (parents included) and truncated on first
    append; the history lives only in the file.  Reading (``events``/
    ``__iter__``) flushes the stream and revives the file's rows with
    :func:`read_events`, so reads are O(file) — fine for end-of-run
    export and analytics, which is the only read pattern the runtime
    has.
    """

    __slots__ = ("path", "_stream", "_count", "_opened")

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._stream = None
        self._count = 0
        self._opened = False

    def append(self, ev: ProfileEvent) -> None:
        if self._stream is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Truncate on the sink's first-ever open; a close()d sink that
            # sees further appends (session teardown events) reopens in
            # append mode so the history survives.
            self._stream = self.path.open("a" if self._opened else "w")
            self._opened = True
        self._stream.write(encode_row(ev.row()) + "\n")
        self._count += 1

    def events(self) -> list[ProfileEvent]:
        self.flush()
        if not self._opened:
            return []
        return read_events(self.path)

    def __len__(self) -> int:
        return self._count

    def flush(self) -> None:
        if self._stream is not None:
            self._stream.flush()

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None
