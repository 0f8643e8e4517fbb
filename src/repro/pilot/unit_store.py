"""Columnar (struct-of-arrays) storage for compute units.

At 10^4 units a dict-backed Python object per unit is invisible; at the
10^6-unit scale envelope it is the dominant memory term (~1 KB of object
headers, instance dict, timestamps dict and lock per unit before the
unit has done anything).  The :class:`UnitStore` keeps every dense
per-unit field in parallel ``array`` columns — state, cores, retry
counts, one timestamp column per lifecycle state, slot-arena offsets —
and every *sparse* field (result, exception, sandbox, node exclusions,
extra callbacks) in side dicts that only pay for units that actually use
them.  :class:`~repro.pilot.unit.ComputeUnit` is a two-word view over
one row, so the public unit API is unchanged.

One write path serves every session.  Each lifecycle call takes a list
of units (``add_bulk``/``advance_many``) and moves it whole, and
:meth:`UnitStore.emit` writes the list to the trace as one
``units_new``/``units_state``/``units_slots`` event, however long the
list.  The event names its members as run-length ranges of uid serials
(``members``); a contiguous list is one range, encoded in O(1).  A
field passed as :data:`WIDTH` is filled in by the store from its
``cores`` column with the list's total, and the event's ``widths``
holds each unit's own; ``pattern`` holds each unit's pattern tag.  So
every per-unit fact is in the trace, and readers recover it with
:func:`repro.telemetry.sink.expand` (see that module for the format).

Each row is named in the trace once per transition:
:meth:`UnitStore.add_bulk` emits the ``new`` event, and every state
event names the state it left (``prev``) as well as the one it entered
(``state``).  The
``units.<STATE>`` gauges are not recorded; ``MetricsRegistry.from_events``
derives them from these events.

The singular ``advance`` is an adapter over the same body for callers
that hold one unit.  The runtime lifecycle never calls it, so the
repository benchmark (``perfbench/worker.py``), which counts calls to
``advance`` and ``advance_many`` alike, counts each transition once;
``SimExecutor.launch`` and ``SimStager.stage_in``/``stage_out`` are kept
the same way.

Units share descriptions.  A pattern driver registers every unit of one
kernel signature with the same shareable description and passes each
unit's tags (pattern, stage, instance, ...) beside it; the store packs
those tags per row, as a value tuple against an interned key tuple, and
``unit.description`` is a read-only :class:`UnitDescription` view over
the shared description and the row's tags.  The runtime layers read
widths and tags for a whole list of rows (:meth:`UnitStore.cores_of`,
:meth:`UnitStore.tag_values`) and each row's shared description
(:meth:`UnitStore.shared_description`), never through the view.

Unit uids are *lazy*: the store reserves serial blocks from the global
id counter (:func:`repro.utils.ids.reserve_id_block`) and formats
``unit.%06d`` on demand, so a million units do not hold a million
resident uid strings while remaining bit-identical to eagerly
generated ids.
"""

from __future__ import annotations

import threading
from array import array
from itertools import chain, repeat
from math import isnan, nan
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.pilot.states import UnitState, validate_unit_edge
from repro.telemetry.sink import NEW, SLOTS, STATE, runs, serial_runs
from repro.utils.ids import reserve_id_block

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pilot.description import ComputeUnitDescription
    from repro.pilot.unit import ComputeUnit

__all__ = ["WIDTH", "UnitDescription", "UnitStore", "UnitTimestamps"]

#: Stable state <-> small-int codec (enum definition order).
_STATES: list[UnitState] = list(UnitState)
_STATE_INDEX: dict[UnitState, int] = {s: i for i, s in enumerate(_STATES)}

#: Lifecycle event kind -> its event name; see :meth:`UnitStore.emit`.
_EVENT_NAMES = {"new": NEW, "state": STATE, "slots": SLOTS}

#: An event field value that :meth:`UnitStore.emit` replaces with the
#: total cores of the event's units (``cores`` on state events, ``slots``
#: on slot events); the event's ``widths`` holds each unit's own.
WIDTH: Any = object()

_UID_WIDTH = 6
_EMPTY_EXCLUSIONS: frozenset[tuple[str, int]] = frozenset()
_NO_NODES: frozenset[int] = frozenset()

#: Container fields of a shared description, and the copy a view returns.
_COPIED_FIELDS: dict[str, Callable] = {
    "arguments": list, "environment": dict,
    "input_staging": list, "output_staging": list,
}


class UnitTimestamps:
    """Mapping view over one unit's row in the timestamp columns.

    Mirrors the historical ``unit.timestamps`` dict: keys are state
    values (``"NEW"``, ``"EXECUTING"``, ...) present only once entered,
    values are the session time of the *latest* entry into that state.
    """

    __slots__ = ("_store", "_i")

    def __init__(self, store: "UnitStore", i: int) -> None:
        self._store = store
        self._i = i

    def get(self, key: str, default: Any = None) -> Any:
        column = self._store._ts.get(key)
        if column is None:
            return default
        value = column[self._i]
        return default if isnan(value) else value

    def __getitem__(self, key: str) -> float:
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def __contains__(self, key: object) -> bool:
        return isinstance(key, str) and self.get(key) is not None

    def __iter__(self) -> Iterator[str]:
        for state in _STATES:
            if self.get(state.value) is not None:
                yield state.value

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def keys(self) -> list[str]:
        return list(self)

    def items(self) -> list[tuple[str, float]]:
        return [(key, self[key]) for key in self]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UnitTimestamps({dict(self.items())!r})"


class UnitDescription:
    """Read-only view of one unit's description: the shared description
    its row was registered with, plus the row's own tags.

    Fields read the shared description.  ``tags`` and the list and dict
    fields are fresh copies on every read (``tags`` equal to, and in the
    key order of, the dict the unit was submitted with), and fields
    cannot be assigned, so nothing reachable from the view can change
    another unit's description.
    """

    __slots__ = ("_store", "_i")

    def __init__(self, store: "UnitStore", i: int) -> None:
        self._store = store
        self._i = i

    @property
    def tags(self) -> dict[str, Any]:
        return self._store.tags(self._i)

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):  # unset slots during copy/pickle
            raise AttributeError(name)
        value = getattr(self._store.shared_description(self._i), name)
        copy = _COPIED_FIELDS.get(name)
        return value if copy is None else copy(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UnitDescription({self.name!r}, cores={self.cores}, "
            f"tags={self.tags!r})"
        )


class UnitStore:
    """Struct-of-arrays backing store for every unit of one session."""

    def __init__(self, session: Any) -> None:
        self._session = session
        # One coarse lock replaces the historical per-unit locks: the
        # only concurrent writers are local-mode executor threads, and
        # they contend for the profiler's single lock anyway.
        self._lock = threading.Lock()

        # Dense columns, one slot per unit.
        self._serial = array("q")  # global id-counter value behind the uid
        self._state = array("b")  # index into _STATES
        self._cores = array("i")
        self._attempts = array("i")
        self._pilot = array("i")  # index into _pilot_uids; -1 = unassigned
        self._cb_group = array("i")  # index into _shared_cbs; -1 = none
        self._slots_off = array("q")  # offset into the slot arena
        self._slots_len = array("i")
        #: index into _tag_key_tuples; -1 = the description carries its tags
        self._tag_keys = array("i")
        #: state value -> per-unit entry time column (NaN = never entered).
        self._ts: dict[str, array] = {s.value: array("d") for s in _STATES}

        #: Occupied core ids, packed; append-only (freed rows keep their
        #: cells — at one int per core-occupancy this is noise next to
        #: what resident slot lists used to cost).
        self._slots_arena = array("i")

        self._descriptions: list["ComputeUnitDescription"] = []
        #: Per-row tag values, packed against ``_tag_key_tuples[_tag_keys[i]]``.
        self._tag_values: list[tuple | None] = []
        self._tag_key_tuples: list[tuple[str, ...]] = []
        self._tag_key_index: dict[tuple[str, ...], int] = {}
        self._pilot_uids: list[str] = []
        self._pilot_index: dict[str, int] = {}
        #: Callback lists shared by a whole bulk-submitted batch.
        self._shared_cbs: list[list[Callable]] = []

        # Sparse side tables (unit index -> value); only units that
        # actually fail / stage / block pay for an entry.
        self._results: dict[int, Any] = {}
        self._exceptions: dict[int, BaseException] = {}
        self._sandboxes: dict[int, str] = {}
        self._excluded: dict[int, set[tuple[str, int]]] = {}
        self._extra_cbs: dict[int, list[Callable]] = {}

    def __len__(self) -> int:
        return len(self._serial)

    # -- registration -------------------------------------------------------

    def add_bulk(
        self, descriptions: Sequence["ComputeUnitDescription"],
        tags: Sequence[dict[str, Any]] | None = None,
    ) -> range:
        """Register a batch: one id-block reservation, then :meth:`emit`
        of ``new`` with each unit's ``pattern`` tag.

        *tags*, when given, holds each unit's tags, and the descriptions
        are shared (see :meth:`ComputeUnitDescription.shareable`): the
        units' ``description`` is a :class:`UnitDescription` view.
        Without *tags* each unit keeps the description object it was
        given."""
        last = None
        for description in descriptions:
            if description is not last:
                description.validate()
                last = description
        n = len(descriptions)
        first = len(self._serial)
        if not n:
            return range(first, first)
        serial = reserve_id_block("unit", n)
        now = self._session.now()
        # Column by column: one extend per column for the whole batch.
        self._serial.extend(range(serial, serial + n))
        self._state.extend(repeat(_STATE_INDEX[UnitState.NEW], n))
        self._cores.extend([d.cores for d in descriptions])
        for column in (self._attempts, self._slots_off, self._slots_len):
            column.extend(repeat(0, n))
        for column in (self._pilot, self._cb_group):
            column.extend(repeat(-1, n))
        for value, column in self._ts.items():
            column.extend(repeat(now if value == UnitState.NEW.value else nan, n))
        self._descriptions.extend(descriptions)
        if tags is None:
            self._tag_keys.extend(repeat(-1, n))
            self._tag_values.extend(repeat(None, n))
        else:
            self._pack_tags(tags)
        rows = range(first, first + n)
        self.emit("new", rows, pattern=runs(self.tag_values(rows, "pattern", "")))
        return rows

    def _pack_tags(self, tags: Sequence[dict[str, Any]]) -> None:
        index = self._tag_key_index
        key_tuples = self._tag_key_tuples
        codes = self._tag_keys
        values = self._tag_values
        for row_tags in tags:
            keys = tuple(row_tags)
            code = index.get(keys)
            if code is None:
                code = index[keys] = len(key_tuples)
                key_tuples.append(keys)
            codes.append(code)
            values.append(tuple(row_tags.values()))

    # -- trace emission -----------------------------------------------------

    def emit(self, kind: str, rows: Sequence[int], **fields: Any) -> None:
        """Record the lifecycle event of *kind* (``new``, ``state``,
        ``slots``) for the units in *rows*: one ``units_<kind>`` event
        that names them (see :mod:`repro.telemetry.sink`).  A field given
        as :data:`WIDTH` carries the units' total cores, and ``widths``
        each unit's own.  *rows* given as a ``range`` is one contiguous
        run, whose members encode in O(1)."""
        widths = None
        for key, value in fields.items():
            if value is WIDTH:
                if widths is None:
                    cores = self.cores_of(rows)
                    total, widths = sum(cores), runs(cores)
                fields[key] = total
        if widths is not None:
            fields["widths"] = widths
        self._session.prof.event(
            _EVENT_NAMES[kind], self.uid(rows[0]), **fields, n=len(rows),
            members=self._members(rows),
        )

    def _members(self, rows: Sequence[int]) -> list[list[int]]:
        """The uid serials of *rows* as run-length ``[first, count]``
        ranges.  Serials grow with rows, so a contiguous run of rows
        whose end serials are as far apart as its ends is one range."""
        serial = self._serial
        lo, n = rows[0], len(rows)
        if n == 1:
            return [[serial[lo], 1]]
        if rows[-1] - lo == n - 1 and (
            isinstance(rows, range) or rows == list(range(lo, lo + n))
        ):
            first = serial[lo]
            if serial[rows[-1]] - first == n - 1:
                return [[first, n]]
        return serial_runs(map(serial.__getitem__, rows))

    # -- dense fields -------------------------------------------------------

    def uid(self, i: int) -> str:
        return f"unit.{self._serial[i]:0{_UID_WIDTH}d}"

    def state(self, i: int) -> UnitState:
        return _STATES[self._state[i]]

    def cores(self, i: int) -> int:
        return self._cores[i]

    def description(self, i: int) -> "ComputeUnitDescription | UnitDescription":
        """What ``unit.description`` returns: a :class:`UnitDescription`
        view for a row registered with tags, else the row's own object."""
        if self._tag_keys[i] < 0:
            return self._descriptions[i]
        return UnitDescription(self, i)

    def shared_description(self, i: int) -> "ComputeUnitDescription":
        """The description object row *i* was registered with.  Rows of
        one kernel signature share it: read it, never change it."""
        return self._descriptions[i]

    def tags(self, i: int) -> dict[str, Any]:
        """The tags row *i* was registered with (see :meth:`add_bulk`),
        as a new dict in their submitted key order."""
        keys = self._tag_key_tuples[self._tag_keys[i]]
        return dict(zip(keys, self._tag_values[i]))

    def tag_values(self, rows: Sequence[int], key: str, default: Any = None) -> list:
        """The tag *key* of each row in *rows* (*default* where a row has
        none), read from the packed tag columns without building a dict
        or a view per row."""
        codes = self._tag_keys
        values = self._tag_values
        code = codes[rows[0]] if rows else -1
        if code >= 0 and (
            len(rows) == 1 or len(set(map(codes.__getitem__, rows))) == 1
        ):
            # One key layout (the common case): one position for all rows.
            keys = self._tag_key_tuples[code]
            if key in keys:
                get = itemgetter(keys.index(key))
                return list(map(get, map(values.__getitem__, rows)))
        key_tuples = self._tag_key_tuples
        out = []
        for i in rows:
            code = codes[i]
            if code < 0:
                out.append(self._descriptions[i].tags.get(key, default))
                continue
            keys = key_tuples[code]
            out.append(values[i][keys.index(key)] if key in keys else default)
        return out

    def cores_of(self, rows: Sequence[int]) -> list[int]:
        """The ``cores`` column at *rows*."""
        return list(map(self._cores.__getitem__, rows))

    def attempts(self, i: int) -> int:
        return self._attempts[i]

    def set_attempts(self, i: int, value: int) -> None:
        self._attempts[i] = value

    def pilot_uid(self, i: int) -> str | None:
        index = self._pilot[i]
        return None if index < 0 else self._pilot_uids[index]

    def set_pilot_uid(self, i: int, uid: str | None) -> None:
        self.set_pilot_uids([i], uid)

    def set_pilot_uids(self, rows: Sequence[int], uid: str | None) -> None:
        """Assign every row in *rows* to pilot *uid* (``None``: none)."""
        index = -1
        if uid is not None:
            index = self._pilot_index.get(uid, -1)
            if index < 0:
                index = self._pilot_index[uid] = len(self._pilot_uids)
                self._pilot_uids.append(uid)
        column = self._pilot
        for i in rows:
            column[i] = index

    def slots(self, i: int) -> list[int]:
        length = self._slots_len[i]
        if not length:
            return []
        off = self._slots_off[i]
        return list(self._slots_arena[off:off + length])

    def set_slots(self, i: int, slots: list[int]) -> None:
        if not slots:
            self._slots_len[i] = 0
            return
        self._slots_off[i] = len(self._slots_arena)
        self._slots_len[i] = len(slots)
        self._slots_arena.extend(slots)

    def place(self, rows: Sequence[int], placements: Sequence[list[int]]) -> None:
        """Record a launch: row ``rows[j]`` occupies the (non-empty) slots
        ``placements[j]``, and each row's attempt count goes up by one."""
        arena = self._slots_arena
        offsets = self._slots_off
        lengths = self._slots_len
        attempts = self._attempts
        off = len(arena)
        for i, placed in zip(rows, placements):
            n = len(placed)
            offsets[i] = off
            lengths[i] = n
            off += n
            attempts[i] += 1
        arena.extend(chain.from_iterable(placements))

    # -- sparse fields ------------------------------------------------------

    def result(self, i: int) -> Any:
        return self._results.get(i)

    def set_result(self, i: int, value: Any) -> None:
        if value is None:
            self._results.pop(i, None)
        else:
            self._results[i] = value

    def exception(self, i: int) -> BaseException | None:
        return self._exceptions.get(i)

    def set_exception(self, i: int, exc: BaseException | None) -> None:
        if exc is None:
            self._exceptions.pop(i, None)
        else:
            self._exceptions[i] = exc

    def sandbox(self, i: int) -> str | None:
        return self._sandboxes.get(i)

    def set_sandbox(self, i: int, path: str | None) -> None:
        if path is None:
            self._sandboxes.pop(i, None)
        else:
            self._sandboxes[i] = path

    def excluded_nodes(self, i: int) -> frozenset[tuple[str, int]] | set:
        return self._excluded.get(i, _EMPTY_EXCLUSIONS)

    def exclude_node(self, i: int, pilot_uid: str, node: int) -> None:
        self._excluded.setdefault(i, set()).add((pilot_uid, node))

    def avoided_nodes(self, rows: Sequence[int], pilot_uid: str) -> list[frozenset[int]]:
        """The nodes of pilot *pilot_uid* each row in *rows* must not be
        placed on."""
        excluded = self._excluded
        if not excluded:
            return [_NO_NODES] * len(rows)
        out = []
        for i in rows:
            pairs = excluded.get(i)
            out.append(_NO_NODES if not pairs else frozenset(
                node for puid, node in pairs if puid == pilot_uid
            ))
        return out

    # -- callbacks ----------------------------------------------------------

    def set_group_callbacks(self, rows: range, callbacks: list[Callable]) -> None:
        """Attach one shared callback list to every unit in *rows*.

        The list is called as ``callback(units, state)``, once per batch
        of transitions into a final state (see :meth:`_advance`).
        """
        if not callbacks:
            return
        group = len(self._shared_cbs)
        self._shared_cbs.append(callbacks)
        for i in rows:
            self._cb_group[i] = group

    def add_callback(self, i: int, callback: Callable) -> None:
        self._extra_cbs.setdefault(i, []).append(callback)

    def remove_callback(self, i: int, callback: Callable) -> None:
        with self._lock:
            extras = self._extra_cbs.get(i)
            if extras and callback in extras:
                extras.remove(callback)
                if not extras:
                    del self._extra_cbs[i]

    # -- lifecycle ----------------------------------------------------------

    def advance(self, unit: "ComputeUnit", target: UnitState) -> None:
        """One unit's transition (an adapter for callers holding one unit)."""
        self._advance([unit], target)

    def advance_many(
        self, units: list["ComputeUnit"], target: UnitState, **fields: Any
    ) -> None:
        """Move *units* to *target* (the lifecycle's one transition call).

        *fields* ride on the state event; the agent layer passes the
        ``pilot`` and (as :data:`WIDTH`) the ``cores`` its gauges are
        derived from (see ``MetricsRegistry.from_events``)."""
        self._advance(units, target, fields)

    def _advance(
        self, units: list["ComputeUnit"], target: UnitState,
        fields: dict[str, Any] | None = None,
    ) -> None:
        """Transition body, per homogeneous (same current state) group:
        validate and stamp → one :meth:`emit` → callbacks → (final
        groups) one session notify.

        Shared group callbacks are completion hooks: they fire only on a
        transition into a final state, once per group with the group's
        units that share the list.  Then each unit, in order, calls its
        own callbacks, and the session's waiters are woken once
        (``Session.notify``).  A unit's own callbacks
        (:meth:`add_callback`) fire on every transition."""
        if not units:
            return
        session = self._session
        final = target.is_final
        code = _STATE_INDEX[target]
        column = self._ts[target.value]
        state = self._state
        rows = [unit._i for unit in units]
        with self._lock:
            if len(rows) == 1 or len(set(map(state.__getitem__, rows))) == 1:
                # The usual list, all in one state: no split.
                groups = {state[rows[0]]: (units, rows)}
            else:
                groups = {}
                for unit, i in zip(units, rows):
                    group = groups.get(state[i])
                    if group is None:
                        group = groups[state[i]] = ([], [])
                    group[0].append(unit)
                    group[1].append(i)
        for previous_code, (group, rows) in groups.items():
            previous = _STATES[previous_code]
            with self._lock:
                validate_unit_edge(
                    lambda: f"ComputeUnit {self.uid(rows[0])}", previous, target
                )
                now = session.now()
                lo, n = rows[0], len(rows)
                if n > 1 and rows[-1] == lo + n - 1 and rows == list(range(lo, lo + n)):
                    # One contiguous run of rows: stamp it by slice, and
                    # let emit() name its members as one range.
                    rows = range(lo, lo + n)
                    state[lo:lo + n] = array("b", [code]) * n
                    column[lo:lo + n] = array("d", [now]) * n
                else:
                    for i in rows:
                        state[i] = code
                        column[i] = now
            self.emit("state", rows, state=target.value, prev=previous.value,
                      **(fields or {}))
            if final:
                self._complete(group, target)
            elif self._extra_cbs:
                for unit in group:
                    extras = self._extra_cbs.get(unit._i)
                    if extras is not None:
                        for cb in list(extras):
                            cb(unit, target)

    def _complete(self, units: list["ComputeUnit"], target: UnitState) -> None:
        """Final transition of *units*: shared lists per batch, then each
        unit's own callbacks, then one wake-up of the session's waiters."""
        by_list: dict[int, list["ComputeUnit"]] = {}
        cb_group = self._cb_group
        for unit in units:
            by_list.setdefault(cb_group[unit._i], []).append(unit)
        for group, members in by_list.items():
            if group >= 0:
                for cb in self._shared_cbs[group]:
                    cb(members, target)
        extras = self._extra_cbs
        if extras:
            for unit in units:
                own = extras.get(unit._i)
                if own is not None:
                    for cb in list(own):
                        cb(unit, target)
        self._session.notify()
