"""Columnar (struct-of-arrays) storage for compute units.

At 10^4 units a dict-backed Python object per unit is invisible; at the
10^6-unit scale envelope it is the dominant memory term (~1 KB of object
headers, instance dict, timestamps dict and lock per unit before the
unit has done anything).  The :class:`UnitStore` keeps every dense
per-unit field in parallel ``array`` columns — state, cores, retry
counts, one timestamp column per lifecycle state, slot-arena offsets —
and every *sparse* field (result, exception, sandbox, node exclusions,
wait events) in side dicts that only pay for units that actually use
them.  :class:`~repro.pilot.unit.ComputeUnit` is a two-word view over
one row, so the public unit API is unchanged.

One write path serves every session.  Each lifecycle call takes a list
of units (``add_bulk``/``advance_many``), and the store alone decides
how that list shows up in the trace — the *emission policy*:

* :meth:`UnitStore.batches` splits a lifecycle list into the batches it
  moves in: the whole list under ``Session(bulk_lifecycle=True)``,
  batches of one otherwise;
* :meth:`UnitStore.emit` names the event: a batch of one in a per-unit
  session is a per-unit ``unit_new``/``unit_state``/``unit_slots`` event,
  which replays the historical per-unit trace byte for byte (the golden
  hashes pin this); any other batch is one ``units_*`` event carrying
  ``n`` and ``last``.

Each row is in the trace once per transition: :meth:`UnitStore.add_bulk`
emits the ``new`` event, and every state event names the state it left
(``prev``) as well as the one it entered (``state``).  The
``units.<STATE>`` gauges are not recorded; ``MetricsRegistry.from_events``
derives them from these events.

The singular ``add``/``advance`` are adapters over the same bodies for
callers that hold one unit.  The runtime lifecycle never calls them, so
the repository benchmark (``perfbench/worker.py``), which counts calls
to ``advance`` and ``advance_many`` alike, counts each transition once;
``SimExecutor.launch`` and ``SimStager.stage_in``/``stage_out`` are kept
the same way.

Unit uids are *lazy*: the store reserves serial blocks from the global
id counter (:func:`repro.utils.ids.reserve_id_block`) and formats
``unit.%06d`` on demand, so a million units do not hold a million
resident uid strings while remaining bit-identical to eagerly
generated ids.
"""

from __future__ import annotations

import threading
from array import array
from math import isnan, nan
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.pilot.states import UnitState, validate_unit_edge
from repro.utils.ids import reserve_id_block

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pilot.description import ComputeUnitDescription
    from repro.pilot.unit import ComputeUnit

__all__ = ["UnitStore", "UnitTimestamps"]

#: Stable state <-> small-int codec (enum definition order).
_STATES: list[UnitState] = list(UnitState)
_STATE_INDEX: dict[UnitState, int] = {s: i for i, s in enumerate(_STATES)}

#: Lifecycle event kind -> (per-unit name, batch name); see :meth:`UnitStore.emit`.
_EVENT_NAMES = {
    kind: (f"unit_{kind}", f"units_{kind}") for kind in ("new", "state", "slots")
}

_UID_WIDTH = 6
_EMPTY_EXCLUSIONS: frozenset[tuple[str, int]] = frozenset()


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


class UnitStore:
    """Struct-of-arrays backing store for every unit of one session."""

    def __init__(self, session: Any) -> None:
        self._session = session
        #: The emission policy: move lifecycle lists as whole batches
        #: (``units_*`` events) instead of batches of one.
        self.bulk = bool(getattr(session, "bulk_lifecycle", False))
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
        #: state value -> per-unit entry time column (NaN = never entered).
        self._ts: dict[str, array] = {s.value: array("d") for s in _STATES}

        #: Occupied core ids, packed; append-only (freed rows keep their
        #: cells — at one int per core-occupancy this is noise next to
        #: what resident slot lists used to cost).
        self._slots_arena = array("i")

        self._descriptions: list["ComputeUnitDescription"] = []
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
        self._final_events: dict[int, threading.Event] = {}

    def __len__(self) -> int:
        return len(self._serial)

    # -- registration -------------------------------------------------------

    def _append_row(self, description: "ComputeUnitDescription",
                    serial: int, now: float) -> int:
        i = len(self._serial)
        self._serial.append(serial)
        self._state.append(_STATE_INDEX[UnitState.NEW])
        self._cores.append(description.cores)
        self._attempts.append(0)
        self._pilot.append(-1)
        self._cb_group.append(-1)
        self._slots_off.append(0)
        self._slots_len.append(0)
        for state in _STATES:
            self._ts[state.value].append(
                now if state is UnitState.NEW else nan
            )
        self._descriptions.append(description)
        return i

    def add(self, description: "ComputeUnitDescription") -> int:
        """Register one unit; returns its row."""
        return self.add_bulk([description])[0]

    def add_bulk(self, descriptions: Iterable["ComputeUnitDescription"]) -> range:
        """Register a batch: one id-block reservation, then :meth:`emit`
        of ``new`` with the first description's ``pattern`` tag."""
        descriptions = list(descriptions)
        for description in descriptions:
            description.validate()
        if not descriptions:
            return range(len(self._serial), len(self._serial))
        serial = reserve_id_block("unit", len(descriptions))
        now = self._session.now()
        first = len(self._serial)
        for offset, description in enumerate(descriptions):
            self._append_row(description, serial + offset, now)
        rows = range(first, first + len(descriptions))
        self.emit("new", rows, pattern=descriptions[0].tags.get("pattern", ""))
        return rows

    # -- emission policy ----------------------------------------------------

    def batches(self, items: list) -> list[list]:
        """Split one lifecycle list into the batches it moves in."""
        if self.bulk:
            return [items] if items else []
        return [[item] for item in items]

    def emit(self, kind: str, rows: Sequence[int], **fields: Any) -> None:
        """Record one lifecycle event of *kind* (``new``, ``state``,
        ``slots``) for the units in *rows*: a per-unit event for a batch
        of one in a per-unit session, else one batch event with ``n``
        and ``last``."""
        per_unit, batch = _EVENT_NAMES[kind]
        first = self.uid(rows[0])
        if len(rows) == 1 and not self.bulk:
            self._session.prof.event(per_unit, first, **fields)
        else:
            self._session.prof.event(
                batch, first, **fields,
                n=len(rows), last=self.uid(rows[-1]),
            )

    # -- dense fields -------------------------------------------------------

    def uid(self, i: int) -> str:
        return f"unit.{self._serial[i]:0{_UID_WIDTH}d}"

    def state(self, i: int) -> UnitState:
        return _STATES[self._state[i]]

    def cores(self, i: int) -> int:
        return self._cores[i]

    def description(self, i: int) -> "ComputeUnitDescription":
        return self._descriptions[i]

    def attempts(self, i: int) -> int:
        return self._attempts[i]

    def set_attempts(self, i: int, value: int) -> None:
        self._attempts[i] = value

    def pilot_uid(self, i: int) -> str | None:
        index = self._pilot[i]
        return None if index < 0 else self._pilot_uids[index]

    def set_pilot_uid(self, i: int, uid: str | None) -> None:
        if uid is None:
            self._pilot[i] = -1
            return
        index = self._pilot_index.get(uid)
        if index is None:
            index = len(self._pilot_uids)
            self._pilot_uids.append(uid)
            self._pilot_index[uid] = index
        self._pilot[i] = index

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

    # -- callbacks ----------------------------------------------------------

    def set_group_callbacks(self, rows: range, callbacks: list[Callable]) -> None:
        """Attach one shared callback list to every unit in *rows*.

        Consecutive calls with the same list object share one entry, so a
        submission moved as batches of one still stores its list once.
        """
        if not callbacks:
            return
        if self._shared_cbs and self._shared_cbs[-1] is callbacks:
            group = len(self._shared_cbs) - 1
        else:
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

    def callbacks(self, i: int) -> list[Callable]:
        group = self._cb_group[i]
        shared = self._shared_cbs[group] if group >= 0 else ()
        extras = self._extra_cbs.get(i)
        if extras is None:
            return list(shared)
        return [*shared, *extras]

    def final_event(self, i: int, *, create: bool = False) -> threading.Event | None:
        event = self._final_events.get(i)
        if event is None and create:
            event = self._final_events[i] = threading.Event()
        return event

    # -- lifecycle ----------------------------------------------------------

    def advance(self, unit: "ComputeUnit", target: UnitState) -> None:
        """One unit's transition (an adapter for callers holding one unit)."""
        self._advance([unit], target)

    def advance_many(self, units: list["ComputeUnit"], target: UnitState) -> None:
        """Move *units* to *target* (the lifecycle's one transition call)."""
        self._advance(units, target)

    def _advance(self, units: list["ComputeUnit"], target: UnitState) -> None:
        """Transition body, per homogeneous (same current state) group:
        validate and stamp → one :meth:`emit` → callbacks per unit →
        final-event set.  For a batch of one this is the historical
        per-unit order the golden traces pin."""
        if not units:
            return
        session = self._session
        code = _STATE_INDEX[target]
        column = self._ts[target.value]
        groups: dict[int, list["ComputeUnit"]] = {}
        with self._lock:
            for unit in units:
                groups.setdefault(self._state[unit._i], []).append(unit)
        for previous_code, group in groups.items():
            previous = _STATES[previous_code]
            rows = [unit._i for unit in group]
            with self._lock:
                validate_unit_edge(
                    f"ComputeUnit {self.uid(rows[0])}", previous, target
                )
                now = session.now()
                for i in rows:
                    self._state[i] = code
                    column[i] = now
            self.emit("state", rows, state=target.value, prev=previous.value)
            for unit in group:
                for cb in self.callbacks(unit._i):
                    cb(unit, target)
                if target.is_final:
                    event = self._final_events.get(unit._i)
                    if event is not None:
                        event.set()
