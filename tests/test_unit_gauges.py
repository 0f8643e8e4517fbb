"""The ``units.<STATE>`` gauges are derived from lifecycle events.

``UnitStore`` no longer records the gauges: every state event names the
state it left (``prev``) and the one it entered, ``add_bulk`` emits the
``new`` event, and ``MetricsRegistry.from_events`` folds those events
into the gauges.  Two checks here:

* **Reference differential.**  The emitter the store used to have is
  kept below as a wrapper: it records ``units.NEW += n`` after every
  ``add_bulk`` and the ``units.<prev> -= n`` / ``units.<state> += n``
  pair after every state event, into a registry of its own.  On real
  runs (EoP, SAL and bag patterns, without faults and with node, pilot
  and task faults) the derived series must equal the recorded ones
  point for point, and each gauge must end at the number of units the
  store holds in that state.  Read as it is (``batched``) and as one
  batch of one per unit (``per-unit``, the trace a per-unit writer
  wrote), the trace must give, at the end of every distinct event time,
  the values pinned when per-unit sessions moved one unit at a time.
* **Trace format.**  The hand-written trace derives the series the
  store recorded for it (the same points, the same ``repro trace
  summarize`` output), exports the same bytes in either event order,
  and a state event without ``prev`` is rejected.
"""

from __future__ import annotations

import hashlib
import json
from itertools import product

import pytest

from repro.core.resource_handle import ResourceHandle
from repro.pilot.profiler import Profiler
from repro.pilot.states import UnitState
from repro.pilot.unit_store import UnitStore
from repro.telemetry import MetricsRegistry, chrome_trace, write_chrome_trace
from repro.utils.ids import reset_id_counters
from tests.test_lifecycle_granularity import _EXERCISED, FAULTS, PATTERNS
from tests.test_telemetry import revived, synthetic_trace
from tests.trace_projections import digest, one_per_unit


# -- reference: the store's former gauge emitter ------------------------------


class _RecordedGauges:
    """Records the store's former gauge moves into a trace of its own:
    one ``metric`` point per move, holding the gauge's running total."""

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.prof: Profiler | None = None
        self._totals: dict[str, int] = {}
        #: Per active ``_advance`` call: row -> state before the call.
        self._before: list[dict[int, UnitState]] = []
        add_bulk, advance, emit = (
            UnitStore.add_bulk, UnitStore._advance, UnitStore.emit
        )

        def wrapped_add_bulk(store, descriptions, *tags):
            rows = add_bulk(store, descriptions, *tags)
            if len(rows):
                self._adjust(store, "units.NEW", len(rows))
            return rows

        def wrapped_advance(store, units, target, *fields):
            self._before.append({u._i: store.state(u._i) for u in units})
            try:
                advance(store, units, target, *fields)
            finally:
                self._before.pop()

        def wrapped_emit(store, kind, rows, **fields):
            emit(store, kind, rows, **fields)
            if kind == "state":
                previous = self._before[-1][rows[0]]
                self._adjust(store, f"units.{previous.value}", -len(rows))
                self._adjust(store, f"units.{fields['state']}", len(rows))

        monkeypatch.setattr(UnitStore, "add_bulk", wrapped_add_bulk)
        monkeypatch.setattr(UnitStore, "_advance", wrapped_advance)
        monkeypatch.setattr(UnitStore, "emit", wrapped_emit)

    def _adjust(self, store: UnitStore, name: str, delta: int) -> None:
        if self.prof is None:
            self.prof = Profiler(store._session.now)
        total = self._totals[name] = self._totals.get(name, 0) + delta
        self.prof.event("metric", name, value=float(total), kind="gauge")


def _unit_series(registry: MetricsRegistry) -> dict[str, list]:
    return {
        name: registry.series(name).points
        for name in registry.names()
        if name.startswith("units.")
    }


def _unit_values(registry: MetricsRegistry, times) -> dict[str, list]:
    """Each ``units.*`` gauge's value at the end of each of *times*."""
    return {
        name: [registry.series(name).value_at(t) for t in times]
        for name in sorted(registry.names())
        if name.startswith("units.")
    }


CASES = list(product(PATTERNS, FAULTS, ("per-unit", "batched")))

#: Per-unit cases: the :func:`~tests.trace_projections.digest` of the
#: recorded gauges' :func:`_unit_values` at every distinct event time,
#: taken while per-unit sessions moved their lists one unit at a time
#: (when the recorded series equalled the derived ones point for point).
PER_UNIT_VALUES = {
    "bag-node": "1270e7de8d2df3f6",
    "bag-none": "a0e782bb36991082",
    "bag-pilot": "416f16ceb460b4ef",
    "bag-task": "0c7d254ac1f11da4",
    "eop-node": "90143ea0f0934e16",
    "eop-none": "4b46615dde27870f",
    "eop-pilot": "d8a7c00ce509c63a",
    "eop-task": "842462c05d5765ba",
    "sal-node": "895597268f4d60fe",
    "sal-none": "091cdb6666f50f23",
    "sal-pilot": "1db61094563ebf93",
    "sal-task": "a7e65eaf6b32de1e",
}


@pytest.mark.parametrize("pattern_name,faults,granularity", CASES)
def test_derived_gauges_match_recorded_reference(
    pattern_name, faults, granularity, monkeypatch
):
    reference = _RecordedGauges(monkeypatch)
    reset_id_counters()
    handle = ResourceHandle(
        "xsede.comet", cores=48, walltime=900, mode="sim", seed=1,
        **FAULTS[faults],
    )
    handle.allocate()
    try:
        handle.run(PATTERNS[pattern_name]())
    finally:
        handle.deallocate()
    events = list(handle.profile)
    names = {ev.name for ev in events}
    if faults in _EXERCISED:
        assert _EXERCISED[faults] in names
    assert not any(
        ev.name == "metric" and ev.uid.startswith("units.") for ev in events
    )

    derived = MetricsRegistry.from_events(events)
    recorded = MetricsRegistry.from_events(reference.prof)
    assert _unit_series(recorded)
    assert _unit_series(derived) == _unit_series(recorded)
    if granularity == "per-unit":
        # Read as one batch of one per unit, the trace derives the values
        # a per-unit trace did.
        derived = MetricsRegistry.from_events(one_per_unit(events))
    times = sorted({ev.time for ev in events})
    assert (digest(_unit_values(derived, times))
            == PER_UNIT_VALUES[f"{pattern_name}-{faults}"])

    store = handle.session.unit_store
    for state in UnitState:
        held = sum(store.state(i) is state for i in range(len(store)))
        assert derived.series(f"units.{state.value}").last == held, state


# -- trace format ------------------------------------------------------------

#: ``sha256`` of ``write_chrome_trace`` on :func:`_trace`.
_EXPORT = "dd91fc549fad3d75b34115b658a0a295d619c893c2e1b808e308242a5e9373bb"
#: The metrics section ``repro trace summarize`` printed for the trace
#: when the store still recorded its ``units.*`` points (:func:`_recording`).
_METRICS = """\
metrics (points, min, max, mean of recorded values):
  depth                                 1       4.000      4.000      4.000
  units.AGENT_SCHEDULING                4       0.000      2.000      1.000
  units.AGENT_STAGING_INPUT             4       0.000      2.000      1.000
  units.AGENT_STAGING_OUTPUT            4       0.000      2.000      1.000
  units.DONE                            2       1.000      2.000      1.500
  units.EXECUTING                       4       0.000      2.000      1.000
  units.NEW                             4       0.000      2.000      1.000
  units.UMGR_SCHEDULING                 4       0.000      2.000      1.000
"""

#: The one gauge point the hand-written trace records.
_DEPTH = {"time": 10.0, "name": "metric", "uid": "depth", "value": 4.0,
          "kind": "gauge"}


def _trace() -> list[dict]:
    """:func:`synthetic_trace` plus a ``depth`` gauge point."""
    return [*synthetic_trace(), dict(_DEPTH)]


def _recording() -> list[dict]:
    """The ``metric`` points a writer that recorded the ``units.*``
    gauges wrote for :func:`_trace`: after each lifecycle event, each
    gauge it moved at its running total, and the ``depth`` point."""
    events: list[dict] = []
    counts: dict[str, int] = {}

    def point(time: float, name: str, delta: int) -> None:
        counts[name] = counts.get(name, 0) + delta
        events.append({"time": time, "name": "metric", "uid": f"units.{name}",
                       "value": float(counts[name]), "kind": "gauge"})

    for event in synthetic_trace():
        if event["name"] == "units_new":
            point(event["time"], "NEW", 1)
        elif event["name"] == "units_state":
            point(event["time"], event["prev"], -1)
            point(event["time"], event["state"], 1)
    events.append(dict(_DEPTH))
    return events


def _summary(path, capsys) -> tuple[int, str, str]:
    from repro.__main__ import main

    status = main(["trace", "summarize", str(path)])
    out, err = capsys.readouterr()
    return status, out, err


def _write_jsonl(path, events) -> None:
    with path.open("w") as stream:
        for event in events:
            stream.write(json.dumps(event) + "\n")


class TestTraceFormat:
    def test_new_format_derives_the_same_series(self, tmp_path, capsys):
        recorded = MetricsRegistry.from_events(revived(_recording()))
        derived = MetricsRegistry.from_events(revived(_trace()))
        assert derived.names() == recorded.names()
        for name in recorded.names():
            series, reference = derived.series(name), recorded.series(name)
            assert series.points == reference.points, name
            assert series.stats() == reference.stats(), name
            assert series.derived == (name != "depth"), name

        export = tmp_path / "new.json"
        write_chrome_trace(revived(_trace()), export)
        assert hashlib.sha256(export.read_bytes()).hexdigest() == _EXPORT

        trace = tmp_path / "new.jsonl"
        _write_jsonl(trace, _trace())
        status, out, _ = _summary(trace, capsys)
        assert status == 0
        assert out[out.index("metrics ("):] == _METRICS

    def test_state_event_without_prev_is_rejected(self, tmp_path, capsys):
        """A reader follows one rule set: a state event that does not
        name the state it left is an error, in process and on the CLI
        (exit 2, the message on stderr, nothing on stdout)."""
        events = _trace()
        first = next(ev for ev in events if ev["name"] == "units_state")
        del first["prev"]
        with pytest.raises(ValueError, match=r"u1 at t=2\.3 has no 'prev'"):
            MetricsRegistry.from_events(revived(events))

        trace = tmp_path / "no-prev.jsonl"
        _write_jsonl(trace, events)
        status, out, err = _summary(trace, capsys)
        assert (status, out) == (2, "")
        assert err == ("repro trace: units_state event of u1 at t=2.3 has "
                       "no 'prev': not a trace this runtime writes\n")

    def test_batch_events_move_n_units(self):
        events = [
            {"time": 1.0, "name": "units_new", "uid": "unit.000001", "n": 3,
             "members": [[1, 3]]},
            {"time": 2.0, "name": "units_state", "uid": "unit.000001", "n": 2,
             "members": [[1, 2]], "state": "UMGR_SCHEDULING", "prev": "NEW"},
            {"time": 3.0, "name": "units_state", "uid": "unit.000003",
             "n": 1, "members": [[3, 1]], "state": "CANCELED", "prev": "NEW"},
        ]
        registry = MetricsRegistry.from_events(revived(events))
        assert registry.series("units.NEW").points == [
            (1.0, 3.0), (2.0, 1.0), (3.0, 0.0)
        ]
        assert registry.series("units.UMGR_SCHEDULING").points == [(2.0, 2.0)]
        assert registry.series("units.CANCELED").points == [(3.0, 1.0)]

    @pytest.mark.parametrize("trace", [_trace], ids=["new"])
    def test_reversed_input_exports_byte_identically(self, trace):
        events = revived(trace())
        forward = json.dumps(chrome_trace(events), sort_keys=True)
        backward = json.dumps(chrome_trace(events[::-1]), sort_keys=True)
        assert forward == backward
