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
  and task faults, per-unit and batched) the derived series must equal
  the recorded ones point for point, and each gauge must end at the
  number of units the store holds in that state.
* **Trace format.**  A trace written before state events carried
  ``prev`` (recorded ``units.*`` points) reads exactly as it did: the
  same series, the same Chrome counters and the same ``repro trace
  summarize`` output.  The same trace in the new format derives the same
  series and exports the same bytes, in either event order.
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
from tests.test_telemetry import synthetic_trace


# -- reference: the store's former gauge emitter ------------------------------


class _RecordedGauges:
    """Records the store's former ``adjust`` calls into its own trace."""

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.prof: Profiler | None = None
        self._registry: MetricsRegistry | None = None
        #: Per active ``_advance`` call: row -> state before the call.
        self._before: list[dict[int, UnitState]] = []
        add_bulk, advance, emit = (
            UnitStore.add_bulk, UnitStore._advance, UnitStore.emit
        )

        def wrapped_add_bulk(store, descriptions):
            rows = add_bulk(store, descriptions)
            if len(rows):
                self._metrics(store).adjust("units.NEW", len(rows))
            return rows

        def wrapped_advance(store, units, target):
            self._before.append({u._i: store.state(u._i) for u in units})
            try:
                advance(store, units, target)
            finally:
                self._before.pop()

        def wrapped_emit(store, kind, rows, **fields):
            emit(store, kind, rows, **fields)
            if kind == "state":
                previous = self._before[-1][rows[0]]
                metrics = self._metrics(store)
                metrics.adjust(f"units.{previous.value}", -len(rows))
                metrics.adjust(f"units.{fields['state']}", len(rows))

        monkeypatch.setattr(UnitStore, "add_bulk", wrapped_add_bulk)
        monkeypatch.setattr(UnitStore, "_advance", wrapped_advance)
        monkeypatch.setattr(UnitStore, "emit", wrapped_emit)

    def _metrics(self, store: UnitStore) -> MetricsRegistry:
        if self._registry is None:
            now = store._session.now
            self.prof = Profiler(now)
            self._registry = MetricsRegistry(now, emit=self.prof.event)
        return self._registry


def _unit_series(registry: MetricsRegistry) -> dict[str, list]:
    return {
        name: registry.series(name).points
        for name in registry.names()
        if name.startswith("units.")
    }


CASES = list(product(PATTERNS, FAULTS, ("per-unit", "batched")))


@pytest.mark.parametrize("pattern_name,faults,granularity", CASES)
def test_derived_gauges_match_recorded_reference(
    pattern_name, faults, granularity, monkeypatch
):
    reference = _RecordedGauges(monkeypatch)
    reset_id_counters()
    handle = ResourceHandle(
        "xsede.comet", cores=48, walltime=900, mode="sim", seed=1,
        bulk_lifecycle=granularity == "batched", **FAULTS[faults],
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

    store = handle.session.unit_store
    for state in UnitState:
        held = sum(store.state(i) is state for i in range(len(store)))
        assert derived.series(f"units.{state.value}").last == held, state


# -- trace format ------------------------------------------------------------

#: ``sha256`` of ``write_chrome_trace`` on ``_trace(old_format=True)``,
#: and the metrics section ``repro trace summarize`` printed for it,
#: both taken before state events carried ``prev``.
_OLD_FORMAT_EXPORT = (
    "06ab0618beba7e3dce85553814ebb9f3820cdee2cbd3b94d3044c801078a45c5"
)
_OLD_FORMAT_METRICS = """\
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


def _trace(old_format: bool) -> list[dict]:
    """:func:`synthetic_trace` plus a ``depth`` gauge point, either with
    recorded ``units.*`` points after each lifecycle event (the old
    format) or with ``prev`` on every state event (the new one)."""
    events: list[dict] = []
    counts: dict[str, int] = {}
    state: dict[str, str] = {}

    def point(time: float, name: str, delta: int) -> None:
        counts[name] = counts.get(name, 0) + delta
        events.append({"time": time, "name": "metric", "uid": f"units.{name}",
                       "value": float(counts[name]), "kind": "gauge"})

    for event in synthetic_trace():
        if event["name"] == "unit_state" and not old_format:
            event = dict(event, prev=state[event["uid"]])
        events.append(event)
        if event["name"] == "unit_new":
            state[event["uid"]] = "NEW"
            if old_format:
                point(event["time"], "NEW", 1)
        elif event["name"] == "unit_state":
            if old_format:
                point(event["time"], state[event["uid"]], -1)
                point(event["time"], event["state"], 1)
            state[event["uid"]] = event["state"]
    events.append({"time": 10.0, "name": "metric", "uid": "depth",
                   "value": 4.0, "kind": "gauge"})
    return events


def _summary_metrics(path, capsys) -> str:
    from repro.__main__ import main

    assert main(["trace", "summarize", str(path)]) == 0
    out = capsys.readouterr().out
    return out[out.index("metrics ("):]


def _write_jsonl(path, events) -> None:
    with path.open("w") as stream:
        for event in events:
            stream.write(json.dumps(event) + "\n")


class TestTraceFormat:
    def test_old_format_reads_as_recorded(self, tmp_path, capsys):
        events = _trace(old_format=True)
        registry = MetricsRegistry.from_events(events)
        recorded: dict[str, list] = {}
        for ev in events:
            if ev["name"] == "metric":
                recorded.setdefault(ev["uid"], []).append(
                    (ev["time"], ev["value"])
                )
        assert {n: registry.series(n).points for n in registry.names()} == recorded

        export = tmp_path / "old.json"
        write_chrome_trace(events, export)
        assert hashlib.sha256(export.read_bytes()).hexdigest() == _OLD_FORMAT_EXPORT

        trace = tmp_path / "old.jsonl"
        _write_jsonl(trace, events)
        assert _summary_metrics(trace, capsys) == _OLD_FORMAT_METRICS

    def test_new_format_derives_the_same_series(self, tmp_path, capsys):
        old = MetricsRegistry.from_events(_trace(old_format=True))
        new = MetricsRegistry.from_events(_trace(old_format=False))
        assert new.names() == old.names()
        for name in old.names():
            assert new.series(name).points == old.series(name).points, name
            assert new.series(name).stats() == old.series(name).stats(), name

        export = tmp_path / "new.json"
        write_chrome_trace(_trace(old_format=False), export)
        assert hashlib.sha256(export.read_bytes()).hexdigest() == _OLD_FORMAT_EXPORT

        trace = tmp_path / "new.jsonl"
        _write_jsonl(trace, _trace(old_format=False))
        assert _summary_metrics(trace, capsys) == _OLD_FORMAT_METRICS

    def test_one_state_event_without_prev_disables_derivation(self):
        events = _trace(old_format=False)
        first = next(ev for ev in events if ev["name"] == "unit_state")
        del first["prev"]
        assert MetricsRegistry.from_events(events).names() == ["depth"]

    def test_batch_events_move_n_units(self):
        events = [
            {"time": 1.0, "name": "units_new", "uid": "u1", "n": 3,
             "last": "u3"},
            {"time": 2.0, "name": "units_state", "uid": "u1", "n": 2,
             "last": "u2", "state": "UMGR_SCHEDULING", "prev": "NEW"},
            {"time": 3.0, "name": "unit_state", "uid": "u3",
             "state": "CANCELED", "prev": "NEW"},
        ]
        registry = MetricsRegistry.from_events(events)
        assert registry.series("units.NEW").points == [
            (1.0, 3.0), (2.0, 1.0), (3.0, 0.0)
        ]
        assert registry.series("units.UMGR_SCHEDULING").points == [(2.0, 2.0)]
        assert registry.series("units.CANCELED").points == [(3.0, 1.0)]

    @pytest.mark.parametrize("old_format", [True, False], ids=["old", "new"])
    def test_reversed_input_exports_byte_identically(self, old_format):
        events = _trace(old_format)
        forward = json.dumps(chrome_trace(events), sort_keys=True)
        backward = json.dumps(chrome_trace(events[::-1]), sort_keys=True)
        assert forward == backward
