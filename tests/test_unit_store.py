"""The million-unit scale envelope: columnar store, sinks, bulk lifecycle.

Three layers under test:

* :class:`repro.pilot.unit_store.UnitStore` — the struct-of-arrays
  backing store behind the :class:`ComputeUnit` view;
* :mod:`repro.telemetry.sink` — the spillable event sinks the profiler
  writes through, and metrics that keep running aggregates live while
  their points live only in the trace;
* ``Session(bulk_lifecycle=True)`` — batched submission and state
  transitions, which must leave virtual time untouched relative to the
  classic per-unit path.
"""

import json

import pytest

from repro.core.kernel_plugin import Kernel
from repro.core.patterns import EnsembleOfPipelines
from repro.core.resource_handle import ResourceHandle
from repro.exceptions import ConfigurationError, StateTransitionError
from repro.pilot.description import ComputeUnitDescription
from repro.pilot.profiler import Profiler
from repro.pilot.session import Session
from repro.pilot.states import UnitState
from repro.pilot.unit import ComputeUnit
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.sink import MemorySink, ProfileEvent, SpoolSink, revive
from repro.utils.ids import reset_id_counters


@pytest.fixture
def session():
    reset_id_counters()
    with Session(mode="sim", platform="xsede.comet") as s:
        yield s


def _desc(cores=1):
    return ComputeUnitDescription(
        executable="sleep", cores=cores, mpi=cores > 1
    )


# -- the columnar store ------------------------------------------------------


class TestUnitStore:
    def test_add_assigns_sequential_lazy_uids(self, session):
        store = session.unit_store
        a = store.add(_desc())
        b = store.add(_desc())
        assert store.uid(a) == "unit.000000"
        assert store.uid(b) == "unit.000001"
        assert len(store) == 2

    def test_add_bulk_matches_per_unit_serials(self, session):
        store = session.unit_store
        store.add(_desc())
        rows = store.add_bulk([_desc() for _ in range(3)])
        assert list(rows) == [1, 2, 3]
        assert [store.uid(i) for i in rows] == [
            "unit.000001", "unit.000002", "unit.000003",
        ]
        # The classic path continues from the same counter.
        assert store.uid(store.add(_desc())) == "unit.000004"

    def test_view_round_trips_every_field(self, session):
        unit = ComputeUnit(_desc(cores=4), session)
        assert unit.state is UnitState.NEW
        assert unit.description.cores == 4
        unit.pilot_uid = "pilot.000000"
        unit.slots = [3, 7, 9]
        unit.result = {"answer": 42}
        unit.sandbox = "/sim/unit.000000"
        unit.attempts = 2
        unit.exclude_node("pilot.000000", 5)
        assert unit.pilot_uid == "pilot.000000"
        assert unit.slots == [3, 7, 9]
        assert unit.result == {"answer": 42}
        assert unit.sandbox == "/sim/unit.000000"
        assert unit.attempts == 2
        assert unit.excluded_nodes == {("pilot.000000", 5)}
        unit.result = None
        unit.sandbox = None
        assert unit.result is None
        assert unit.sandbox is None
        # Cleared sparse fields release their side-table entries.
        assert unit._i not in session.unit_store._results
        assert unit._i not in session.unit_store._sandboxes

    def test_timestamps_view_is_mapping_like(self, session):
        unit = ComputeUnit(_desc(), session)
        stamps = unit.timestamps
        assert "NEW" in stamps
        assert "EXECUTING" not in stamps
        assert stamps.get("EXECUTING") is None
        assert stamps.get("EXECUTING", -1.0) == -1.0
        with pytest.raises(KeyError):
            stamps["EXECUTING"]
        unit.advance(UnitState.UMGR_SCHEDULING)
        assert set(stamps.keys()) == {"NEW", "UMGR_SCHEDULING"}
        assert len(stamps) == 2
        assert dict(stamps.items())["NEW"] == pytest.approx(
            stamps["NEW"]
        )

    def test_advance_validates_edges(self, session):
        unit = ComputeUnit(_desc(), session)
        with pytest.raises(StateTransitionError):
            unit.advance(UnitState.EXECUTING)

    def test_advance_updates_state_gauges(self, session):
        unit = ComputeUnit(_desc(), session)
        gauges = MetricsRegistry.from_events(session.prof)
        assert gauges.series("units.NEW").last == 1
        unit.advance(UnitState.UMGR_SCHEDULING)
        gauges = MetricsRegistry.from_events(session.prof)
        assert gauges.series("units.NEW").last == 0
        assert gauges.series("units.UMGR_SCHEDULING").last == 1

    def test_slots_are_independent_snapshots(self, session):
        unit = ComputeUnit(_desc(), session)
        unit.slots = [1, 2]
        first = unit.slots
        first.append(99)
        assert unit.slots == [1, 2]

    def test_callbacks_shared_plus_extra_order(self, session):
        store = session.unit_store
        rows = store.add_bulk([_desc(), _desc()])
        calls = []
        store.set_group_callbacks(
            rows, [lambda u, s: calls.append(("shared", u.uid, s))]
        )
        units = [ComputeUnit._of(store, i) for i in rows]
        units[0].add_callback(lambda u, s: calls.append(("extra", u.uid, s)))
        store.advance_many(units, UnitState.UMGR_SCHEDULING)
        assert calls == [
            ("shared", "unit.000000", UnitState.UMGR_SCHEDULING),
            ("extra", "unit.000000", UnitState.UMGR_SCHEDULING),
            ("shared", "unit.000001", UnitState.UMGR_SCHEDULING),
        ]

    def test_advance_many_emits_one_batch_event_per_group(self, session):
        store = session.unit_store
        rows = store.add_bulk([_desc() for _ in range(5)])
        units = [ComputeUnit._of(store, i) for i in rows]
        before = len(session.prof)
        store.advance_many(units, UnitState.UMGR_SCHEDULING)
        batch = [
            ev for ev in session.prof.events()[before:]
            if ev.name == "units_state"
        ]
        assert len(batch) == 1
        assert batch[0].uid == "unit.000000"
        assert batch[0].attrs["n"] == 5
        assert batch[0].attrs["last"] == "unit.000004"
        assert batch[0].attrs["state"] == "UMGR_SCHEDULING"
        assert batch[0].attrs["prev"] == "NEW"
        assert all(u.state is UnitState.UMGR_SCHEDULING for u in units)
        gauges = MetricsRegistry.from_events(session.prof)
        assert gauges.series("units.UMGR_SCHEDULING").last == 5

    def test_advance_many_groups_by_current_state(self, session):
        store = session.unit_store
        rows = store.add_bulk([_desc() for _ in range(4)])
        units = [ComputeUnit._of(store, i) for i in rows]
        # Put half the batch one state ahead, then cancel all: two
        # homogeneous groups (NEW and UMGR_SCHEDULING), two batch events.
        store.advance_many(units[:2], UnitState.UMGR_SCHEDULING)
        before = len(session.prof)
        store.advance_many(units, UnitState.CANCELED)
        sizes = [
            ev.attrs["n"] for ev in session.prof.events()[before:]
            if ev.name == "units_state"
        ]
        assert sorted(sizes) == [2, 2]
        assert all(u.state is UnitState.CANCELED for u in units)

    def test_advance_many_validates_every_group(self, session):
        store = session.unit_store
        rows = store.add_bulk([_desc()])
        units = [ComputeUnit._of(store, i) for i in rows]
        with pytest.raises(StateTransitionError):
            store.advance_many(units, UnitState.EXECUTING)


# -- sinks -------------------------------------------------------------------


class TestSinks:
    def test_memory_sink_is_default(self, session):
        assert isinstance(session.prof.sink, MemorySink)

    def test_profile_event_row_round_trip(self):
        ev = ProfileEvent(1.5, "unit_state", "unit.000001",
                          {"state": "EXECUTING", "n": 3})
        row = ev.row()
        assert row == {"time": 1.5, "name": "unit_state",
                       "uid": "unit.000001", "state": "EXECUTING", "n": 3}
        assert revive(dict(row)) == ev

    def test_spool_sink_writes_ndjson_and_revives(self, tmp_path):
        sink = SpoolSink(tmp_path / "trace.jsonl", ring=2)
        events = [
            ProfileEvent(float(i), "tick", f"uid.{i}", {"i": i})
            for i in range(5)
        ]
        for ev in events:
            sink.append(ev)
        assert len(sink) == 5
        assert sink.tail() == events[-2:]  # bounded ring
        assert sink.events() == events
        assert sink.events(since=3) == events[3:]
        with (tmp_path / "trace.jsonl").open() as stream:
            rows = [json.loads(line) for line in stream]
        assert rows[0] == {"time": 0.0, "name": "tick", "uid": "uid.0", "i": 0}
        sink.close()

    def test_spool_sink_append_after_close_preserves_history(self, tmp_path):
        sink = SpoolSink(tmp_path / "trace.jsonl")
        sink.append(ProfileEvent(0.0, "a", "u"))
        sink.close()
        # Post-close appends (session teardown events) must not truncate.
        sink.append(ProfileEvent(1.0, "b", "u"))
        sink.close()
        assert [ev.name for ev in sink.events()] == ["a", "b"]

    def test_spool_sink_empty_reads(self, tmp_path):
        sink = SpoolSink(tmp_path / "missing" / "trace.jsonl")
        assert sink.events() == []
        assert len(sink) == 0
        sink.close()

    def test_session_spool_dir_streams_trace(self, tmp_path):
        reset_id_counters()
        with Session(mode="sim", platform="xsede.comet",
                     spool_dir=tmp_path) as s:
            ComputeUnit(_desc(), s)
            spool = s.spool_path
        assert spool is not None and spool.exists()
        names = [ev.name for ev in s.prof.events()]
        assert names[0] == "session_start"
        assert "session_close" in names


# -- bounded metrics ---------------------------------------------------------


class TestBoundedMetrics:
    """A live registry keeps running aggregates; its points are read
    back from the trace with ``MetricsRegistry.from_events``."""

    def _registries(self):
        clock = {"t": 0.0}
        prof = Profiler(lambda: clock["t"])
        live = MetricsRegistry(lambda: clock["t"], emit=prof.event)
        for value in (3.0, 1.0, 4.0, 1.0, 5.0):
            clock["t"] += 1.0
            live.sample("latency", value)
        live.adjust("gauge", 2)
        live.adjust("gauge", -1)
        return live, MetricsRegistry.from_events(prof)

    def test_stats_identical_with_and_without_points(self):
        bounded, resident = self._registries()
        assert (resident.series("latency").stats()
                == bounded.series("latency").stats())
        assert bounded.series("latency").last == 5.0
        assert bounded.series("gauge").last == 1
        assert len(bounded.series("latency")) == 5
        assert resident.series("latency").values() == [3.0, 1.0, 4.0, 1.0, 5.0]
        assert resident.series("gauge").values() == [2.0, 1.0]

    def test_bounded_series_refuses_point_reads(self):
        bounded, _ = self._registries()
        with pytest.raises(RuntimeError, match="latency"):
            bounded.series("latency").values()
        with pytest.raises(RuntimeError, match="latency"):
            bounded.series("latency").value_at(1.0)
        assert bounded.series("latency").points == []


# -- bulk lifecycle ----------------------------------------------------------


def _sleep(duration):
    kernel = Kernel(name="misc.sleep")
    kernel.arguments = [f"--duration={duration}"]
    return kernel


class TwoStage(EnsembleOfPipelines):
    def stage_1(self, instance):
        return _sleep(40)

    def stage_2(self, instance):
        return _sleep(20)


def _run(n=48, **handle_kwargs):
    reset_id_counters()
    handle = ResourceHandle(
        "xsede.comet", cores=32, walltime=60, mode="sim", **handle_kwargs
    )
    handle.allocate()
    pattern = TwoStage(ensemble_size=n, pipeline_size=2)
    try:
        handle.run(pattern)
        ttc = handle.session.now()
    finally:
        handle.deallocate()
    return handle, pattern, ttc


class TestBulkLifecycle:
    def test_bulk_run_matches_classic_virtual_time(self):
        _, classic_pattern, classic_ttc = _run()
        handle, pattern, ttc = _run(bulk_lifecycle=True)
        assert ttc == classic_ttc
        assert len(pattern.units) == len(classic_pattern.units)
        assert all(u.state is UnitState.DONE for u in pattern.units)

    def test_bulk_run_emits_batch_events(self):
        handle, _, _ = _run(bulk_lifecycle=True)
        names = [ev.name for ev in handle.profile]
        assert "units_new" in names
        assert "units_state" in names
        assert "units_slots" in names
        assert "unit_new" not in names
        assert "unit_state" not in names

    def test_bulk_trace_is_much_smaller(self):
        classic_handle, _, _ = _run()
        bulk_handle, _, _ = _run(bulk_lifecycle=True)
        assert len(list(bulk_handle.profile)) * 5 < len(
            list(classic_handle.profile)
        )

    def test_bulk_matches_classic_when_wave_mixes_stages(self):
        """Regression: a scheduling pass that launches stage-1 leftovers
        and stage-2 units together produces *two* executor groups from
        one ``launch_units`` call.  The group callbacks used to close
        over the loop variable ``finish``, so every group's start
        scheduled the last group's completion — one group finished
        twice (an illegal DONE -> AGENT_STAGING_OUTPUT edge) and the
        other never finished.  100 pipelines on 32 cores hits a mixed
        wave; bulk must match classic exactly."""
        _, classic_pattern, classic_ttc = _run(n=100)
        handle, pattern, ttc = _run(n=100, bulk_lifecycle=True)
        assert ttc == classic_ttc
        assert all(u.state is UnitState.DONE for u in pattern.units)
        assert len(pattern.units) == len(classic_pattern.units) == 200

    def test_bulk_with_spool_matches_too(self, tmp_path):
        _, _, classic_ttc = _run()
        handle, pattern, ttc = _run(bulk_lifecycle=True, spool_dir=tmp_path)
        assert ttc == classic_ttc
        assert all(u.state is UnitState.DONE for u in pattern.units)
        assert handle.session.spool_path.exists()

    def test_bulk_rejects_local_mode(self):
        with pytest.raises(ConfigurationError):
            Session(mode="local", bulk_lifecycle=True)
