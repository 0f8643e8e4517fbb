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
from pathlib import Path

import pytest

from repro.core.kernel_plugin import Kernel
from repro.core.patterns import BagOfTasks, EnsembleOfPipelines
from repro.core.resource_handle import ResourceHandle
from repro.exceptions import PatternError, StagingError, StateTransitionError
from repro.pilot.description import ComputeUnitDescription
from repro.pilot.profiler import Profiler
from repro.pilot.session import Session
from repro.pilot.states import UnitState
from repro.pilot.unit import ComputeUnit
from repro.pilot.unit_store import WIDTH, UnitStore
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.sink import MemorySink, ProfileEvent, SpoolSink, revive
from repro.utils.ids import reset_id_counters


@pytest.fixture
def session():
    reset_id_counters()
    with Session(mode="sim", platform="xsede.comet") as s:
        yield s


@pytest.fixture
def bulk_session():
    reset_id_counters()
    with Session(mode="sim", platform="xsede.comet", bulk_lifecycle=True) as s:
        yield s


def _desc(cores=1):
    return ComputeUnitDescription(
        executable="sleep", cores=cores, mpi=cores > 1
    )


# -- the columnar store ------------------------------------------------------


class TestUnitStore:
    def test_add_assigns_sequential_lazy_uids(self, session):
        store = session.unit_store
        (a,) = store.add_bulk([_desc()])
        (b,) = store.add_bulk([_desc()])
        assert store.uid(a) == "unit.000000"
        assert store.uid(b) == "unit.000001"
        assert len(store) == 2

    def test_add_bulk_matches_per_unit_serials(self, session):
        store = session.unit_store
        store.add_bulk([_desc()])
        rows = store.add_bulk([_desc() for _ in range(3)])
        assert list(rows) == [1, 2, 3]
        assert [store.uid(i) for i in rows] == [
            "unit.000001", "unit.000002", "unit.000003",
        ]
        # A one-unit batch continues from the same counter.
        assert store.uid(store.add_bulk([_desc()])[0]) == "unit.000004"

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
        # Shared group callbacks are completion hooks, called once per
        # batch with the batch's units that share the list; a unit's own
        # callbacks see every transition.  On a final transition the
        # shared lists run first, then each unit calls its own callbacks,
        # and then the session is notified once.
        store = session.unit_store
        rows = store.add_bulk([_desc(), _desc(), _desc()])
        calls = []
        session.notify = lambda: calls.append("notify")

        def record(tag):
            return lambda u, s: calls.append((tag, u.uid, s))

        def record_batch(tag):
            return lambda us, s: calls.append((tag, [u.uid for u in us], s))

        store.set_group_callbacks(rows[:2], [record_batch("shared")])
        store.set_group_callbacks(rows[2:], [record_batch("other")])
        units = [ComputeUnit._of(store, i) for i in rows]
        units[0].add_callback(record("extra"))
        store.advance_many(units, UnitState.UMGR_SCHEDULING)
        assert calls == [
            ("extra", "unit.000000", UnitState.UMGR_SCHEDULING),
        ]
        calls.clear()
        store.advance_many(units, UnitState.CANCELED)
        assert calls == [
            ("shared", ["unit.000000", "unit.000001"], UnitState.CANCELED),
            ("other", ["unit.000002"], UnitState.CANCELED),
            ("extra", "unit.000000", UnitState.CANCELED),
            "notify",
        ]

    def test_batch_of_one_keeps_per_unit_callback_order(self, session):
        store = session.unit_store
        rows = store.add_bulk([_desc(), _desc()])
        calls = []
        session.notify = lambda: calls.append("notify")
        store.set_group_callbacks(rows, [
            lambda us, s: calls.append(("shared", [u.uid for u in us])),
        ])
        units = [ComputeUnit._of(store, i) for i in rows]
        for unit in units:
            unit.add_callback(lambda u, s: calls.append(("extra", u.uid)))
        for unit in units:
            store.advance_many([unit], UnitState.CANCELED)
        assert calls == [
            ("shared", ["unit.000000"]), ("extra", "unit.000000"), "notify",
            ("shared", ["unit.000001"]), ("extra", "unit.000001"), "notify",
        ]

    def test_advance_many_emits_one_batch_event_per_group(self, bulk_session):
        session = bulk_session
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

    def test_advance_many_groups_by_current_state(self, bulk_session):
        session = bulk_session
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

    def test_per_unit_session_expands_a_list_per_row(self, session):
        """A per-unit session moves the list whole but writes one event
        per row, each with that row's own width and pattern tag; a bulk
        session writes one event with the list's total width."""
        store = session.unit_store
        rows = store.add_bulk(
            [_desc(1), _desc(4), _desc(2)],
            [{"pattern": "p.a"}, {"pattern": "p.b"}, {"pattern": "p.a"}],
        )
        units = [ComputeUnit._of(store, i) for i in rows]
        store.advance_many(units, UnitState.UMGR_SCHEDULING,
                           pilot="pilot.0000", cores=WIDTH)
        store.emit("slots", list(rows), slots=WIDTH, pilot="pilot.0000")
        events = session.prof.events()
        assert not any(ev.name.startswith("units_") for ev in events)
        uids = ["unit.000000", "unit.000001", "unit.000002"]
        new = [ev for ev in events if ev.name == "unit_new"]
        assert [(ev.uid, ev.attrs["pattern"]) for ev in new] == list(
            zip(uids, ["p.a", "p.b", "p.a"])
        )
        state = [ev for ev in events if ev.name == "unit_state"]
        assert [(ev.uid, ev.attrs) for ev in state] == [
            (uid, {"state": "UMGR_SCHEDULING", "prev": "NEW",
                   "pilot": "pilot.0000", "cores": cores})
            for uid, cores in zip(uids, [1, 4, 2])
        ]
        slots = [ev for ev in events if ev.name == "unit_slots"]
        assert [(ev.uid, ev.attrs) for ev in slots] == [
            (uid, {"slots": cores, "pilot": "pilot.0000"})
            for uid, cores in zip(uids, [1, 4, 2])
        ]

    def test_bulk_session_puts_the_list_width_on_its_event(self, bulk_session):
        store = bulk_session.unit_store
        rows = store.add_bulk([_desc(1), _desc(4), _desc(2)])
        units = [ComputeUnit._of(store, i) for i in rows]
        store.advance_many(units, UnitState.UMGR_SCHEDULING,
                           pilot="pilot.0000", cores=WIDTH)
        store.emit("slots", list(rows), slots=WIDTH, pilot="pilot.0000")
        (state,) = bulk_session.prof.events("units_state")
        assert state.attrs["cores"] == 7 and state.attrs["n"] == 3
        (slots,) = bulk_session.prof.events("units_slots")
        assert slots.attrs["slots"] == 7

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
        sink = SpoolSink(tmp_path / "trace.jsonl")
        events = [
            ProfileEvent(float(i), "tick", f"uid.{i}", {"i": i})
            for i in range(5)
        ]
        for ev in events:
            sink.append(ev)
        assert len(sink) == 5
        assert sink.events() == events
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
    @pytest.mark.parametrize("bulk", [False, True])
    def test_add_callback_sees_every_state_of_a_run(self, monkeypatch, bulk):
        seen: dict[str, list[UnitState]] = {}
        shared: list[tuple[str, UnitState]] = []
        attach = UnitStore.set_group_callbacks

        def attach_and_watch(store, rows, callbacks):
            # Wrap the driver's completion hook, and give every unit its
            # own callback before the unit first moves.
            attach(store, rows, [
                lambda us, s, cb=cb: (
                    shared.extend((u.uid, s) for u in us), cb(us, s)
                )
                for cb in callbacks
            ])
            for i in rows:
                store.add_callback(
                    i, lambda u, s: seen.setdefault(u.uid, []).append(s)
                )

        monkeypatch.setattr(UnitStore, "set_group_callbacks", attach_and_watch)
        _, pattern, _ = _run(n=8, bulk_lifecycle=bulk)
        assert len(seen) == len(pattern.units) == 16
        assert all(states == [
            UnitState.UMGR_SCHEDULING, UnitState.AGENT_STAGING_INPUT,
            UnitState.AGENT_SCHEDULING, UnitState.EXECUTING,
            UnitState.AGENT_STAGING_OUTPUT, UnitState.DONE,
        ] for states in seen.values())
        assert sorted(shared) == sorted(
            (uid, UnitState.DONE) for uid in seen
        )

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

    @pytest.mark.parametrize("make_pattern", [
        lambda: SleepBag(size=64),
        lambda: CharCount(ensemble_size=16, pipeline_size=2),
    ], ids=["bag64", "staged_eop16x2"])
    def test_local_batched_run_matches_per_unit_run(self, tmp_path,
                                                    make_pattern):
        # Wall times differ between the runs; outcomes must not.
        per_unit = _local_outcome(make_pattern(), tmp_path / "per_unit")
        batched = _local_outcome(make_pattern(), tmp_path / "batched",
                                 bulk_lifecycle=True)
        assert batched == per_unit
        assert all(state is UnitState.DONE for _, state, *_ in per_unit)

    @pytest.mark.parametrize("bulk", [False, True], ids=["per-unit", "batched"])
    def test_local_staging_failure_fails_only_its_unit(self, tmp_path, bulk):
        """A unit whose input is missing fails alone: the rest of the
        list it was submitted with still runs."""
        handle = ResourceHandle(
            "local.localhost", cores=4, walltime=10, mode="local",
            sandbox=tmp_path, bulk_lifecycle=bulk,
        )
        handle.allocate()
        pattern = MissingInputBag(size=4)
        try:
            with pytest.raises(PatternError, match="1 task"):
                handle.run(pattern)
        finally:
            handle.deallocate()
        states = {u.description.tags["instance"]: u.state for u in pattern.units}
        assert states == {1: UnitState.DONE, 2: UnitState.FAILED,
                          3: UnitState.DONE, 4: UnitState.DONE}
        (failed,) = pattern.failed_units
        assert isinstance(failed.exception, StagingError)


class SleepBag(BagOfTasks):
    def task(self, instance):
        return _sleep(0)


class MissingInputBag(BagOfTasks):
    """A bag whose second task links a shared file that does not exist."""

    def task(self, instance):
        kernel = _sleep(0)
        if instance == 2:
            kernel.link_input_data = ["$SHARED/missing.txt > in.txt"]
        return kernel


class CharCount(EnsembleOfPipelines):
    """The paper's characterization pipeline, staged through $STAGE_1."""

    def stage_1(self, instance):
        kernel = Kernel(name="misc.mkfile")
        kernel.arguments = [f"--size={100 * instance}", "--filename=data.txt"]
        return kernel

    def stage_2(self, instance):
        kernel = Kernel(name="misc.ccount")
        kernel.arguments = ["--inputfile=data.txt", "--outputfile=count.txt"]
        kernel.link_input_data = ["$STAGE_1/data.txt > data.txt"]
        return kernel


def _local_outcome(pattern, sandbox, **handle_kwargs):
    """Per unit, sorted by its tags: final state, result, the files in its
    sandbox and the states it entered."""
    reset_id_counters()
    handle = ResourceHandle(
        "local.localhost", cores=4, walltime=10, mode="local",
        sandbox=sandbox, **handle_kwargs,
    )
    handle.allocate()
    try:
        handle.run(pattern)
        outcome = sorted(
            (
                sorted((k, v) for k, v in unit.description.tags.items()
                       if k != "pattern"),
                unit.state,
                unit.result,
                {path.name: path.read_text()
                 for path in Path(unit.sandbox).iterdir()},
                set(unit.timestamps),
            )
            for unit in pattern.units
        )
        batch_events = handle.profile.events("units_state")
    finally:
        handle.deallocate()
    assert bool(batch_events) == handle.bulk_lifecycle
    return outcome
