"""The agent's gauges and phase spans are derived, not recorded.

The agent used to restate its units' lifecycle in the trace: the
``agent.<pilot>.queue_depth``/``cores_held`` gauges after every
scheduling pass, ``cores_busy`` on every launch and finish, span pairs
for every stage-in, launch and stage-out, and ``agent.schedule``/
``agent.submit`` span pairs around every pass and submission.  Now
``MetricsRegistry.from_events`` derives the gauges from the state and
slots events (state events that move a gauge carry ``pilot``, and
``cores`` where they start or release cores) and ``SpanBuilder`` derives
the phase spans from the state intervals.

* **Reference differential.**  The former emitters are kept below as
  wrappers that record into a trace of their own.  On real runs (EoP,
  SAL and bag patterns, without faults and with node, pilot and task
  faults, resident and spooled, the trace read as written and as one
  batch of one per unit) the run's trace must give what the reference
  recorded, each read on its own: the recorded phase spans, each matched
  by a derived one on (name, ref, start, end), and each agent gauge's
  value at every event time, against the gauges sampled wherever the
  agent's queue or slots change.  The recorded gauges were sampled only by
  scheduling passes of a started agent, so they differ from the derived
  ones in exactly two places, both intended: after a cancel, until the
  next pass (``TestStaleQueueDepth``), and while an agent is not
  started, e.g. while its pilot is down after a pilot fault.  Batch
  events name their members, so every unit's launch is derived, in
  whichever launch group it starts (``test_launch_groups_of_one_pass``).
* **Trace format.**  A hand-written trace in the format the agent
  writes derives the gauges and phase spans the agent recorded for it
  before they were derived, in either event order.
* **Trace size.**  A classic unit is named by at most 10 lifecycle
  records, with no agent metric point and no span other than the four
  explicit ones, and a run writes fewer events than it has units.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import Counter

import pytest

from repro.analytics.faults import fault_recovery_summary
from repro.core.patterns import BagOfTasks
from repro.core.resource_handle import ResourceHandle
from repro.pilot.agent.agent import Agent
from repro.pilot.agent.executor import SimExecutor
from repro.pilot.agent.staging import SimStager
from repro.pilot.profiler import Profiler
from repro.pilot.session import Session
from repro.pilot.states import UnitState
from repro.telemetry import MetricsRegistry, SpanBuilder, chrome_trace
from repro.telemetry.sink import unit_count
from repro.utils.ids import reset_id_counters
from tests.test_analysis_differential import _EXERCISED, CASES, FAULTS, PATTERNS
from tests import test_determinism
from tests.test_determinism import _sleep
from tests.test_telemetry import revived
from tests.test_unit_gauges import _trace
from tests.trace_projections import digest, one_per_unit, per_unit, phase_spans

#: The spans the agent no longer records, and the ones it never needed.
PHASES = ("agent.stage_in", "exec.launch", "agent.stage_out")
PASSES = ("agent.schedule", "agent.submit")
EXPLICIT = {"driver.submit", "umgr.submit", "pmgr.submit", "exec.payload"}


# -- reference: the agent's former emitters -----------------------------------


class _RecordedAgentTelemetry:
    """Records the agent's former gauges and spans into its own trace.

    ``prof`` gets what the agent used to record.  ``sampled`` gets the
    same gauges sampled wherever the agent's queue or slots change,
    whether or not a scheduling pass of a started agent follows (the
    agent used to record ``queue_depth``/``cores_held`` only then): after
    every pass, suspend, abort, stop and cancel.

    Span uids come from a counter of this recorder's own, so the run's
    own trace is the one an unwrapped run writes.
    """

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.prof: Profiler | None = None
        self.sampled: Profiler | None = None
        #: Running ``cores_busy`` totals, by gauge name.
        self._busy_cores: dict[str, int] = {}
        self._ids = itertools.count()
        #: Open stage-in/out spans by group leader uid, launch spans by group.
        self._staging: dict[tuple[str, str], str] = {}
        self._launch: dict[object, str] = {}
        self._wrap(monkeypatch)

    def _begin(self, name: str, ref: str) -> str:
        uid = f"span.ref{next(self._ids):06d}"
        self.prof.event("span_open", uid, span=name, ref=ref, parent="")
        return uid

    def _end(self, uid: str) -> None:
        self.prof.event("span_close", uid)

    @staticmethod
    def _point(prof: Profiler, name: str, value: int) -> None:
        prof.event("metric", name, value=float(value), kind="gauge")

    def _busy(self, units, sign: int) -> None:
        name = f"agent.{units[0].pilot_uid}.cores_busy"
        total = self._busy_cores[name] = self._busy_cores.get(name, 0) + (
            sign * sum(u.description.cores for u in units)
        )
        for prof in (self.prof, self.sampled):
            self._point(prof, name, total)

    def _gauges(self, agent, *, recorded: bool) -> None:
        name = f"agent.{agent.pilot.uid}."
        targets = (self.prof, self.sampled) if recorded else (self.sampled,)
        for prof in targets:
            self._point(prof, name + "queue_depth", len(agent._waiting))
            self._point(prof, name + "cores_held", agent.slots.used_cores)

    def _wrap(self, monkeypatch: pytest.MonkeyPatch) -> None:
        rec = self
        init = Agent.__init__
        submit, schedule = Agent.submit_units, Agent._schedule_waiting
        sampled_after = {name: getattr(Agent, name)
                         for name in ("suspend", "abort", "stop", "cancel_unit")}
        stage = SimStager._stage
        launch, start = SimExecutor._launch, SimExecutor._start
        fail, finish = SimExecutor._fail, SimExecutor._finish
        kill, shutdown = SimExecutor.kill, SimExecutor.shutdown

        def agent_init(agent, session, pilot, **kwargs):
            init(agent, session, pilot, **kwargs)
            if rec.prof is None:
                rec.prof = Profiler(session.now)
                rec.sampled = Profiler(session.now)

        def submit_units(agent, units):
            span = rec._begin("agent.submit", agent.pilot.uid)
            submit(agent, units)
            rec._end(span)

        def schedule_waiting(agent):  # the former Agent._reschedule
            span = rec._begin("agent.schedule", agent.pilot.uid)
            schedule(agent)
            rec._end(span)
            rec._gauges(agent, recorded=agent._started)

        def sampling(method):
            def wrapped(agent, *args):
                method(agent, *args)
                rec._gauges(agent, recorded=False)
            return wrapped

        def stage_(stager, kind, units, attr, done):
            groups: dict[float, list] = {}
            for unit in units:
                directives = getattr(unit.description, attr)
                cost = stager._cost(directives) if directives else 0.0
                groups.setdefault(cost, []).append(unit)
            for group in groups.values():
                key = (kind, group[0].uid)
                rec._staging[key] = rec._begin(f"agent.{kind}", group[0].uid)

            def staged(group):
                rec._end(rec._staging.pop((kind, group[0].uid)))
                done(group)

            stage(stager, kind, units, attr, staged)

        def launch_(executor, units, on_done):
            launch(executor, units, on_done)
            for group in {
                id(g): g for g in (executor._group_of[u._i] for u in units)
            }.values():
                rec._launch[group] = rec._begin("exec.launch", group.ref)

        def start_(executor, group):
            rec._end(rec._launch.pop(group))
            members = list(group.units.values())
            start(executor, group)
            rec._busy(members, 1)

        def fail_(executor, unit, offset, group):
            rec._busy([unit], -1)
            fail(executor, unit, offset, group)

        def finish_(executor, group):
            members = list(group.units.values())
            rec._busy(members, -1)
            finish(executor, group)

        def kill_(executor, unit):
            faulted = unit._i in executor._faults
            group = executor._group_of.get(unit._i)
            kill(executor, unit)
            if faulted or (group is not None and group.started):
                rec._busy([unit], -1)
            if group is not None and not group.units and group in rec._launch:
                rec._end(rec._launch.pop(group))

        def shutdown_(executor):
            pending = {id(g): g for g in executor._group_of.values()}.values()
            shutdown(executor)
            for _, group in sorted((g.ref, g) for g in pending
                                   if g in rec._launch):
                rec._end(rec._launch.pop(group))

        monkeypatch.setattr(Agent, "__init__", agent_init)
        monkeypatch.setattr(Agent, "submit_units", submit_units)
        monkeypatch.setattr(Agent, "_schedule_waiting", schedule_waiting)
        for name, method in sampled_after.items():
            monkeypatch.setattr(Agent, name, sampling(method))
        monkeypatch.setattr(SimStager, "_stage", stage_)
        monkeypatch.setattr(SimExecutor, "_launch", launch_)
        monkeypatch.setattr(SimExecutor, "_start", start_)
        monkeypatch.setattr(SimExecutor, "_fail", fail_)
        monkeypatch.setattr(SimExecutor, "_finish", finish_)
        monkeypatch.setattr(SimExecutor, "kill", kill_)
        monkeypatch.setattr(SimExecutor, "shutdown", shutdown_)


# -- comparisons --------------------------------------------------------------

#: Per-unit runs: the :func:`~tests.trace_projections.digest` of the
#: recorded phase spans (:func:`~tests.trace_projections.phase_spans`) of
#: each case below, taken while per-unit sessions moved their lists one
#: unit at a time, so that the reference recorded one span per unit.
#: Lists now move whole in every session and the reference records one
#: span per moved list, but a per-unit trace still derives one span per
#: unit: these must still be the spans recorded then.
PER_UNIT_PHASES = {
    "eop-none-2": "1f1e80f09a6d0bbc",
    "eop-node-3": "7df7fcbcf6940edc",
    "eop-pilot-4": "2fc8d8b310988485",
    "eop-task-5": "2ba6e8bd8bb5bea1",
    "sal-none-6": "ccb923f2058ae8de",
    "sal-node-7": "1f89f802a15cca2d",
    "sal-pilot-8": "3689fc63919927a4",
    "sal-task-9": "30833a964af881cd",
    "bag-none-10": "e16b8283f1d10257",
    "bag-node-11": "58746c9abc4af2f5",
    "bag-pilot-12": "994fa5ffa496d44a",
    "bag-task-13": "b1594e418dde6203",
    "bag_task_node_faults_seed11": "c5f9ff9dc11041cc",
    "ee_faults_seed3": "ac85140e284dff87",
    "eop_faults_seed7": "74ba2a6b4ef11ed0",
    "eop_plain_seed7": "ec132cf8aa6c8ad4",
    "wide_bag_exclusion_seed1": "f78cfe960aea977d",
    "launch_groups": "59db5f44b67f2b82",
    "node_failure_while_launching": "1c1873789a2ae611",
    # Taken from the per-unit trace of each run when batch events began
    # naming their members, and equal to its batched trace's.
    "bag_pilot_faults_seed0": "7d0fd2bc49e6cf4f",
    "bag_task_faults_seed11": "6d157c26926a57e3",
    "eop_bulk_node_faults_seed7": "74ba2a6b4ef11ed0",
}


def _read(events, granularity: str) -> list:
    """*events* as a test's *granularity* reads them: as written
    (``batched``), or as one batch of one per unit (``per-unit``, the
    trace a writer of one event per unit would have written)."""
    return events if granularity == "batched" else one_per_unit(events)


def _phase_key(span) -> tuple:
    return (span.name, span.ref, span.t_start, span.t_end)


def _shape(span) -> tuple:
    return (span.name, span.t_start, span.t_end, span.parent, span.ref,
            span.attrs)


def recorded_tree(reference: _RecordedAgentTelemetry):
    """The spans *reference* recorded, read on their own."""
    return SpanBuilder().add_events(reference.prof).build()


def assert_recorded_phases(derived, recorded, phases: str | None = None) -> None:
    """The phase spans of *derived* (the run's tree) are the ones
    *recorded* (the reference's tree) holds, and neither the run nor its
    tree has a pass span.  With *phases*, the derived phase spans are
    checked against that pinned digest (see :data:`PER_UNIT_PHASES`)
    instead."""
    if phases is not None:
        assert digest(phase_spans(derived, PHASES)) == phases
    else:
        assert (Counter(_phase_key(s) for s in derived if s.name in PHASES)
                == Counter(_phase_key(s) for s in recorded
                           if s.name in PHASES))
    assert all(not s.uid.startswith("span.") for s in derived
               if s.name in PHASES)
    passes = [s for s in recorded if s.name in PASSES]
    assert passes and all(s.duration == 0.0 for s in passes)
    assert not derived.find(name="agent.schedule")
    assert not derived.find(name="agent.submit")


def metric_differences(derived: MetricsRegistry, recorded: MetricsRegistry,
                       times) -> list[tuple[float, str, float, float]]:
    """(time, metric, derived, recorded) wherever the two registries'
    agent gauges disagree at one of *times*."""
    names = {name for name in (*derived.names(), *recorded.names())
             if name.startswith("agent.")}
    out = []
    for name in sorted(names):
        a, b = derived.series(name), recorded.series(name)
        for time in times:
            if a.value_at(time) != b.value_at(time):
                out.append((time, name, a.value_at(time), b.value_at(time)))
    return out


class _MixedBag(BagOfTasks):
    def task(self, instance):
        return _sleep(100 if instance % 2 else 50)


@pytest.mark.parametrize("granularity", ["per-unit", "batched"])
def test_launch_groups_of_one_pass(granularity, monkeypatch):
    """A pass that launches two durations starts two launch groups, and
    every unit's launch is derived, whether the trace is read as it is
    (``batched``) or as one batch of one per unit (``per-unit``): the
    spans pinned when the reference recorded one launch per unit."""
    reference = _RecordedAgentTelemetry(monkeypatch)
    reset_id_counters()
    handle = ResourceHandle("xsede.comet", cores=32, walltime=900,
                            mode="sim", seed=1)
    handle.allocate()
    try:
        handle.run(_MixedBag(size=40))
    finally:
        handle.deallocate()
    events = _read(list(handle.profile), granularity)
    derived = Counter(_phase_key(s) for s in SpanBuilder().add_events(
        events).build() if s.name in PHASES)
    recorded = Counter(_phase_key(s) for s in recorded_tree(reference)
                       if s.name in PHASES)
    assert digest(sorted(derived.items())) == PER_UNIT_PHASES["launch_groups"]
    assert len(recorded) < len(derived)


def not_started(events) -> dict[str, list[tuple[float, float]]]:
    """Per pilot, the intervals in which its agent was not started: up
    to its first ``agent_start`` and from each ``agent_suspend``,
    ``agent_abort`` or ``agent_stop`` to the next ``agent_start``."""
    windows: dict[str, list[tuple[float, float]]] = {}
    down: dict[str, float] = {}
    for ev in sorted(events, key=lambda ev: ev.time):
        if ev.name == "agent_start":
            windows.setdefault(ev.uid, []).append(
                (down.pop(ev.uid, -float("inf")), ev.time)
            )
        elif ev.name in ("agent_suspend", "agent_abort", "agent_stop"):
            down.setdefault(ev.uid, ev.time)
    for uid, t0 in down.items():
        windows.setdefault(uid, []).append((t0, float("inf")))
    return windows


def check_against_reference(handle, reference, phases: str | None = None,
                            granularity: str = "batched") -> list:
    """The agent's phase spans and gauges that *handle*'s finished run
    implies, read from its trace alone (as *granularity* reads it, see
    :func:`_read`), equal what *reference* recorded, read on its own (the
    phase spans: the pinned *phases*, see :func:`assert_recorded_phases`).
    Returns the points where the recorded gauges were stale."""
    events = _read(list(handle.profile), granularity)
    assert not any(ev.name == "metric" and ev.uid.startswith("agent.")
                   for ev in events)
    assert {ev.attrs["span"] for ev in events
            if ev.name == "span_open"} <= EXPLICIT

    derived_tree = SpanBuilder().add_events(events).build()
    assert_recorded_phases(derived_tree, recorded_tree(reference),
                           phases=phases)

    derived = MetricsRegistry.from_events(events)
    recorded = MetricsRegistry.from_events(reference.prof)
    sampled = MetricsRegistry.from_events(reference.sampled)
    assert any(n.startswith("agent.") for n in recorded.names())
    times = sorted({ev.time for ev in events})
    assert metric_differences(derived, sampled, times) == []
    # The recorded gauges differ only where they were stale: while an
    # agent was not started, no pass recorded them.
    stale = metric_differences(derived, recorded, times)
    silent = not_started(events)
    for time, name, _, _ in stale:
        pilot = name[len("agent."):name.rindex(".")]
        assert any(t0 <= time < t1 for t0, t1 in silent[pilot]), (time, name)
    return stale


@pytest.mark.parametrize("sink", ["memory", "spool"])
@pytest.mark.parametrize("granularity", ["per-unit", "batched"])
@pytest.mark.parametrize("pattern_name,faults,seed", CASES)
def test_derived_agent_telemetry_matches_recorded_reference(
    pattern_name, faults, seed, granularity, sink, tmp_path, monkeypatch
):
    reference = _RecordedAgentTelemetry(monkeypatch)
    reset_id_counters()
    spool = {"spool_dir": tmp_path} if sink == "spool" else {}
    handle = ResourceHandle(
        "xsede.comet", cores=32, walltime=900, mode="sim", seed=seed,
        **FAULTS[faults], **spool,
    )
    handle.allocate()
    pattern = PATTERNS[pattern_name]()
    try:
        handle.run(pattern)
    finally:
        handle.deallocate()
    if faults in _EXERCISED:
        summary = fault_recovery_summary(handle.profile)
        assert getattr(summary, _EXERCISED[faults]) > 0
    phases = PER_UNIT_PHASES[f"{pattern_name}-{faults}-{seed}"]
    stale = check_against_reference(handle, reference, phases, granularity)
    assert bool(stale) == (faults == "pilot")


#: The runs ``tests/test_determinism.py`` pins the Chrome export of, as
#: (pattern factory, handle keywords).
GOLDEN_RUNS = {**test_determinism.GOLDEN_RUNS,
               **test_determinism.HASH_ONLY_RUNS,
               **test_determinism.BATCHED_RUNS}


@pytest.mark.parametrize("case", sorted(GOLDEN_RUNS))
def test_golden_runs_imply_what_they_recorded(case, monkeypatch):
    """Each re-pinned golden run's trace implies the agent telemetry the
    former emitters record for it, each read on its own."""
    make, kwargs = GOLDEN_RUNS[case]
    reference = _RecordedAgentTelemetry(monkeypatch)
    reset_id_counters()
    kwargs = dict(kwargs)
    handle = ResourceHandle("xsede.comet", cores=kwargs.pop("cores", 32),
                            walltime=600, mode="sim", **kwargs)
    handle.allocate()
    pattern = make()
    try:
        handle.run(pattern)
    finally:
        handle.deallocate()
    stale = check_against_reference(handle, reference, PER_UNIT_PHASES[case])
    assert bool(stale) == ("pilot_mtbf" in kwargs)


# -- the stale recorded gauges --------------------------------------------------


class TestStaleQueueDepth:
    """``Agent.cancel_unit`` dequeues waiting units without a scheduling
    pass, so the recorded ``queue_depth`` kept the old depth until the
    next pass.  The derived gauge drops at the ``CANCELED`` events."""

    def test_cancel_drops_the_derived_queue_depth(self, monkeypatch):
        from repro.pilot import (
            ComputePilotDescription,
            ComputeUnitDescription,
            PilotManager,
            UnitManager,
        )

        reference = _RecordedAgentTelemetry(monkeypatch)
        reset_id_counters()
        session = Session(mode="sim", platform="xsede.stampede")
        pilot = PilotManager(session).submit_pilots(ComputePilotDescription(
            resource="xsede.stampede", cores=16, runtime=600, mode="sim",
        ))[0]
        umgr = UnitManager(session)
        umgr.add_pilots(pilot)
        units = umgr.submit_units([
            ComputeUnitDescription(executable="sleep", modelled_duration=100.0)
            for _ in range(40)
        ])
        while sum(u.state is UnitState.EXECUTING for u in units) < 16:
            session.sim.step()
        waiting = [u for u in units if u.state is UnitState.AGENT_SCHEDULING]
        assert len(waiting) == pilot.agent.waiting_units == 24

        umgr.cancel_units(waiting[:10])
        now = session.now()
        assert pilot.agent.waiting_units == 14
        name = f"agent.{pilot.uid}.queue_depth"
        recorded = MetricsRegistry.from_events(reference.prof)
        assert recorded.series(name).value_at(now) == 24
        derived = MetricsRegistry.from_events(session.prof)
        assert derived.series(name).value_at(now) == 14
        assert [v for _, v in derived.series(name).points[-10:]] == list(
            range(23, 13, -1)
        )

        session.run_events()
        assert sum(u.state is UnitState.DONE for u in units) == 30
        derived = MetricsRegistry.from_events(session.prof)
        for gauge in ("queue_depth", "cores_held", "cores_busy"):
            assert derived.series(f"agent.{pilot.uid}.{gauge}").last == 0


@pytest.mark.parametrize("granularity", ["per-unit", "batched"])
def test_node_failure_while_launching(granularity, monkeypatch):
    """A node dies while one unit of a launch group is still launching:
    the state event that hands the unit back releases its held cores,
    not a place in the queue, and the launch that finally starts is not
    attributed to the killed unit."""
    from repro.pilot import (
        ComputePilotDescription,
        ComputeUnitDescription,
        PilotManager,
        UnitManager,
    )
    from repro.pilot.retry import RetryPolicy

    reference = _RecordedAgentTelemetry(monkeypatch)
    reset_id_counters()
    session = Session(mode="sim", platform="xsede.comet",
                      retry_policy=RetryPolicy(max_attempts=3))
    pilot = PilotManager(session).submit_pilots(ComputePilotDescription(
        resource="xsede.comet", cores=72, runtime=600, mode="sim",
    ))[0]
    umgr = UnitManager(session)
    umgr.add_pilots(pilot)
    units = umgr.submit_units([
        ComputeUnitDescription(executable="sleep", cores=24, mpi=True,
                               modelled_duration=100.0)
        for _ in range(2)
    ])
    agent = pilot.agent
    while not all(u.slots for u in units):
        session.sim.step()
    leader = units[0]
    agent._on_node_failure(agent.slots.node_of(leader.slots[0]))
    assert leader.state is UnitState.UMGR_SCHEDULING
    assert units[1].state is UnitState.AGENT_SCHEDULING

    now = session.now()
    gauge = f"agent.{pilot.uid}."
    derived = MetricsRegistry.from_events(session.prof)
    assert derived.series(gauge + "cores_held").value_at(now) == 24
    assert derived.series(gauge + "queue_depth").value_at(now) == 0
    session.run_events()
    assert all(u.state is UnitState.DONE for u in units)
    events = _read(list(session.prof), granularity)
    derived = MetricsRegistry.from_events(events)
    recorded = MetricsRegistry.from_events(reference.sampled)
    times = sorted({ev.time for ev in events})
    assert metric_differences(derived, recorded, times) == []
    derived_phases = Counter(_phase_key(s) for s in SpanBuilder().add_events(
        events).build() if s.name in PHASES)
    recorded_phases = Counter(_phase_key(s) for s in recorded_tree(reference)
                              if s.name in PHASES)
    assert (digest(sorted(derived_phases.items()))
            == PER_UNIT_PHASES["node_failure_while_launching"])
    assert recorded_phases


# -- trace format -------------------------------------------------------------

_PILOT = "pilot.1"
#: Per unit of :func:`synthetic_trace`: when its scheduling pass placed it.
_SLOTTED = {"u1": 5.05, "u2": 5.15}


def _agent_trace() -> tuple[list[dict], list[dict]]:
    """:func:`tests.test_unit_gauges._trace` (its one explicit span
    dropped) as the agent writes it, and what the agent recorded for it
    before its gauges and phase spans were derived: agent gauge points,
    phase spans and scheduling-pass spans.  Its two one-core units are
    placed by their own passes, at :data:`_SLOTTED`."""
    events = [dict(ev) for ev in _trace()
              if not ev["name"].startswith("span_")]
    recording: list[dict] = []
    ids = itertools.count()
    opened: dict[tuple[str, str], str] = {}
    depth = held = busy = 0

    def gauge(time: float, name: str, value: int) -> None:
        recording.append({"time": time, "name": "metric", "kind": "gauge",
                          "uid": f"agent.{_PILOT}.{name}",
                          "value": float(value)})

    def span(time: float, name: str, ref: str, close: bool = False) -> None:
        if close:
            recording.append({"time": time, "name": "span_close",
                              "uid": opened.pop((name, ref))})
            return
        uid = opened[(name, ref)] = f"span.{next(ids):06d}"
        recording.append({"time": time, "name": "span_open", "uid": uid,
                          "span": name, "ref": ref, "parent": ""})

    def schedule(time: float) -> None:
        span(time, "agent.schedule", _PILOT)
        span(time, "agent.schedule", _PILOT, close=True)
        gauge(time, "queue_depth", depth)
        gauge(time, "cores_held", held)

    schedule(1.5)  # agent_start
    for ev in list(events):
        if ev["name"] != "units_state":
            continue
        time, uid, state = ev["time"], ev["uid"], ev["state"]
        if state == "AGENT_STAGING_INPUT":
            span(time, "agent.submit", _PILOT)
            span(time, "agent.stage_in", uid)
            span(time, "agent.submit", _PILOT, close=True)
        elif state == "AGENT_SCHEDULING":
            span(time, "agent.stage_in", uid, close=True)
            depth += 1
            schedule(time)
            slotted = _SLOTTED[uid]
            events.append({"time": slotted, "name": "units_slots", "uid": uid,
                           "slots": 1, "pilot": _PILOT})
            span(slotted, "exec.launch", uid)
            depth, held = depth - 1, held + 1
            schedule(slotted)
        elif state == "EXECUTING":
            span(time, "exec.launch", uid, close=True)
            busy += 1
            gauge(time, "cores_busy", busy)
        elif state == "AGENT_STAGING_OUTPUT":
            busy, held = busy - 1, held - 1
            gauge(time, "cores_busy", busy)
            span(time, "agent.stage_out", uid)
            schedule(time)
        elif state == "DONE":
            span(time, "agent.stage_out", uid, close=True)
        if "EXECUTING" in (state, ev["prev"]):
            ev.update(pilot=_PILOT, cores=1)
        elif state == "AGENT_SCHEDULING":
            ev["pilot"] = _PILOT
    events.sort(key=lambda ev: ev["time"])
    recording.sort(key=lambda ev: ev["time"])
    return events, recording


def _digest(events) -> str:
    payload = json.dumps(chrome_trace(revived(events)), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


class TestTraceFormat:
    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_new_format_derives_the_recorded_series_and_spans(self, order):
        new, recording = _agent_trace()
        if order == "reversed":
            new = new[::-1]
        assert not any(ev["name"] == "span_open" for ev in new)
        assert [ev["uid"] for ev in new if ev["name"] == "metric"] == ["depth"]
        derived = MetricsRegistry.from_events(revived(new))
        recorded = MetricsRegistry.from_events(revived(recording))
        assert [n for n in derived.names()
                if n.startswith("agent.")] == recorded.names()
        times = sorted({ev["time"] for ev in new + recording})
        assert metric_differences(derived, recorded, times) == []

        derived_tree = SpanBuilder().add_events(revived(new)).build()
        recorded_tree = SpanBuilder().add_events(revived(recording)).build()
        assert_recorded_phases(derived_tree, recorded_tree)
        assert _digest(new) == _digest(new[::-1])


# -- trace size ----------------------------------------------------------------


class _SleepBag(BagOfTasks):
    def task(self, instance):
        return _sleep(0)


def _per_unit_events(events) -> Counter:
    """Events per unit: the lifecycle records that name the unit (each
    batch event read once per member) plus the span pairs that name it
    as their entity."""
    events = per_unit(events)
    units = {ev.uid for ev in events if ev.name == "unit_new"}
    spans = {ev.uid: ev.attrs.get("ref") for ev in events
             if ev.name == "span_open"}
    counts: Counter = Counter()
    for ev in events:
        uid = spans.get(ev.uid, ev.uid) if ev.name.startswith("span_") else ev.uid
        if uid in units:
            counts[uid] += 1
    return counts


def _assert_diet(events) -> None:
    units = unit_count(events)
    per_unit = _per_unit_events(events)
    assert units and len(per_unit) == units
    assert max(per_unit.values()) <= 10
    assert not any(ev.name == "metric" and ev.uid.startswith("agent.")
                   for ev in events)
    assert {ev.attrs["span"] for ev in events
            if ev.name == "span_open"} <= EXPLICIT


class TestTraceDiet:
    def test_per_unit_sim_run(self):
        from tests.test_determinism import TwoStageEoP, trace

        events = trace(lambda: TwoStageEoP(ensemble_size=48, pipeline_size=2),
                       seed=7)
        _assert_diet(events)
        units = unit_count(events)
        assert len(events) / units <= 1
        assert set(_per_unit_events(events).values()) == {8}

    def test_local_bag(self, local_handle):
        pattern = _SleepBag(size=8)
        local_handle.run(pattern)
        events = list(local_handle.profile)
        _assert_diet(events)
        assert {ev.attrs["span"] for ev in events if ev.name == "span_open"
                and ev.attrs["ref"].startswith("unit.")} == {"exec.payload"}
        registry = MetricsRegistry.from_events(events)
        (pilot,) = {ev.uid for ev in events if ev.name == "agent_start"}
        for gauge in ("queue_depth", "cores_held", "cores_busy"):
            series = registry.series(f"agent.{pilot}.{gauge}")
            assert series.derived and series.last == 0, gauge
            assert 0 <= series.vmin and series.vmax <= 8, gauge
        assert registry.series(f"agent.{pilot}.cores_busy").vmax <= 4
