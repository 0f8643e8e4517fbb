"""Tests for task-fault injection and its interplay with retries."""

import pytest

from repro.core.kernel_plugin import Kernel
from repro.core.patterns import BagOfTasks
from repro.core.resource_handle import ResourceHandle
from repro.eventsim import RandomStreams
from repro.exceptions import ConfigurationError, PatternError
from repro.pilot.agent.executor import SimExecutor
from repro.pilot.description import ComputeUnitDescription
from repro.pilot.faults import FaultModel, TaskFault
from repro.pilot.session import Session
from repro.pilot.states import UnitState
from repro.pilot.unit import ComputeUnit
from repro.utils.ids import reset_id_counters


class SleepBag(BagOfTasks):
    def __init__(self, size, retries=0):
        super().__init__(size=size)
        self.max_task_retries = retries

    def task(self, instance):
        kernel = Kernel(name="misc.sleep")
        kernel.arguments = ["--duration=100"]
        return kernel


def run_with_faults(rate, size=32, retries=0, seed=0, cores=32):
    handle = ResourceHandle(
        "xsede.comet", cores=cores, walltime=600, mode="sim",
        fault_rate=rate, seed=seed,
    )
    handle.allocate()
    pattern = SleepBag(size, retries=retries)
    try:
        handle.run(pattern)
    finally:
        handle.deallocate()
    return pattern, handle


class TestFaultModel:
    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            FaultModel(rate=-0.1)
        with pytest.raises(ConfigurationError):
            FaultModel(rate=1.0)
        FaultModel(rate=0.0)

    def test_disabled_model_never_fires(self):
        model = FaultModel(0.0).bind(RandomStreams(0))
        assert all(model.draw(100.0) is None for _ in range(100))

    def test_unbound_enabled_model_raises(self):
        with pytest.raises(ConfigurationError, match="bind"):
            FaultModel(0.5).draw(10.0)

    def test_failure_point_within_runtime(self):
        model = FaultModel(0.9).bind(RandomStreams(1))
        offsets = [model.draw(100.0) for _ in range(300)]
        fired = [o for o in offsets if o is not None]
        assert fired, "rate 0.9 must fire"
        assert all(10.0 <= o <= 90.0 for o in fired)

    def test_empirical_rate(self):
        model = FaultModel(0.25).bind(RandomStreams(2))
        fired = sum(model.draw(1.0) is not None for _ in range(4000))
        assert fired / 4000 == pytest.approx(0.25, abs=0.03)

    def test_local_sessions_reject_faults(self):
        with pytest.raises(ConfigurationError, match="simulated"):
            ResourceHandle(
                "local.localhost", 2, 5, mode="local", fault_rate=0.1
            ).allocate()


class TestFaultInjection:
    def test_zero_rate_changes_nothing(self):
        pattern, handle = run_with_faults(0.0, size=8)
        assert all(u.state is UnitState.DONE for u in pattern.units)
        assert not handle.profile.events("task_fault")

    def test_faults_without_retries_fail_pattern(self):
        with pytest.raises(PatternError, match="TaskFault"):
            run_with_faults(0.5, size=32, retries=0, seed=1)

    def test_retries_absorb_faults(self):
        pattern, handle = run_with_faults(0.3, size=32, retries=10, seed=3)
        done = [u for u in pattern.units if u.state is UnitState.DONE]
        assert len(done) == 32
        faults = handle.profile.events("task_fault")
        retries = handle.profile.events("entk_task_retry")
        assert len(faults) == len(retries) > 0
        assert not pattern.failed_units

    def test_faulted_units_carry_task_fault(self):
        pattern, _ = run_with_faults(0.3, size=32, retries=10, seed=3)
        failed = [u for u in pattern.units if u.state is UnitState.FAILED]
        assert failed
        assert all(isinstance(u.exception, TaskFault) for u in failed)

    def test_faults_cost_wall_time(self):
        """A faulted-and-retried run takes longer than a clean one."""
        clean, clean_handle = run_with_faults(0.0, size=32, seed=5)
        faulty, faulty_handle = run_with_faults(0.3, size=32, retries=10, seed=5)
        clean_ttc = clean_handle.profile.span(
            "entk_pattern_start", "entk_pattern_stop", clean.uid
        )
        faulty_ttc = faulty_handle.profile.span(
            "entk_pattern_start", "entk_pattern_stop", faulty.uid
        )
        assert faulty_ttc > clean_ttc

    def test_fault_draws_are_deterministic(self):
        a, handle_a = run_with_faults(0.3, size=16, retries=10, seed=11)
        b, handle_b = run_with_faults(0.3, size=16, retries=10, seed=11)
        assert len(handle_a.profile.events("task_fault")) == len(
            handle_b.profile.events("task_fault")
        )
        assert len(a.units) == len(b.units)


class TestLaunchGroupKills:
    """A launch group shares one DES event; kills take single members out."""

    PILOT = "pilot.0000"

    @staticmethod
    def _launch(n=3):
        reset_id_counters()
        session = Session(mode="sim", platform="xsede.comet")
        store = session.unit_store
        rows = store.add_bulk([
            ComputeUnitDescription(executable="sleep", modelled_duration=50.0)
            for _ in range(n)
        ])
        units = [ComputeUnit._of(store, i) for i in rows]
        for state in (UnitState.UMGR_SCHEDULING,
                      UnitState.AGENT_STAGING_INPUT,
                      UnitState.AGENT_SCHEDULING):
            store.advance_many(units, state)
        for unit in units:
            unit.pilot_uid = TestLaunchGroupKills.PILOT
        executor = SimExecutor(session)
        done = []
        executor.launch_units(
            units,
            lambda finished, exc: done.append(
                (session.now(), [u.uid for u in finished], exc)
            ),
        )
        return session, executor, units, done

    def _busy(self, session):
        return session.metrics.series(f"agent.{self.PILOT}.cores_busy").last

    def test_killed_member_leaves_group_before_start(self):
        session, _, _, reference = self._launch()
        session.run_events()
        group_time = reference[0][0]

        session, executor, units, done = self._launch()
        executor.kill(units[1])
        session.run_events()
        assert done == [(group_time, [units[0].uid, units[2].uid], None)]
        assert units[1].state is UnitState.AGENT_SCHEDULING
        assert "EXECUTING" not in units[1].timestamps
        assert units[0].state is units[2].state is UnitState.EXECUTING
        assert self._busy(session) == 0

    def test_killed_member_leaves_group_while_executing(self):
        session, _, _, reference = self._launch()
        session.run_events()
        group_time = reference[0][0]

        session, executor, units, done = self._launch()
        sim = session.sim
        while units[0].state is not UnitState.EXECUTING:
            sim.step()
        assert self._busy(session) == 3
        executor.kill(units[1])
        assert self._busy(session) == 2
        session.run_events()
        assert done == [(group_time, [units[0].uid, units[2].uid], None)]
        assert self._busy(session) == 0

    def test_killing_every_member_cancels_the_group_event(self):
        session, executor, units, done = self._launch()
        sim = session.sim
        assert sim.pending == 1
        for unit in units:
            executor.kill(unit)
        assert sim.pending == 0
        session.run_events()
        assert done == []
        assert session.now() == 0.0
        assert all(u.state is UnitState.AGENT_SCHEDULING for u in units)
        opened = [ev for ev in session.prof.events("span_open")
                  if ev.attrs["span"] == "exec.launch"]
        assert len(opened) == 1
        assert session.prof.events("span_close", opened[0].uid)

    def test_killing_every_member_while_executing_cancels_the_finish(self):
        session, executor, units, done = self._launch()
        sim = session.sim
        while units[0].state is not UnitState.EXECUTING:
            sim.step()
        for unit in units:
            executor.kill(unit)
        assert sim.pending == 0
        session.run_events()
        assert done == []
        assert self._busy(session) == 0
