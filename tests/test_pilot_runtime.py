"""Integration tests of the pilot runtime (managers + agent + executors)."""

import pytest

from repro.exceptions import PilotError
from repro.pilot import (
    ComputePilotDescription,
    ComputeUnitDescription,
    PilotManager,
    PilotState,
    Session,
    UnitManager,
    UnitState,
)
from repro.pilot.description import StagingDirective


def make_local(cores=4, **agent_options):
    session = Session(mode="local")
    pmgr = PilotManager(session, **agent_options)
    pilot = pmgr.submit_pilots(
        ComputePilotDescription(
            resource="local.localhost", cores=cores, runtime=5, mode="local"
        )
    )[0]
    pmgr.wait_pilots_active(timeout=30)
    umgr = UnitManager(session)
    umgr.add_pilots(pilot)
    return session, pmgr, umgr, pilot


def make_sim(cores=48, resource="xsede.comet", **agent_options):
    session = Session(mode="sim", platform=resource)
    pmgr = PilotManager(session, **agent_options)
    pilot = pmgr.submit_pilots(
        ComputePilotDescription(resource=resource, cores=cores, runtime=600, mode="sim")
    )[0]
    umgr = UnitManager(session)
    umgr.add_pilots(pilot)
    return session, pmgr, umgr, pilot


class TestLocalRuntime:
    def test_units_execute_for_real(self, tmp_path):
        session, pmgr, umgr, pilot = make_local()
        outputs = []

        def payload(ctx):
            path = ctx.sandbox / "proof.txt"
            path.write_text(ctx.uid)
            outputs.append(path)
            return ctx.uid

        units = umgr.submit_units(
            [ComputeUnitDescription(executable="t", payload=payload) for _ in range(6)]
        )
        umgr.wait_units(timeout=30)
        assert all(u.state is UnitState.DONE for u in units)
        assert all(u.result == u.uid for u in units)
        assert all(path.exists() for path in outputs)
        pmgr.cancel_pilots()
        session.close()

    def test_failing_payload_marks_unit_failed(self):
        session, pmgr, umgr, pilot = make_local()

        def boom(ctx):
            raise ValueError("broken task")

        ok = ComputeUnitDescription(executable="t", payload=lambda ctx: 1)
        bad = ComputeUnitDescription(executable="t", payload=boom)
        units = umgr.submit_units([ok, bad, ok])
        umgr.wait_units(timeout=30)
        states = [u.state for u in units]
        assert states[0] is UnitState.DONE
        assert states[1] is UnitState.FAILED
        assert states[2] is UnitState.DONE
        assert isinstance(units[1].exception, ValueError)
        pmgr.cancel_pilots()
        session.close()

    def test_unit_larger_than_pilot_rejected_at_submit(self):
        from repro.exceptions import SchedulingError

        session, pmgr, umgr, pilot = make_local(cores=2)
        with pytest.raises(SchedulingError, match="8-core"):
            umgr.submit_units(
                [ComputeUnitDescription(executable="t", cores=8, mpi=True)]
            )
        pmgr.cancel_pilots()
        session.close()

    def test_real_staging_between_units(self):
        session, pmgr, umgr, pilot = make_local()

        def producer(ctx):
            (ctx.sandbox / "data.txt").write_text("payload-data")

        producer_unit = umgr.submit_units(
            [ComputeUnitDescription(executable="p", payload=producer)]
        )[0]
        umgr.wait_units([producer_unit], timeout=30)

        def consumer(ctx):
            return (ctx.sandbox / "in.txt").read_text()

        consumer_unit = umgr.submit_units(
            [
                ComputeUnitDescription(
                    executable="c",
                    payload=consumer,
                    input_staging=[
                        StagingDirective(
                            source=f"$UNIT_{producer_unit.uid}/data.txt",
                            target="in.txt",
                            action="copy",
                        )
                    ],
                )
            ]
        )[0]
        umgr.wait_units([consumer_unit], timeout=30)
        assert consumer_unit.state is UnitState.DONE
        assert consumer_unit.result == "payload-data"
        pmgr.cancel_pilots()
        session.close()

    def test_missing_staging_source_fails_unit(self):
        session, pmgr, umgr, pilot = make_local()
        unit = umgr.submit_units(
            [
                ComputeUnitDescription(
                    executable="c",
                    payload=lambda ctx: None,
                    input_staging=[
                        StagingDirective(source="/nonexistent/file", target="x")
                    ],
                )
            ]
        )[0]
        umgr.wait_units(timeout=30)
        assert unit.state is UnitState.FAILED
        pmgr.cancel_pilots()
        session.close()

    def test_cancel_pilots_cancels_queued_units(self):
        # A 1-core pilot with long tasks: the queue is non-empty on cancel.
        session, pmgr, umgr, pilot = make_local(cores=1)
        import time

        descriptions = [
            ComputeUnitDescription(executable="t", payload=lambda ctx: time.sleep(0.3))
            for _ in range(5)
        ]
        units = umgr.submit_units(descriptions)
        pmgr.cancel_pilots()
        assert pilot.state is PilotState.CANCELED
        # Everything queued (not yet executing) is cancelled.
        assert any(u.state is UnitState.CANCELED for u in units)
        session.close()

    def test_walltime_expiry_marks_pilot_done(self):
        # Regression for the SM004 lint finding: a container job ending
        # normally must land the pilot in DONE, not leave it ACTIVE.
        session = Session(mode="local")
        pmgr = PilotManager(session)
        pilot = pmgr.submit_pilots(
            ComputePilotDescription(
                resource="local.localhost", cores=2, runtime=0.002, mode="local"
            )
        )[0]
        pmgr.wait_pilots_active(timeout=30)
        pilot.saga_job.wait(timeout=30)
        assert pilot.state is PilotState.DONE
        # Teardown is a no-op on an already-final pilot.
        pmgr.cancel_pilots()
        assert pilot.state is PilotState.DONE
        session.close()


    def test_cancels_racing_executor_threads_leave_no_flag(self):
        import sys
        import time

        session, pmgr, umgr, pilot = make_local(cores=8)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            units = umgr.submit_units([
                ComputeUnitDescription(
                    executable="t", payload=lambda ctx: time.sleep(0.002)
                )
                for _ in range(120)
            ])
            assert units[0].wait(timeout=30) is UnitState.DONE
            # Straight to the agent: units[0] is already final, others
            # finish while their cancel is on its way.
            for unit in units[::3]:
                pilot.agent.cancel_unit(unit)
            umgr.wait_units(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert all(u.state.is_final for u in units)
        assert all(u.state is UnitState.DONE
                   for i, u in enumerate(units) if i % 3)
        assert pilot.agent._cancelled == set()
        pmgr.cancel_pilots()
        session.close()

    def test_wait_units_times_out_on_a_unit_that_cannot_finish(self):
        import threading

        session, pmgr, umgr, pilot = make_local(cores=1)
        release = threading.Event()
        (unit,) = umgr.submit_units(ComputeUnitDescription(
            executable="t", payload=lambda ctx: release.wait(30)
        ))
        try:
            with pytest.raises(PilotError, match="^timeout waiting for units$"):
                umgr.wait_units(timeout=0.2)
            assert not unit.wait(timeout=0.05).is_final
        finally:
            release.set()
        assert umgr.wait_units(timeout=30) == [UnitState.DONE]
        pmgr.cancel_pilots()
        session.close()


class TestSimRuntime:
    def test_unit_wait_steps_the_simulation(self):
        session, pmgr, umgr, pilot = make_sim()
        (unit,) = umgr.submit_units(
            ComputeUnitDescription(executable="t", modelled_duration=10.0)
        )
        assert unit.wait() is UnitState.DONE
        assert session.now() > 10.0
        # Only as far as the unit needed: the pilot's walltime end waits.
        assert pilot.state is PilotState.ACTIVE
        pmgr.cancel_pilots()
        session.close()

    def test_waves_on_undersized_pilot(self):
        session, pmgr, umgr, pilot = make_sim(cores=10)
        units = umgr.submit_units(
            [
                ComputeUnitDescription(executable="t", modelled_duration=100.0)
                for _ in range(30)
            ]
        )
        umgr.wait_units()
        assert all(u.state is UnitState.DONE for u in units)
        # 30 tasks on 10 cores -> 3 waves of ~100 s.
        assert 300.0 <= session.now() <= 340.0
        pmgr.cancel_pilots()
        session.close()

    def test_mpi_units_occupy_cores(self):
        session, pmgr, umgr, pilot = make_sim(cores=8)
        units = umgr.submit_units(
            [
                ComputeUnitDescription(
                    executable="t", cores=4, mpi=True, modelled_duration=50.0
                )
                for _ in range(4)
            ]
        )
        umgr.wait_units()
        # 4 x 4-core units on 8 cores -> 2 waves.
        assert 100.0 <= session.now() <= 140.0
        pmgr.cancel_pilots()
        session.close()

    def test_duration_model_sees_cores(self):
        session, pmgr, umgr, pilot = make_sim(cores=16)
        unit = umgr.submit_units(
            [
                ComputeUnitDescription(
                    executable="t",
                    cores=16,
                    mpi=True,
                    duration_model=lambda cores, platform: 1600.0 / cores,
                )
            ]
        )[0]
        umgr.wait_units()
        assert unit.execution_time == pytest.approx(100.0, rel=0.05)
        pmgr.cancel_pilots()
        session.close()

    def test_sim_staging_charges_time(self):
        session, pmgr, umgr, pilot = make_sim()
        big = ComputeUnitDescription(
            executable="t",
            modelled_duration=1.0,
            input_staging=[
                StagingDirective(source="$SHARED/x", target="x",
                                 action="transfer", nbytes=int(2e9))
            ],
        )
        unit = umgr.submit_units([big])[0]
        umgr.wait_units()
        staging = unit.duration(UnitState.AGENT_STAGING_INPUT, UnitState.AGENT_SCHEDULING)
        assert staging == pytest.approx(1.0, rel=0.1)  # 2e9 B / 2e9 B/s
        pmgr.cancel_pilots()
        session.close()

    def test_link_staging_is_free_in_sim(self):
        session, pmgr, umgr, pilot = make_sim()
        unit = umgr.submit_units(
            [
                ComputeUnitDescription(
                    executable="t",
                    modelled_duration=1.0,
                    input_staging=[
                        StagingDirective(source="$SHARED/x", target="x",
                                         action="link", nbytes=int(2e9))
                    ],
                )
            ]
        )[0]
        umgr.wait_units()
        staging = unit.duration(UnitState.AGENT_STAGING_INPUT, UnitState.AGENT_SCHEDULING)
        assert staging == pytest.approx(0.0, abs=1e-6)
        pmgr.cancel_pilots()
        session.close()

    def test_pilot_queue_then_bootstrap_then_active(self):
        session, pmgr, umgr, pilot = make_sim()
        pmgr.wait_pilots_active()
        assert pilot.state is PilotState.ACTIVE
        # submit latency (1s) + bootstrap (20s on comet)
        assert session.now() == pytest.approx(21.0, abs=1.0)
        pmgr.cancel_pilots()
        session.close()

    def test_oversized_unit_rejected_at_submit(self):
        from repro.exceptions import SchedulingError

        session, pmgr, umgr, pilot = make_sim(cores=4)
        with pytest.raises(SchedulingError):
            umgr.submit_units(
                [ComputeUnitDescription(executable="t", cores=8, mpi=True,
                                        modelled_duration=1.0)]
            )
        pmgr.cancel_pilots()
        session.close()

    @pytest.mark.parametrize("spooled", [False, True])
    def test_too_wide_task_registers_none_of_its_batch(self, spooled,
                                                       tmp_path):
        from repro.core.kernel_plugin import Kernel
        from repro.core.patterns import BagOfTasks
        from repro.core.resource_handle import ResourceHandle
        from repro.exceptions import SchedulingError

        class Bag(BagOfTasks):
            def task(self, instance):
                kernel = Kernel(name="misc.sleep")
                kernel.arguments = ["--duration=10"]
                kernel.cores = 64 if instance == 3 else 1
                kernel.uses_mpi = kernel.cores > 1
                return kernel

        handle = ResourceHandle("xsede.comet", cores=24, walltime=60,
                                mode="sim",
                                spool_dir=tmp_path if spooled else None)
        handle.allocate()
        try:
            with pytest.raises(SchedulingError, match="64-core"):
                handle.run(Bag(size=5))
        finally:
            handle.deallocate()
        assert len(handle.session.unit_store) == 0
        assert not [ev for ev in handle.profile if ev.name.startswith("unit")]

    def test_agent_sets_exception_before_failing_a_too_wide_unit(self):
        from repro.exceptions import SchedulingError
        from repro.pilot.unit import ComputeUnit

        session, pmgr, umgr, pilot = make_sim(cores=4)
        unit = ComputeUnit(
            ComputeUnitDescription(executable="t", cores=8, mpi=True), session
        )
        unit.advance(UnitState.UMGR_SCHEDULING)
        seen = []
        unit.add_callback(lambda u, s: seen.append((s, u.exception)))
        pilot.agent.submit_units([unit])
        assert len(seen) == 1
        assert seen[0][0] is UnitState.FAILED
        assert isinstance(seen[0][1], SchedulingError)
        pmgr.cancel_pilots()
        session.close()

    def test_cancel_flags_leave_once_units_are_final(self):
        session, pmgr, umgr, pilot = make_sim(cores=2)
        pmgr.wait_pilots_active()
        staged = ComputeUnitDescription(
            executable="s", modelled_duration=1.0,
            input_staging=[StagingDirective(source="$SHARED/x", target="x",
                                            action="transfer",
                                            nbytes=int(2e10))],
        )
        units = umgr.submit_units(
            [ComputeUnitDescription(executable="t", modelled_duration=100.0)
             for _ in range(4)] + [staged]
        )
        running, _, waiting, _, staging = units
        sim, agent = session.sim, pilot.agent
        while not (running.state is UnitState.EXECUTING
                   and waiting.state is UnitState.AGENT_SCHEDULING
                   and staging.state is UnitState.AGENT_STAGING_INPUT):
            assert sim.step() is not None
        umgr.cancel_units([running, waiting, staging])
        assert waiting.state is UnitState.CANCELED
        assert agent._cancelled == {running._i, staging._i}
        umgr.wait_units()
        assert [u.state for u in units] == [
            UnitState.CANCELED, UnitState.DONE, UnitState.CANCELED,
            UnitState.DONE, UnitState.CANCELED,
        ]
        assert agent._cancelled == set()
        pmgr.cancel_pilots()
        session.close()

    def test_cancel_flag_leaves_when_a_killed_unit_fails(self):
        session, pmgr, umgr, pilot = make_sim(cores=2)
        pmgr.wait_pilots_active()
        unit = umgr.submit_units(
            [ComputeUnitDescription(executable="t", modelled_duration=100.0)]
        )[0]
        sim, agent = session.sim, pilot.agent
        while unit.state is not UnitState.EXECUTING:
            assert sim.step() is not None
        umgr.cancel_units([unit])
        assert agent._cancelled == {unit._i}
        agent._on_node_failure(agent.slots.node_of(unit.slots[0]))
        assert unit.state is UnitState.FAILED  # no retry policy
        assert agent._cancelled == set()
        pmgr.cancel_pilots()
        session.close()

    def test_umgr_without_pilots_rejects_submission(self):
        session = Session(mode="sim", platform="xsede.comet")
        umgr = UnitManager(session)
        with pytest.raises(PilotError):
            umgr.submit_units([ComputeUnitDescription(executable="t")])
        session.close()


class TestAgentPolicies:
    def test_fifo_blocks_behind_wide_unit(self):
        session, pmgr, umgr, pilot = make_sim(cores=8, policy="fifo")
        wide_first = [
            ComputeUnitDescription(executable="a", cores=8, mpi=True,
                                   modelled_duration=100.0),
            ComputeUnitDescription(executable="b", cores=8, mpi=True,
                                   modelled_duration=100.0),
            ComputeUnitDescription(executable="c", modelled_duration=10.0),
        ]
        units = umgr.submit_units(wide_first)
        umgr.wait_units()
        # FIFO: c starts only after b finished.
        c_start = units[2].timestamps["EXECUTING"]
        b_end = units[1].timestamps["AGENT_STAGING_OUTPUT"]
        assert c_start >= units[1].timestamps["EXECUTING"]
        assert session.now() >= 200.0
        pmgr.cancel_pilots()
        session.close()

    def test_backfill_runs_small_units_alongside(self):
        session, pmgr, umgr, pilot = make_sim(cores=8, policy="backfill")
        mixed = [
            ComputeUnitDescription(executable="a", cores=6, mpi=True,
                                   modelled_duration=100.0),
            ComputeUnitDescription(executable="b", cores=6, mpi=True,
                                   modelled_duration=100.0),
            ComputeUnitDescription(executable="c", modelled_duration=10.0),
        ]
        units = umgr.submit_units(mixed)
        umgr.wait_units()
        # Backfill: c runs in the 2 spare cores alongside a.
        c_start = units[2].timestamps["EXECUTING"]
        a_start = units[0].timestamps["EXECUTING"]
        assert c_start < a_start + 50.0
        pmgr.cancel_pilots()
        session.close()
