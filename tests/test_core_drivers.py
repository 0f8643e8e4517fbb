"""Tests of the pattern drivers' ordering rules, in both execution modes.

These are the paper-critical invariants (DESIGN.md §6): pipeline stage
order, SAL barriers, EE exchange coupling.
"""

import pytest

from repro.core.kernel_plugin import Kernel
from repro.core.patterns import (
    BagOfTasks,
    EnsembleExchange,
    EnsembleOfPipelines,
    PatternSequence,
    SimulationAnalysisLoop,
)
from repro.exceptions import PatternError
from repro.pilot.states import UnitState


def sleep_kernel(duration=0.0) -> Kernel:
    kernel = Kernel(name="misc.sleep")
    kernel.arguments = [f"--duration={duration}"]
    return kernel


class SleepPipelines(EnsembleOfPipelines):
    def stage(self, stage_number, instance):
        return sleep_kernel()


class SleepSAL(SimulationAnalysisLoop):
    def simulation_stage(self, iteration, instance):
        return sleep_kernel()

    def analysis_stage(self, iteration, instance):
        return sleep_kernel()


class SleepEE(EnsembleExchange):
    def simulation_stage(self, iteration, instance):
        return sleep_kernel()

    def exchange_stage(self, iteration, instances):
        return sleep_kernel()


def by_tag(units, **criteria):
    out = []
    for unit in units:
        tags = unit.description.tags
        if all(tags.get(k) == v for k, v in criteria.items()):
            out.append(unit)
    return out


# ---------------------------------------------------------------------------
# Ensemble of pipelines
# ---------------------------------------------------------------------------


class TestPipelineDriver:
    @pytest.mark.parametrize("mode", ["local", "sim"])
    def test_stage_order_within_pipeline(self, mode, local_handle, sim_handle_factory):
        handle = local_handle if mode == "local" else sim_handle_factory()
        pattern = SleepPipelines(ensemble_size=3, pipeline_size=3)
        handle.run(pattern)
        assert len(pattern.units) == 9
        for instance in (1, 2, 3):
            stages = {
                u.description.tags["stage"]: u
                for u in by_tag(pattern.units, instance=instance)
            }
            for k in (1, 2):
                end_k = stages[k].timestamps["AGENT_STAGING_OUTPUT"]
                start_next = stages[k + 1].timestamps["EXECUTING"]
                assert start_next >= end_k, (
                    f"stage {k+1} of pipeline {instance} started before "
                    f"stage {k} ended"
                )

    def test_stage_placeholders_name_the_pipelines_latest_units(
        self, sim_handle_factory
    ):
        from repro.pilot.retry import RetryPolicy

        class Staged(EnsembleOfPipelines):
            retry_policy = RetryPolicy(max_attempts=10)

            def stage(self, stage_number, instance):
                kernel = sleep_kernel(30)
                kernel.link_input_data = [
                    f"$STAGE_{k}/out.txt > in{k}.txt"
                    for k in range(1, stage_number)
                ]
                return kernel

        handle = sim_handle_factory(fault_rate=0.3, seed=4)
        pattern = Staged(ensemble_size=6, pipeline_size=3)
        handle.run(pattern)
        assert handle.profile.events("entk_task_retry")
        for instance in range(1, 7):
            done = {
                u.description.tags["stage"]: u
                for u in by_tag(pattern.units, instance=instance)
                if u.state is UnitState.DONE
            }
            sources = [d.source for d in done[3].description.input_staging]
            assert sources == [
                f"$UNIT_{done[1].uid}/out.txt", f"$UNIT_{done[2].uid}/out.txt",
            ]

    def test_unknown_stage_placeholder_names_the_known_ones(
        self, sim_handle_factory
    ):
        class SelfReferencing(EnsembleOfPipelines):
            def stage(self, stage_number, instance):
                kernel = sleep_kernel(10)
                if stage_number == 2:
                    kernel.link_input_data = ["$STAGE_2/out.txt"]
                return kernel

        handle = sim_handle_factory()
        with pytest.raises(PatternError, match=r"\$STAGE_2 is not defined "
                           r"here \(known: \['STAGE_1'\]\)"):
            handle.run(SelfReferencing(ensemble_size=2, pipeline_size=3))

    def test_pipelines_do_not_synchronize(self, sim_handle_factory):
        """A slow pipeline must not block fast pipelines' later stages."""
        class UnevenPipelines(EnsembleOfPipelines):
            def stage(self, stage_number, instance):
                # pipeline 1 is slow in stage 1, others instant.
                duration = 500.0 if (instance == 1 and stage_number == 1) else 1.0
                return sleep_kernel(duration)

        handle = sim_handle_factory(cores=8)
        pattern = UnevenPipelines(ensemble_size=3, pipeline_size=2)
        handle.run(pattern)
        slow_stage1_end = by_tag(pattern.units, instance=1, stage=1)[0].timestamps[
            "AGENT_STAGING_OUTPUT"
        ]
        for instance in (2, 3):
            fast_stage2 = by_tag(pattern.units, instance=instance, stage=2)[0]
            assert fast_stage2.timestamps["EXECUTING"] < slow_stage1_end

    def test_failure_aborts_only_its_pipeline(self, local_handle):
        class FailingPipeline(EnsembleOfPipelines):
            def stage(self, stage_number, instance):
                if instance == 1 and stage_number == 1:
                    kernel = Kernel(name="misc.ccount")  # missing input -> fails
                    kernel.arguments = ["--inputfile=nope.txt",
                                        "--outputfile=out.txt"]
                    return kernel
                return sleep_kernel()

        pattern = FailingPipeline(ensemble_size=3, pipeline_size=2)
        with pytest.raises(PatternError, match="failed"):
            local_handle.run(pattern)
        # Pipeline 1 stopped at stage 1; pipelines 2 and 3 completed stage 2.
        assert not by_tag(pattern.units, instance=1, stage=2)
        for instance in (2, 3):
            (stage2,) = by_tag(pattern.units, instance=instance, stage=2)
            assert stage2.state is UnitState.DONE

    def test_retry_notifying_under_the_driver_lock_does_not_deadlock(
        self, tmp_path
    ):
        """Stage 2 is submitted from an executor thread under the driver
        lock; its stage-in fails there at once, and so do both retries,
        so the last failure notifies the session from under that lock
        while the drive loop's predicate (EoP ``done``) takes it."""
        import threading

        from repro.core.resource_handle import ResourceHandle

        class MissingInput(EnsembleOfPipelines):
            def stage_1(self, instance):
                return sleep_kernel()

            def stage_2(self, instance):
                kernel = sleep_kernel()
                kernel.link_input_data = ["$STAGE_1/missing.txt"]
                return kernel

        handle = ResourceHandle(
            "local.localhost", cores=4, walltime=10, mode="local",
            sandbox=tmp_path / "sandbox",
        )
        handle.allocate()
        pattern = MissingInput(ensemble_size=2, pipeline_size=2)
        pattern.max_task_retries = 2
        errors = []

        def run():
            try:
                handle.run(pattern)
            except PatternError as exc:
                errors.append(exc)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=30)
        # A deadlocked run keeps its locks: tearing it down would hang.
        assert not runner.is_alive(), "the drive loop deadlocked"
        handle.deallocate()
        assert len(errors) == 1 and "2 task(s) failed" in str(errors[0])
        assert len(handle.profile.events("entk_task_retry")) == 4

    def test_bag_of_tasks_runs_all(self, local_handle):
        class Bag(BagOfTasks):
            def task(self, instance):
                return sleep_kernel()

        pattern = Bag(size=5)
        local_handle.run(pattern)
        assert len(pattern.units) == 5
        assert all(u.state is UnitState.DONE for u in pattern.units)

    def test_driver_owns_the_pattern_tag(self, sim_handle_factory):
        """A kernel tag named ``pattern`` does not rename the unit's
        pattern: the driver's own uid wins."""
        class Bag(BagOfTasks):
            def task(self, instance):
                kernel = sleep_kernel()
                kernel.tags = {"pattern": "mine"}
                return kernel

        handle = sim_handle_factory()
        pattern = Bag(size=4)
        handle.run(pattern)
        assert len(pattern.units) == 4
        assert all(u.state is UnitState.DONE for u in pattern.units)
        assert {u.description.tags["pattern"] for u in pattern.units} == {
            pattern.uid
        }
        assert {ev.attrs["pattern"]
                for ev in handle.profile.events("unit_new")} == {pattern.uid}


# ---------------------------------------------------------------------------
# Simulation-analysis loop
# ---------------------------------------------------------------------------


class TestSALDriver:
    @pytest.mark.parametrize("mode", ["local", "sim"])
    def test_global_barriers(self, mode, local_handle, sim_handle_factory):
        handle = local_handle if mode == "local" else sim_handle_factory()
        pattern = SleepSAL(iterations=2, simulation_instances=3,
                           analysis_instances=2)
        handle.run(pattern)
        assert len(pattern.units) == 2 * (3 + 2)
        for iteration in (1, 2):
            sims = by_tag(pattern.units, phase="sim", iteration=iteration)
            anas = by_tag(pattern.units, phase="ana", iteration=iteration)
            last_sim_end = max(u.timestamps["AGENT_STAGING_OUTPUT"] for u in sims)
            first_ana_start = min(u.timestamps["EXECUTING"] for u in anas)
            assert first_ana_start >= last_sim_end
            if iteration == 2:
                prev_ana_end = max(
                    u.timestamps["AGENT_STAGING_OUTPUT"]
                    for u in by_tag(pattern.units, phase="ana", iteration=1)
                )
                first_sim_start = min(u.timestamps["EXECUTING"] for u in sims)
                assert first_sim_start >= prev_ana_end

    def test_pre_and_post_loop(self, local_handle):
        class WithHooks(SleepSAL):
            def pre_loop(self):
                return sleep_kernel()

            def post_loop(self):
                return sleep_kernel()

        pattern = WithHooks(iterations=1, simulation_instances=2)
        local_handle.run(pattern)
        phases = [u.description.tags["phase"] for u in pattern.units]
        assert phases.count("pre_loop") == 1
        assert phases.count("post_loop") == 1
        pre = by_tag(pattern.units, phase="pre_loop")[0]
        first_sim = min(
            u.timestamps["EXECUTING"]
            for u in by_tag(pattern.units, phase="sim")
        )
        assert first_sim >= pre.timestamps["AGENT_STAGING_OUTPUT"]

    def test_failure_aborts_loop(self, local_handle):
        class FailingAnalysis(SleepSAL):
            def analysis_stage(self, iteration, instance):
                kernel = Kernel(name="misc.ccount")
                kernel.arguments = ["--inputfile=missing.txt",
                                    "--outputfile=o.txt"]
                return kernel

        pattern = FailingAnalysis(iterations=3, simulation_instances=2)
        with pytest.raises(PatternError):
            local_handle.run(pattern)
        # No iteration-2 simulations were ever submitted.
        assert not by_tag(pattern.units, phase="sim", iteration=2)


# ---------------------------------------------------------------------------
# Ensemble exchange
# ---------------------------------------------------------------------------


class TestEEDriver:
    @pytest.mark.parametrize("mode", ["local", "sim"])
    def test_pairwise_exchange_couples_pairs(self, mode, local_handle,
                                             sim_handle_factory):
        handle = local_handle if mode == "local" else sim_handle_factory()
        pattern = SleepEE(ensemble_size=4, iterations=2,
                          exchange_mode="pairwise")
        handle.run(pattern)
        sims = by_tag(pattern.units, phase="sim")
        exchanges = by_tag(pattern.units, phase="exchange")
        assert len(sims) == 8
        # Matching pairs ladder-adjacent members by arrival: under
        # simulation arrivals are deterministic (2 pairs x 2 iterations);
        # locally, arrival order may strand non-adjacent members (1, 4),
        # who then legitimately skip (quiescence rule) — at least one
        # pair must still form per iteration.
        if mode == "sim":
            assert len(exchanges) == 4
        else:
            assert 2 <= len(exchanges) <= 4
        for exchange in exchanges:
            pair = exchange.description.tags["instances"]
            assert len(pair) == 2
            iteration = exchange.description.tags["iteration"]
            for member in pair:
                (sim,) = by_tag(sims, iteration=iteration, instance=member)
                assert (
                    exchange.timestamps["EXECUTING"]
                    >= sim.timestamps["AGENT_STAGING_OUTPUT"]
                )

    def test_pairwise_no_global_barrier(self, sim_handle_factory):
        """Fast pair exchanges while a slow member still simulates."""
        class Uneven(SleepEE):
            def simulation_stage(self, iteration, instance):
                return sleep_kernel(900.0 if instance == 3 else 1.0)

        handle = sim_handle_factory(cores=8)
        pattern = Uneven(ensemble_size=4, iterations=1,
                         exchange_mode="pairwise")
        handle.run(pattern)
        (pair12,) = [
            u
            for u in by_tag(pattern.units, phase="exchange")
            if tuple(u.description.tags["instances"]) == (1, 2)
        ]
        slow_sim = by_tag(pattern.units, phase="sim", instance=3)[0]
        assert (
            pair12.timestamps["EXECUTING"]
            < slow_sim.timestamps["AGENT_STAGING_OUTPUT"]
        )

    def test_odd_ensemble_terminates_with_skip(self, local_handle):
        pattern = SleepEE(ensemble_size=5, iterations=2,
                          exchange_mode="pairwise")
        local_handle.run(pattern)
        sims = by_tag(pattern.units, phase="sim")
        # Every member completed every iteration despite the odd one out.
        assert len(sims) == 10
        assert all(u.state is UnitState.DONE for u in pattern.units)

    @pytest.mark.parametrize("mode", ["local", "sim"])
    def test_global_exchange_waits_for_all(self, mode, local_handle,
                                           sim_handle_factory):
        handle = local_handle if mode == "local" else sim_handle_factory()
        pattern = SleepEE(ensemble_size=4, iterations=2,
                          exchange_mode="global")
        handle.run(pattern)
        exchanges = by_tag(pattern.units, phase="exchange")
        assert len(exchanges) == 2  # one per iteration
        for exchange in exchanges:
            iteration = exchange.description.tags["iteration"]
            assert tuple(exchange.description.tags["instances"]) == (1, 2, 3, 4)
            sims = by_tag(pattern.units, phase="sim", iteration=iteration)
            last_sim_end = max(u.timestamps["AGENT_STAGING_OUTPUT"] for u in sims)
            assert exchange.timestamps["EXECUTING"] >= last_sim_end

    def test_failed_member_drops_out(self, local_handle):
        class OneBadMember(SleepEE):
            def simulation_stage(self, iteration, instance):
                if instance == 2 and iteration == 1:
                    kernel = Kernel(name="misc.ccount")
                    kernel.arguments = ["--inputfile=x", "--outputfile=y"]
                    return kernel
                return sleep_kernel()

        pattern = OneBadMember(ensemble_size=4, iterations=2,
                               exchange_mode="global")
        with pytest.raises(PatternError):
            local_handle.run(pattern)
        # Iteration 2 ran with the survivors only.
        iteration2 = by_tag(pattern.units, phase="sim", iteration=2)
        assert {u.description.tags["instance"] for u in iteration2} == {1, 3, 4}


# ---------------------------------------------------------------------------
# Sequence composition
# ---------------------------------------------------------------------------


class TestSequence:
    def test_patterns_run_in_order(self, local_handle):
        class Bag(BagOfTasks):
            def task(self, instance):
                return sleep_kernel()

        first = Bag(size=2)
        second = SleepSAL(iterations=1, simulation_instances=2)
        sequence = PatternSequence([first, second])
        local_handle.run(sequence)
        assert sequence.executed
        first_end = max(u.timestamps["AGENT_STAGING_OUTPUT"] for u in first.units)
        second_start = min(u.timestamps["EXECUTING"] for u in second.units)
        assert second_start >= first_end
        assert len(sequence.units) == len(first.units) + len(second.units)
