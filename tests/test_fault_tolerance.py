"""Tests for node-level faults, pilot resubmission and retry policies."""

import pytest

from repro.analytics.faults import fault_recovery_summary
from repro.cluster.faults import NodeFaultModel, NodeFaultProcess
from repro.core.kernel_plugin import Kernel
from repro.core.patterns import BagOfTasks
from repro.core.resource_handle import ResourceHandle
from repro.eventsim import RandomStreams, Simulator
from repro.exceptions import ConfigurationError, PatternError
from repro.pilot.agent.slots import make_slot_scheduler
from repro.pilot.faults import NodeFailure, PilotFailure
from repro.pilot.retry import RetryPolicy
from repro.pilot.states import UnitState


class SleepBag(BagOfTasks):
    def __init__(self, size, duration=100, policy=None):
        super().__init__(size=size)
        self.duration = duration
        self.retry_policy = policy

    def task(self, instance):
        kernel = Kernel(name="misc.sleep")
        kernel.arguments = [f"--duration={self.duration}"]
        return kernel


def run_sim(pattern, cores=64, walltime=600, seed=0, **kwargs):
    handle = ResourceHandle(
        "xsede.comet", cores=cores, walltime=walltime, mode="sim",
        seed=seed, **kwargs,
    )
    handle.allocate()
    try:
        handle.run(pattern)
    finally:
        handle.deallocate()
    return handle


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_cap=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=-0.1)

    def test_should_retry_counts_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(0)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)
        assert not policy.should_retry(7)
        assert policy.retries == 2

    def test_delay_is_exponential_and_capped(self):
        policy = RetryPolicy(
            max_attempts=10, backoff_base=2.0, backoff_factor=3.0,
            backoff_cap=20.0,
        )
        assert policy.delay(1) == 2.0
        assert policy.delay(2) == 6.0
        assert policy.delay(3) == 18.0
        assert policy.delay(4) == 20.0  # capped, not 54

    def test_zero_base_means_no_delay(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=0.0)
        assert all(policy.delay(n) == 0.0 for n in range(1, 6))

    def test_jittered_delay_without_rng_equals_delay(self):
        policy = RetryPolicy(backoff_base=4.0, jitter=0.5)
        assert policy.jittered_delay(2) == policy.delay(2)

    def test_jittered_delay_bounds(self):
        policy = RetryPolicy(
            max_attempts=10, backoff_base=3.0, backoff_factor=2.0,
            backoff_cap=1000.0, jitter=0.25,
        )
        rng = RandomStreams(7).get("retry_backoff")
        for attempt in range(1, 8):
            base = policy.delay(attempt)
            for _ in range(50):
                value = policy.jittered_delay(attempt, rng)
                assert base <= value <= base * 1.25


class TestNodeFaultModel:
    def test_enabled_flag(self):
        assert not NodeFaultModel(0.0).enabled
        assert NodeFaultModel(10.0).enabled

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NodeFaultModel(mtbf=-1.0)
        with pytest.raises(ConfigurationError):
            NodeFaultModel(mtbf=10.0, repair_time=0.0)

    def test_process_rejects_disabled_model(self):
        sim = Simulator()
        rng = RandomStreams(0).get("node_faults")
        with pytest.raises(ConfigurationError):
            NodeFaultProcess(
                sim, rng, 2, NodeFaultModel(0.0),
                on_fail=lambda n: None, on_repair=lambda n: None,
            )


class TestNodeFaultProcess:
    def _make(self, seed=0, nnodes=3, mtbf=50.0, repair=20.0):
        sim = Simulator()
        rng = RandomStreams(seed).get("node_faults")
        fails, repairs = [], []
        proc = NodeFaultProcess(
            sim, rng, nnodes, NodeFaultModel(mtbf, repair),
            on_fail=lambda n: fails.append((sim.now, n)),
            on_repair=lambda n: repairs.append((sim.now, n)),
        )
        return sim, proc, fails, repairs

    def test_fail_repair_cycle(self):
        sim, proc, fails, repairs = self._make()
        proc.start()
        sim.run(until=200.0)
        assert fails, "mtbf 50 over 200s must fail at least once"
        assert repairs, "repair_time 20 must complete within the horizon"
        # Every repair follows its failure by exactly the repair interval.
        for (t_fail, node), (t_rep, rep_node) in zip(fails, repairs):
            assert rep_node == node
            assert t_rep == pytest.approx(t_fail + 20.0)

    def test_down_nodes_tracking(self):
        sim, proc, fails, _ = self._make(repair=1000.0)
        proc.start()
        sim.run(until=200.0)
        assert proc.down_nodes == {node for _, node in fails}

    def test_stop_cancels_everything(self):
        sim, proc, fails, _ = self._make()
        proc.start()
        sim.run(until=60.0)
        count = len(fails)
        proc.stop()
        sim.run(until=10_000.0)
        assert len(fails) == count
        assert sim.pending == 0

    def test_deterministic_under_seed(self):
        sim_a, proc_a, fails_a, _ = self._make(seed=5)
        proc_a.start()
        sim_a.run(until=500.0)
        sim_b, proc_b, fails_b, _ = self._make(seed=5)
        proc_b.start()
        sim_b.run(until=500.0)
        assert fails_a == fails_b
        sim_c, proc_c, fails_c, _ = self._make(seed=6)
        proc_c.start()
        sim_c.run(until=500.0)
        assert fails_a != fails_c


class TestSlotSchedulerNodes:
    def test_node_mapping(self):
        slots = make_slot_scheduler("contiguous", 8, cores_per_node=4)
        assert slots.nnodes == 2
        assert slots.node_of(0) == 0
        assert slots.node_of(7) == 1
        assert list(slots.node_slots(1)) == [4, 5, 6, 7]

    def test_single_node_without_cores_per_node(self):
        slots = make_slot_scheduler("scattered", 8)
        assert slots.nnodes == 1
        assert slots.node_of(7) == 0

    def test_fail_node_removes_free_capacity(self):
        slots = make_slot_scheduler("contiguous", 8, cores_per_node=4)
        slots.fail_node(0)
        assert slots.free_cores == 4
        assert slots.offline_nodes == {0}
        got = slots.alloc(4)
        assert got is not None and all(s >= 4 for s in got)
        assert slots.alloc(1) is None
        slots.dealloc(got)
        slots.repair_node(0)
        assert slots.free_cores == 8 and slots.offline_nodes == set()

    def test_dealloc_onto_offline_node_stays_out_of_pool(self):
        slots = make_slot_scheduler("contiguous", 8, cores_per_node=4)
        got = slots.alloc(4)  # lands on node 0
        slots.fail_node(0)
        slots.dealloc(got)
        assert slots.free_cores == 4  # only node 1
        slots.repair_node(0)
        assert slots.free_cores == 8

    def test_eligible_cores_ignores_occupancy_and_outage(self):
        slots = make_slot_scheduler("scattered", 8, cores_per_node=4)
        slots.alloc(6)
        slots.fail_node(1)
        assert slots.eligible_cores() == 8
        assert slots.eligible_cores({0}) == 4
        assert slots.eligible_cores({0, 1}) == 0

    def test_alloc_avoids_nodes(self):
        slots = make_slot_scheduler("scattered", 8, cores_per_node=4)
        got = slots.alloc(4, avoid_nodes={0})
        assert got is not None
        assert all(slots.node_of(s) == 1 for s in got)
        assert slots.alloc(1, avoid_nodes={0, 1}) is None


GENEROUS = RetryPolicy(
    max_attempts=8, backoff_base=0.0, exclude_failed_nodes=False
)


class TestNodeFailureRuns:
    def test_node_crash_requeues_and_completes(self):
        pattern = SleepBag(64)
        handle = run_sim(
            pattern, node_mtbf=120.0, node_repair_time=120.0,
            retry_policy=GENEROUS,
        )
        assert all(u.state is UnitState.DONE for u in pattern.units)
        prof = handle.profile
        assert prof.events("node_fail")
        assert prof.events("node_repair")
        kills = prof.events("unit_node_kill")
        requeues = prof.events("unit_requeue")
        assert len(kills) == len(requeues) > 0
        assert all(ev.attrs["wasted"] >= 0 for ev in kills)
        assert max(u.attempts for u in pattern.units) > 1

    def test_kills_fail_pattern_without_policy(self):
        with pytest.raises(PatternError, match="NodeFailure"):
            run_sim(SleepBag(64), node_mtbf=150.0, node_repair_time=120.0)

    def test_retry_exhaustion_fails_not_hangs(self):
        policy = RetryPolicy(
            max_attempts=2, backoff_base=0.0, exclude_failed_nodes=False
        )
        with pytest.raises(PatternError, match="NodeFailure"):
            run_sim(
                SleepBag(64), node_mtbf=60.0, node_repair_time=120.0,
                retry_policy=policy,
            )

    def test_exclusion_on_single_node_fails_fast(self):
        """With the only node excluded the requeued unit cannot wait forever."""
        policy = RetryPolicy(
            max_attempts=8, backoff_base=0.0, exclude_failed_nodes=True
        )
        with pytest.raises(PatternError, match="NodeFailure"):
            run_sim(
                SleepBag(16), cores=24, node_mtbf=60.0,
                node_repair_time=120.0, retry_policy=policy,
            )

    def test_clean_run_emits_no_fault_events(self):
        pattern = SleepBag(16)
        handle = run_sim(pattern, node_mtbf=0.0, retry_policy=GENEROUS)
        prof = handle.profile
        for name in (
            "node_fail", "node_repair", "unit_node_kill", "unit_requeue",
            "pilot_fault", "pilot_resubmit", "agent_suspend",
        ):
            assert not prof.events(name)
        assert all(u.state is UnitState.DONE for u in pattern.units)

    def test_killed_units_carry_node_failure(self):
        policy = RetryPolicy(
            max_attempts=2, backoff_base=0.0, exclude_failed_nodes=False
        )
        pattern = SleepBag(64)
        with pytest.raises(PatternError):
            run_sim(
                pattern, node_mtbf=60.0, node_repair_time=120.0,
                retry_policy=policy,
            )
        failed = [u for u in pattern.units if u.state is UnitState.FAILED]
        assert failed
        assert all(isinstance(u.exception, NodeFailure) for u in failed)

    def test_backoff_policy_charges_delay(self):
        backoff = RetryPolicy(
            max_attempts=8, backoff_base=5.0, backoff_factor=2.0,
            backoff_cap=120.0, exclude_failed_nodes=False,
        )
        pattern = SleepBag(64)
        handle = run_sim(
            pattern, node_mtbf=150.0, node_repair_time=120.0,
            retry_policy=backoff,
        )
        assert all(u.state is UnitState.DONE for u in pattern.units)
        requeues = handle.profile.events("unit_requeue")
        assert requeues and all(ev.attrs["delay"] > 0 for ev in requeues)

    def test_local_mode_rejects_node_faults(self):
        with pytest.raises(ConfigurationError, match="simulated"):
            ResourceHandle(
                "local.localhost", 2, 5, mode="local", node_mtbf=100.0
            ).allocate()

    def test_negative_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sim(SleepBag(1), node_mtbf=-1.0)
        with pytest.raises(ConfigurationError):
            run_sim(SleepBag(1), pilot_mtbf=-1.0)
        with pytest.raises(ConfigurationError):
            run_sim(SleepBag(1), max_pilot_resubmits=-1)


class TestPilotResubmission:
    def test_pilot_fault_resubmits_and_completes(self):
        pattern = SleepBag(64)
        handle = run_sim(
            pattern, cores=32, pilot_mtbf=150.0, max_pilot_resubmits=10,
            retry_policy=GENEROUS,
        )
        assert all(u.state is UnitState.DONE for u in pattern.units)
        prof = handle.profile
        faults = prof.events("pilot_fault")
        resubmits = prof.events("pilot_resubmit")
        assert faults and resubmits
        assert len(resubmits) <= len(faults)
        # Each resubmission re-bootstraps the agent: one agent_start per life.
        agent_starts = prof.events("agent_start")
        assert len(agent_starts) == len(resubmits) + 1

    def test_resubmission_reenters_queue(self):
        pattern = SleepBag(64)
        handle = run_sim(
            pattern, cores=32, pilot_mtbf=150.0, max_pilot_resubmits=10,
            retry_policy=GENEROUS,
        )
        prof = handle.profile
        for ev in prof.events("pilot_resubmit"):
            later = [
                s for s in prof.events("agent_start", ev.uid)
                if s.time > ev.time
            ]
            # The replacement pays submit latency + queue wait + bootstrap,
            # so the next agent_start is strictly after the resubmission.
            assert later and min(s.time for s in later) > ev.time

    def test_in_flight_units_requeue_on_pilot_death(self):
        pattern = SleepBag(64)
        handle = run_sim(
            pattern, cores=32, pilot_mtbf=150.0, max_pilot_resubmits=10,
            retry_policy=GENEROUS,
        )
        kills = handle.profile.events("unit_pilot_kill")
        suspends = handle.profile.events("agent_suspend")
        assert suspends
        assert kills, "pilot died mid-run: some units must have been executing"

    def test_no_resubmit_budget_fails_pattern(self):
        with pytest.raises(PatternError):
            run_sim(
                SleepBag(64), cores=32, pilot_mtbf=60.0,
                max_pilot_resubmits=0, retry_policy=GENEROUS,
            )

    def test_pilot_faults_disabled_by_default(self):
        pattern = SleepBag(8, duration=10)
        handle = run_sim(pattern, cores=16)
        assert not handle.profile.events("pilot_fault")
        assert all(u.state is UnitState.DONE for u in pattern.units)


class TestFaultAnalytics:
    def test_summary_counts_match_events(self):
        pattern = SleepBag(64)
        handle = run_sim(
            pattern, node_mtbf=150.0, node_repair_time=120.0,
            retry_policy=GENEROUS,
        )
        prof = handle.profile
        summary = fault_recovery_summary(prof)
        assert summary.node_failures == len(prof.events("node_fail"))
        assert summary.node_repairs == len(prof.events("node_repair"))
        assert summary.units_killed == len(prof.events("unit_node_kill"))
        assert summary.unit_requeues == len(prof.events("unit_requeue"))
        assert summary.wasted_execution > 0
        assert summary.node_downtime > 0
        assert summary.overhead >= summary.wasted_execution

    def test_clean_summary_is_all_zero(self):
        pattern = SleepBag(8, duration=10)
        handle = run_sim(pattern, cores=16)
        summary = fault_recovery_summary(handle.profile)
        assert summary.overhead == 0.0
        assert all(v == 0 for v in summary.as_dict().values())

    def test_breakdown_reports_fault_overhead(self):
        from repro.core.profiler import breakdown_from_profile

        pattern = SleepBag(64)
        handle = run_sim(
            pattern, node_mtbf=150.0, node_repair_time=120.0,
            retry_policy=GENEROUS,
        )
        breakdown = breakdown_from_profile(handle.profile, pattern)
        assert breakdown.fault_overhead > 0
        assert breakdown.as_dict()["fault_overhead"] == breakdown.fault_overhead

    def test_resubmit_downtime_accounted(self):
        pattern = SleepBag(64)
        handle = run_sim(
            pattern, cores=32, pilot_mtbf=150.0, max_pilot_resubmits=10,
            retry_policy=GENEROUS,
        )
        summary = fault_recovery_summary(handle.profile)
        assert summary.pilot_resubmits > 0
        assert summary.resubmit_downtime > 0


class TestPatternPolicyIntegration:
    def test_zero_backoff_policy_retries_immediately(self):
        """A policy with no backoff absorbs task faults with immediate
        resubmissions."""
        pattern = SleepBag(32, duration=100)
        pattern.retry_policy = RetryPolicy(max_attempts=11, backoff_base=0.0)
        handle = run_sim(pattern, cores=32, fault_rate=0.3, seed=3)
        done = [u for u in pattern.units if u.state is UnitState.DONE]
        assert len(done) == 32
        retries = handle.profile.events("entk_task_retry")
        assert retries
        assert all(ev.attrs["delay"] == 0.0 for ev in retries)

    def test_pattern_policy_backoff_delays_task_retries(self):
        pattern = SleepBag(32, duration=100)
        pattern.retry_policy = RetryPolicy(
            max_attempts=11, backoff_base=2.0, backoff_factor=2.0,
            backoff_cap=30.0,
        )
        handle = run_sim(pattern, cores=32, fault_rate=0.3, seed=3)
        done = [u for u in pattern.units if u.state is UnitState.DONE]
        assert len(done) == 32
        retries = handle.profile.events("entk_task_retry")
        assert retries and all(ev.attrs["delay"] > 0 for ev in retries)
