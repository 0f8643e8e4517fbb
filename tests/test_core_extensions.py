"""Tests for the paper-§V extensions: retry, adaptive SAL, strategies."""

import itertools

import pytest

from repro.core.kernel_plugin import Kernel, KernelPlugin
from repro.core.kernel_registry import register_kernel
from repro.core.patterns import (
    AdaptDecision,
    AdaptiveSimulationAnalysisLoop,
    BagOfTasks,
)
from repro.core.strategy import (
    MinimizeCostStrategy,
    MinimizeTTCStrategy,
    WorkloadEstimate,
    estimate_ttc,
    select_resource,
)
from repro.cluster.platforms import get_platform
from repro.exceptions import ConfigurationError, PatternError
from repro.pilot.retry import RetryPolicy
from repro.pilot.states import UnitState

_FLAKY_COUNTERS = itertools.count()
_FLAKY_STATE: dict[str, int] = {}


class FlakyKernel(KernelPlugin):
    """Fails the first ``--failures`` executions of each ``--key``."""

    name = "test.flaky"
    required_args = ("key", "failures")

    def execute(self, ctx):
        key = ctx.arg("key")
        budget = int(ctx.arg("failures"))
        seen = _FLAKY_STATE.get(key, 0)
        _FLAKY_STATE[key] = seen + 1
        if seen < budget:
            raise RuntimeError(f"transient failure {seen + 1} of {key}")
        return f"ok:{key}"

    def duration(self, cores, platform, args):
        return 1.0


register_kernel(FlakyKernel, replace=True)


class FlakyBag(BagOfTasks):
    def __init__(self, size, failures, retries):
        super().__init__(size=size)
        self.failures = failures
        self.retry_policy = RetryPolicy(max_attempts=retries + 1,
                                        backoff_base=0.0)
        self.key_prefix = f"bag{next(_FLAKY_COUNTERS)}"

    def task(self, instance):
        kernel = Kernel(name="test.flaky")
        kernel.arguments = [
            f"--key={self.key_prefix}-{instance}",
            f"--failures={self.failures}",
        ]
        return kernel


class TestRetry:
    def test_transient_failures_are_retried_to_success(self, local_handle):
        pattern = FlakyBag(size=3, failures=1, retries=2)
        local_handle.run(pattern)  # must not raise
        done = [u for u in pattern.units if u.state is UnitState.DONE]
        failed = [u for u in pattern.units if u.state is UnitState.FAILED]
        assert len(done) == 3
        assert len(failed) == 3  # the first attempts
        assert not pattern.failed_units  # failures were absorbed by retries

    def test_retry_budget_exhaustion_raises(self, local_handle):
        pattern = FlakyBag(size=2, failures=3, retries=1)
        with pytest.raises(PatternError, match="failed"):
            local_handle.run(pattern)

    def test_zero_retries_fail_immediately(self, local_handle):
        pattern = FlakyBag(size=1, failures=1, retries=0)
        with pytest.raises(PatternError):
            local_handle.run(pattern)

    def test_retry_units_tagged_with_lineage(self, local_handle):
        pattern = FlakyBag(size=1, failures=1, retries=1)
        local_handle.run(pattern)
        retried = [
            u for u in pattern.units if "__retry_root" in u.description.tags
        ]
        assert len(retried) == 1
        assert retried[0].description.tags["__retry_attempt"] == 1

    def test_retry_events_profiled(self, local_handle):
        pattern = FlakyBag(size=1, failures=1, retries=1)
        local_handle.run(pattern)
        assert len(local_handle.profile.events("entk_task_retry")) == 1


def sleep_kernel():
    kernel = Kernel(name="misc.sleep")
    kernel.arguments = ["--duration=0"]
    return kernel


class TestAdaptiveSAL:
    class Growing(AdaptiveSimulationAnalysisLoop):
        """Doubles the simulation ensemble each iteration."""

        def simulation_stage(self, iteration, instance):
            return sleep_kernel()

        def analysis_stage(self, iteration, instance):
            return sleep_kernel()

        def adapt(self, iteration, analysis_units):
            return AdaptDecision(
                simulation_instances=self.simulation_instances * 2
            )

    class EarlyStop(AdaptiveSimulationAnalysisLoop):
        def simulation_stage(self, iteration, instance):
            return sleep_kernel()

        def analysis_stage(self, iteration, instance):
            return sleep_kernel()

        def adapt(self, iteration, analysis_units):
            return AdaptDecision(proceed=iteration < 2)

    def sims_at(self, pattern, iteration):
        return [
            u for u in pattern.units
            if u.description.tags.get("phase") == "sim"
            and u.description.tags.get("iteration") == iteration
        ]

    @pytest.mark.parametrize("mode", ["local", "sim"])
    def test_ensemble_size_varies_between_iterations(
        self, mode, local_handle, sim_handle_factory
    ):
        handle = local_handle if mode == "local" else sim_handle_factory(cores=16)
        pattern = self.Growing(iterations=3, simulation_instances=2)
        handle.run(pattern)
        assert len(self.sims_at(pattern, 1)) == 2
        assert len(self.sims_at(pattern, 2)) == 4
        assert len(self.sims_at(pattern, 3)) == 8
        assert len(pattern.decisions) == 3

    def test_early_stop_skips_remaining_iterations(self, local_handle):
        pattern = self.EarlyStop(iterations=10, simulation_instances=2)
        local_handle.run(pattern)
        assert self.sims_at(pattern, 2)
        assert not self.sims_at(pattern, 3)

    def test_adapt_hook_sees_analysis_results(self, local_handle):
        seen = []

        class Inspecting(AdaptiveSimulationAnalysisLoop):
            def simulation_stage(self, iteration, instance):
                return sleep_kernel()

            def analysis_stage(self, iteration, instance):
                return sleep_kernel()

            def adapt(self, iteration, analysis_units):
                seen.append([u.state for u in analysis_units])
                return AdaptDecision()

        pattern = Inspecting(iterations=2, simulation_instances=2)
        local_handle.run(pattern)
        assert len(seen) == 2
        assert all(s == [UnitState.DONE] for s in seen)

    def test_invalid_decision_rejected(self, local_handle):
        class Broken(AdaptiveSimulationAnalysisLoop):
            def simulation_stage(self, iteration, instance):
                return sleep_kernel()

            def analysis_stage(self, iteration, instance):
                return sleep_kernel()

            def adapt(self, iteration, analysis_units):
                return AdaptDecision(simulation_instances=0)

        pattern = Broken(iterations=2, simulation_instances=1)
        with pytest.raises(PatternError):
            local_handle.run(pattern)

    def test_decisions_recorded_in_profile(self, local_handle):
        pattern = self.EarlyStop(iterations=5, simulation_instances=1)
        local_handle.run(pattern)
        events = local_handle.profile.events("entk_adapt_decision")
        assert [e.attrs["proceed"] for e in events] == [True, False]


class TestExecutionStrategy:
    WORKLOAD = WorkloadEstimate(ntasks=256, task_seconds=200.0)

    def test_estimate_ttc_components(self):
        platform = get_platform("xsede.comet")
        estimate = estimate_ttc(self.WORKLOAD, platform, cores=256)
        assert estimate["waves"] == 1.0
        assert estimate["ttc"] > estimate["execution"] > 0
        half = estimate_ttc(self.WORKLOAD, platform, cores=128)
        assert half["waves"] == 2.0
        assert half["execution"] > estimate["execution"]

    def test_pilot_too_small_rejected(self):
        workload = WorkloadEstimate(ntasks=4, task_seconds=10.0, cores_per_task=8)
        with pytest.raises(ConfigurationError):
            estimate_ttc(workload, get_platform("xsede.comet"), cores=4)

    def test_ttc_strategy_prefers_wide_pilots(self):
        plan = MinimizeTTCStrategy().plan(
            self.WORKLOAD, ["xsede.comet"]
        )
        cost_plan = MinimizeCostStrategy().plan(self.WORKLOAD, ["xsede.comet"])
        assert plan.cores >= cost_plan.cores
        assert plan.estimated_ttc <= cost_plan.estimated_ttc
        assert cost_plan.estimated_cost_core_hours <= plan.estimated_cost_core_hours

    def test_strategy_picks_faster_machine(self):
        # Comet's cores are modelled faster than Stampede's and its queue is
        # shorter; for a core-bound workload it must win.
        plan = select_resource(self.WORKLOAD, ["xsede.stampede", "xsede.comet"])
        assert plan.resource == "xsede.comet"

    def test_select_resource_objectives(self):
        ttc_plan = select_resource(self.WORKLOAD, ["xsede.comet"], objective="ttc")
        cost_plan = select_resource(self.WORKLOAD, ["xsede.comet"], objective="cost")
        assert ttc_plan.estimated_ttc <= cost_plan.estimated_ttc
        with pytest.raises(ConfigurationError):
            select_resource(self.WORKLOAD, ["xsede.comet"], objective="karma")

    def test_no_candidates_rejected(self):
        with pytest.raises(ConfigurationError):
            MinimizeTTCStrategy().plan(self.WORKLOAD, [])

    def test_workload_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadEstimate(ntasks=0, task_seconds=1.0)
        with pytest.raises(ConfigurationError):
            WorkloadEstimate(ntasks=1, task_seconds=-1.0)

    def test_plan_respects_machine_size(self):
        tiny = ["local.localhost"]
        plan = MinimizeTTCStrategy().plan(
            WorkloadEstimate(ntasks=1000, task_seconds=1.0), tiny
        )
        assert plan.cores <= get_platform("local.localhost").total_cores

    def test_estimated_plan_matches_simulated_run(self, sim_handle_factory):
        """The strategy's estimate agrees with an actual simulated run."""
        from repro.core.profiler import breakdown_from_profile

        class Bag(BagOfTasks):
            def task(self, instance):
                kernel = Kernel(name="misc.sleep")
                kernel.arguments = ["--duration=200"]
                return kernel

        workload = WorkloadEstimate(ntasks=64, task_seconds=200.0)
        platform = get_platform("xsede.comet")
        estimate = estimate_ttc(
            workload, platform, cores=72, include_queue_wait=False
        )
        handle = sim_handle_factory(cores=72)
        pattern = Bag(size=64)
        handle.run(pattern)
        breakdown = breakdown_from_profile(handle.profile, pattern)
        assert breakdown.execution_time == pytest.approx(
            estimate["execution"], rel=0.15
        )
