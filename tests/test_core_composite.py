"""Tests for pattern composition: sequences and concurrency."""

import pytest

from repro.core.kernel_plugin import Kernel
from repro.core.patterns import (
    BagOfTasks,
    ConcurrentPatterns,
    PatternSequence,
    SimulationAnalysisLoop,
)
from repro.core.resource_handle import ResourceHandle
from repro.exceptions import PatternError
from repro.pilot.states import UnitState


def sleep_kernel(duration=0.0):
    kernel = Kernel(name="misc.sleep")
    kernel.arguments = [f"--duration={duration}"]
    return kernel


class Bag(BagOfTasks):
    def __init__(self, size, duration=0.0):
        super().__init__(size=size)
        self.duration = duration

    def task(self, instance):
        return sleep_kernel(self.duration)


class SAL(SimulationAnalysisLoop):
    def __init__(self, duration=0.0):
        super().__init__(iterations=2, simulation_instances=2)
        self.duration = duration

    def simulation_stage(self, iteration, instance):
        return sleep_kernel(self.duration)

    def analysis_stage(self, iteration, instance):
        return sleep_kernel(self.duration)


class TestConcurrentValidation:
    def test_needs_patterns(self):
        with pytest.raises(PatternError):
            ConcurrentPatterns([])

    def test_nesting_rules(self):
        with pytest.raises(PatternError, match="nest"):
            ConcurrentPatterns([PatternSequence([Bag(1)])])
        with pytest.raises(PatternError, match="nest"):
            ConcurrentPatterns([ConcurrentPatterns([Bag(1)])])
        with pytest.raises(PatternError, match="nest"):
            PatternSequence([PatternSequence([Bag(1)])])
        # The canonical campaign shape IS allowed: a sequence step may be
        # a concurrent group.
        PatternSequence([Bag(1), ConcurrentPatterns([Bag(1), Bag(2)])])

    def test_sequence_with_concurrent_step_runs(self, local_handle):
        setup = Bag(size=2)
        concurrent = ConcurrentPatterns([Bag(size=2), Bag(size=3)])
        campaign = PatternSequence([setup, concurrent])
        local_handle.run(campaign)
        assert campaign.executed
        assert len(campaign.units) == 2 + 5
        setup_end = max(
            u.timestamps["AGENT_STAGING_OUTPUT"] for u in setup.units
        )
        concurrent_start = min(
            u.timestamps["EXECUTING"] for u in concurrent.units
        )
        assert concurrent_start >= setup_end


class TestConcurrentExecution:
    @pytest.mark.parametrize("mode", ["local", "sim"])
    def test_all_constituents_complete(self, mode, local_handle,
                                       sim_handle_factory):
        handle = local_handle if mode == "local" else sim_handle_factory()
        bag, sal = Bag(size=3), SAL()
        composite = ConcurrentPatterns([bag, sal])
        handle.run(composite)
        assert composite.executed
        assert bag.executed and sal.executed
        # bag: 3 tasks; SAL: 2 iterations x (2 sims + 1 analysis) = 6.
        assert len(composite.units) == 3 + 2 * (2 + 1)
        assert all(u.state is UnitState.DONE for u in composite.units)

    def test_local_composite_ends_with_its_last_unit(self, tmp_path):
        """The composite's wait wakes on its children's completions, not
        on a poll interval."""
        handle = ResourceHandle(
            "local.localhost", cores=2, walltime=10, mode="local",
            sandbox=tmp_path / "sandbox",
        )
        handle.allocate()
        composite = ConcurrentPatterns([Bag(size=2), Bag(size=2)])
        try:
            handle.run(composite)
            last_done = max(
                event.time for event in handle.profile.events("unit_state")
                if event.attrs["state"] == "DONE"
            )
            (stop,) = handle.profile.events("entk_pattern_stop", composite.uid)
        finally:
            handle.deallocate()
        assert stop.time - last_done < 0.05

    def test_constituents_really_interleave(self, sim_handle_factory):
        """Two bags with long tasks share the pilot concurrently: total
        time is one wave, not the sum of the two patterns' times."""
        handle = sim_handle_factory(cores=8)
        a, b = Bag(size=4, duration=100.0), Bag(size=4, duration=100.0)
        composite = ConcurrentPatterns([a, b])
        handle.run(composite)
        starts = [u.timestamps["EXECUTING"] for u in composite.units]
        stops = [u.timestamps["AGENT_STAGING_OUTPUT"] for u in composite.units]
        # All 8 tasks (4+4) fit the 8-core pilot at once -> single wave.
        assert max(stops) - min(starts) < 150.0

    def test_sal_barriers_hold_within_concurrency(self, sim_handle_factory):
        """A SAL's internal barrier is not broken by a concurrent bag."""
        handle = sim_handle_factory(cores=16)
        sal = SAL(duration=50.0)
        bag = Bag(size=8, duration=10.0)
        composite = ConcurrentPatterns([sal, bag])
        handle.run(composite)
        for iteration in (1, 2):
            sims = [
                u for u in sal.units
                if u.description.tags.get("phase") == "sim"
                and u.description.tags.get("iteration") == iteration
            ]
            anas = [
                u for u in sal.units
                if u.description.tags.get("phase") == "ana"
                and u.description.tags.get("iteration") == iteration
            ]
            last_sim = max(u.timestamps["AGENT_STAGING_OUTPUT"] for u in sims)
            first_ana = min(u.timestamps["EXECUTING"] for u in anas)
            assert first_ana >= last_sim

    def test_failure_in_one_constituent_reported(self, local_handle):
        class Failing(BagOfTasks):
            def task(self, instance):
                kernel = Kernel(name="misc.ccount")
                kernel.arguments = ["--inputfile=no.txt", "--outputfile=o"]
                return kernel

        good, bad = Bag(size=2), Failing(size=1)
        composite = ConcurrentPatterns([good, bad])
        with pytest.raises(PatternError, match="concurrent"):
            local_handle.run(composite)
        assert all(u.state is UnitState.DONE for u in good.units)
        assert bad.failed_units

    def test_profile_has_child_pattern_events(self, sim_handle_factory):
        handle = sim_handle_factory()
        bag, sal = Bag(size=2), SAL()
        composite = ConcurrentPatterns([bag, sal])
        handle.run(composite)
        prof = handle.profile
        for child in (bag, sal):
            assert prof.first("entk_pattern_start", child.uid) is not None
            assert prof.last("entk_pattern_stop", child.uid) is not None
