"""Tests for the resource handle lifecycle and the TTC breakdown."""

import pytest
from hypothesis import given, strategies as st

from repro.core.kernel_plugin import Kernel
from repro.core.patterns import BagOfTasks
from repro.core.profiler import breakdown_from_profile
from repro.core.resource_handle import ResourceHandle, SingleClusterEnvironment
from repro.exceptions import ResourceHandleError
from repro.telemetry.analysis import interval_length


class Bag(BagOfTasks):
    def __init__(self, size=3, duration=0.0):
        super().__init__(size=size)
        self.duration = duration

    def task(self, instance):
        kernel = Kernel(name="misc.sleep")
        kernel.arguments = [f"--duration={self.duration}"]
        return kernel


class TestLifecycle:
    def test_alias_matches_paper_name(self):
        assert SingleClusterEnvironment is ResourceHandle

    def test_mode_defaults(self):
        assert ResourceHandle("local.localhost", 2, 5).mode == "local"
        assert ResourceHandle("xsede.comet", 2, 5).mode == "sim"

    def test_run_before_allocate_rejected(self):
        handle = ResourceHandle("local.localhost", 2, 5)
        with pytest.raises(ResourceHandleError, match="not allocated"):
            handle.run(Bag())

    def test_double_allocate_rejected(self, local_handle):
        with pytest.raises(ResourceHandleError, match="already allocated"):
            local_handle.allocate()

    def test_run_after_deallocate_rejected(self):
        handle = ResourceHandle("xsede.comet", 8, 60, mode="sim")
        handle.allocate()
        handle.deallocate()
        with pytest.raises(ResourceHandleError):
            handle.run(Bag())
        handle.deallocate()  # idempotent

    def test_context_manager(self):
        with ResourceHandle("xsede.comet", 8, 60, mode="sim") as handle:
            pattern = Bag()
            handle.run(pattern)
        assert handle.deallocated
        assert pattern.executed

    def test_pilot_active_after_allocate(self, sim_handle_factory):
        handle = sim_handle_factory()
        assert handle.pilot.state.value == "ACTIVE"

    def test_multiple_patterns_per_allocation(self, local_handle):
        first, second = Bag(size=2), Bag(size=2)
        local_handle.run(first)
        local_handle.run(second)
        assert first.executed and second.executed


class TestBreakdown:
    def test_sim_core_overhead_matches_model(self, sim_handle_factory):
        handle = sim_handle_factory()
        pattern = Bag(size=4, duration=10.0)
        handle.run(pattern)
        handle.deallocate()
        breakdown = breakdown_from_profile(handle.profile, pattern)
        expected = handle.overheads.core_overhead
        assert breakdown.core_overhead == pytest.approx(expected, rel=0.01)

    def test_sim_execution_time_matches_duration(self, sim_handle_factory):
        handle = sim_handle_factory()
        pattern = Bag(size=4, duration=25.0)
        handle.run(pattern)
        breakdown = breakdown_from_profile(handle.profile, pattern)
        assert breakdown.execution_time == pytest.approx(25.0, rel=0.05)
        assert breakdown.ntasks == 4

    def test_pattern_overhead_grows_with_tasks(self, sim_handle_factory):
        overheads = []
        for n in (8, 64):
            handle = sim_handle_factory(cores=64)
            pattern = Bag(size=n, duration=1.0)
            handle.run(pattern)
            overheads.append(
                breakdown_from_profile(handle.profile, pattern).pattern_overhead
            )
        assert overheads[1] > overheads[0]

    def test_breakdown_requires_executed_pattern(self, sim_handle_factory):
        handle = sim_handle_factory()
        with pytest.raises(ValueError, match="no units"):
            breakdown_from_profile(handle.profile, Bag())

    def test_ttc_covers_components(self, sim_handle_factory):
        handle = sim_handle_factory()
        pattern = Bag(size=4, duration=10.0)
        handle.run(pattern)
        breakdown = breakdown_from_profile(handle.profile, pattern)
        assert breakdown.ttc >= breakdown.execution_time
        assert breakdown.makespan >= breakdown.execution_time
        assert breakdown.runtime_overhead >= 0.0


class TestMergeIntervals:
    def test_disjoint(self):
        assert interval_length([(0, 1), (2, 3)]) == pytest.approx(2.0)

    def test_overlapping(self):
        assert interval_length([(0, 2), (1, 3)]) == pytest.approx(3.0)

    def test_nested(self):
        assert interval_length([(0, 10), (2, 5)]) == pytest.approx(10.0)

    def test_empty(self):
        assert interval_length([]) == 0.0

    def test_sums_pieces_left_to_right(self):
        """Plain sequential addition, never compensated summation: each
        +1.0 is lost against 2**53, as in the Fig. 3 execution time's
        historical loop (compensated summation would give 2**53 + 2)."""
        pieces = [(-(2.0**53), 0.0), (1.0, 2.0), (3.0, 4.0)]
        assert interval_length(pieces) == 2.0**53

    @given(
        intervals=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ).map(lambda t: (min(t), max(t))),
            max_size=40,
        )
    )
    def test_property_union_bounds(self, intervals):
        """Union length is between max single length and the sum of lengths,
        and never exceeds the overall span."""
        union = interval_length(intervals)
        lengths = [b - a for a, b in intervals]
        assert union <= sum(lengths) + 1e-9
        if intervals:
            assert union >= max(lengths) - 1e-9
            span = max(b for _, b in intervals) - min(a for a, _ in intervals)
            assert union <= span + 1e-9
        else:
            assert union == 0.0
