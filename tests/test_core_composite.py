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
                event.time for event in handle.profile.events("units_state")
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


# -- driver errors ------------------------------------------------------------

#: A composite with a one-pipeline EoP whose ``stage_2`` hook raises, and a
#: one-task bag beside it: at the top level in either order, and as the
#: middle step of a sequence.  (A sequence cannot nest in a concurrent
#: group; ``test_nesting_rules`` pins that.)
_ERROR_CASE = '''
import json, sys, tempfile, threading, time

from repro.core.kernel_plugin import Kernel
from repro.core.patterns import (
    BagOfTasks, ConcurrentPatterns, EnsembleOfPipelines, PatternSequence,
)
from repro.core.resource_handle import ResourceHandle


def _sleep():
    kernel = Kernel(name="misc.sleep")
    kernel.arguments = ["--duration=0"]
    return kernel


class BadEoP(EnsembleOfPipelines):
    def stage_1(self, instance):
        return _sleep()

    def stage_2(self, instance):
        raise RuntimeError("stage_2 hook failed")


class OneBag(BagOfTasks):
    def task(self, instance):
        return _sleep()


def composite(shape):
    members = [BadEoP(ensemble_size=1, pipeline_size=2), OneBag(size=1)]
    if shape == "reversed":
        members.reverse()
    group = ConcurrentPatterns(members)
    if shape == "in-sequence":
        return PatternSequence([OneBag(size=1), group, OneBag(size=1)])
    return group


def run(mode, shape):
    """(error type name, error text, seconds to the error, last step ran)."""
    if mode == "local":
        handle = ResourceHandle("local.localhost", cores=4, walltime=10,
                                mode="local", sandbox=tempfile.mkdtemp())
    else:
        handle = ResourceHandle("xsede.comet", cores=4, walltime=10,
                                mode="sim")
    handle.allocate()
    pattern = composite(shape)
    t0 = time.perf_counter()
    try:
        handle.run(pattern)
        error = None
    except Exception as exc:  # noqa: BLE001 - reported to the test
        error = exc
    elapsed = time.perf_counter() - t0
    handle.deallocate()
    last = pattern.patterns[-1] if shape == "in-sequence" else None
    return (type(error).__name__, str(error), elapsed,
            last is not None and last.executed)


if __name__ == "__main__":
    name, text, elapsed, last_ran = run(sys.argv[1], sys.argv[2])
    threads = [t.name for t in threading.enumerate()
               if t.name.startswith("unit-exec")]
    print(json.dumps([name, text, elapsed, last_ran, threads]))
'''

_SHAPES = ["concurrent", "reversed", "in-sequence"]


def _error_case_module(tmp_path):
    path = tmp_path / "error_case.py"
    path.write_text(_ERROR_CASE)
    return path


class TestCompositeErrors:
    """A driver callback's error ends the whole composite at once, with
    the callback's own exception, whichever constituent raised it."""

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_sim_composite_raises_the_hook_error(self, shape, tmp_path,
                                                 monkeypatch):
        import importlib

        monkeypatch.syspath_prepend(str(tmp_path))
        _error_case_module(tmp_path)
        case = importlib.import_module("error_case")
        name, text, _, last_ran = case.run("sim", shape)
        assert (name, text) == ("RuntimeError", "stage_2 hook failed")
        assert not last_ran

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_local_composite_raises_the_hook_error(self, shape, tmp_path):
        """Run in a subprocess with a timeout, so that a composite that
        waits forever fails the test instead of hanging it, and so that
        an executor thread left alive keeps the process from exiting."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, str(_error_case_module(tmp_path)), "local", shape],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 0, done.stderr
        name, text, elapsed, last_ran, threads = json.loads(done.stdout)
        assert (name, text) == ("RuntimeError", "stage_2 hook failed")
        assert elapsed < 1.0
        assert not last_ran
        # No executor thread outlives handle.deallocate().
        assert threads == []
