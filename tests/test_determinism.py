"""Determinism regression: identical seeds must yield identical traces.

The simulator's determinism promise is the foundation of every ablation
in ``repro.experiments``: a run is a pure function of (workload, resource,
seed).  Fault injection is the easiest place to break that promise — a
single unseeded draw or an event ordered by wall clock would surface
here — so these tests replay whole EoP/EE/SAL experiments, faults and
all, and compare the *complete* profiler traces event by event.
"""

import pytest

from repro.core.kernel_plugin import Kernel
from repro.core.patterns import (
    BagOfTasks,
    EnsembleExchange,
    EnsembleOfPipelines,
    SimulationAnalysisLoop,
)
from repro.core.resource_handle import ResourceHandle
from repro.pilot.retry import RetryPolicy
from repro.utils.ids import reset_id_counters


def _sleep(duration):
    kernel = Kernel(name="misc.sleep")
    kernel.arguments = [f"--duration={duration}"]
    return kernel


class TwoStageEoP(EnsembleOfPipelines):
    def stage_1(self, instance):
        return _sleep(40)

    def stage_2(self, instance):
        return _sleep(20)


class SleepEE(EnsembleExchange):
    def simulation_stage(self, iteration, instance):
        return _sleep(30)

    def exchange_stage(self, iteration, instances):
        return _sleep(5)


class SleepSAL(SimulationAnalysisLoop):
    def simulation_stage(self, iteration, instance):
        return _sleep(30)

    def analysis_stage(self, iteration, instance):
        return _sleep(10)


class FaultedBag(BagOfTasks):
    retry_policy = RetryPolicy(
        max_attempts=8, backoff_base=2.0, backoff_factor=2.0,
        backoff_cap=60.0, jitter=0.5, exclude_failed_nodes=False,
    )

    def task(self, instance):
        return _sleep(100)


def trace(pattern_factory, seed=0, cores=32, **handle_kwargs):
    """Run one pattern from a clean id-counter state; return its trace.

    Traces embed generated uids, so byte-identical replay requires the
    global id counters to restart with every run.
    """
    reset_id_counters()
    handle = ResourceHandle(
        "xsede.comet", cores=cores, walltime=600, mode="sim",
        seed=seed, **handle_kwargs,
    )
    handle.allocate()
    try:
        handle.run(pattern_factory())
    finally:
        handle.deallocate()
    return list(handle.profile)


FAULT_KWARGS = dict(
    node_mtbf=120.0,
    node_repair_time=120.0,
    retry_policy=RetryPolicy(
        max_attempts=8, backoff_base=2.0, backoff_factor=2.0,
        backoff_cap=60.0, jitter=0.5, exclude_failed_nodes=False,
    ),
)


class TestSameSeedSameTrace:
    """Same seed, same workload, faults enabled → bit-identical traces."""

    def test_eop_with_node_faults(self):
        make = lambda: TwoStageEoP(ensemble_size=48, pipeline_size=2)
        first = trace(make, seed=7, **FAULT_KWARGS)
        second = trace(make, seed=7, **FAULT_KWARGS)
        assert any(ev.name == "node_fail" for ev in first), (
            "fixture must actually exercise the fault machinery"
        )
        assert first == second

    def test_ee_with_node_faults(self):
        make = lambda: SleepEE(ensemble_size=32, iterations=2)
        first = trace(make, seed=3, **FAULT_KWARGS)
        second = trace(make, seed=3, **FAULT_KWARGS)
        assert first == second

    def test_sal_with_node_faults(self):
        make = lambda: SleepSAL(iterations=2, simulation_instances=32)
        first = trace(make, seed=5, **FAULT_KWARGS)
        second = trace(make, seed=5, **FAULT_KWARGS)
        assert first == second

    def test_bag_with_task_and_node_faults(self):
        """Both failure domains plus jittered backoff, replayed exactly."""
        make = lambda: FaultedBag(size=64)
        kwargs = dict(FAULT_KWARGS, fault_rate=0.2)
        first = trace(make, seed=11, **kwargs)
        second = trace(make, seed=11, **kwargs)
        assert any(ev.name == "task_fault" for ev in first)
        assert first == second

    def test_pilot_resubmission_is_deterministic(self):
        make = lambda: FaultedBag(size=64)
        kwargs = dict(FAULT_KWARGS, pilot_mtbf=150.0, max_pilot_resubmits=10)
        first = trace(make, seed=0, **kwargs)
        second = trace(make, seed=0, **kwargs)
        assert any(ev.name == "pilot_resubmit" for ev in first)
        assert first == second


class TestDifferentSeedDifferentTrace:
    def test_seed_changes_fault_schedule(self):
        make = lambda: TwoStageEoP(ensemble_size=48, pipeline_size=2)
        first = trace(make, seed=7, **FAULT_KWARGS)
        other = trace(make, seed=8, **FAULT_KWARGS)
        assert first != other


class TestFaultsOffIsABitIdenticalNoOp:
    """Disabled fault machinery must not perturb pre-existing traces.

    A run with every fault knob at its default must be indistinguishable
    from one where the knobs are passed explicitly as disabled — no extra
    stream draws, no extra events.  This pins the promise that merely
    *having* the fault subsystem does not change any published result.
    """

    def test_explicit_zeros_match_defaults(self):
        make = lambda: TwoStageEoP(ensemble_size=48, pipeline_size=2)
        plain = trace(make, seed=7)
        disabled = trace(
            make, seed=7,
            node_mtbf=0.0, pilot_mtbf=0.0, max_pilot_resubmits=0,
            retry_policy=None,
        )
        assert plain == disabled

    def test_retry_policy_alone_changes_nothing(self):
        """An armed policy with no faults to absorb must leave no trace."""
        make = lambda: SleepEE(ensemble_size=32, iterations=2)
        plain = trace(make, seed=3)
        with_policy = trace(
            make, seed=3,
            retry_policy=RetryPolicy(max_attempts=5, backoff_base=3.0),
        )
        assert plain == with_policy

    def test_no_fault_events_when_disabled(self):
        events = trace(lambda: SleepSAL(2, 16), seed=1)
        names = {ev.name for ev in events}
        assert not names & {
            "node_fail", "node_repair", "unit_node_kill", "unit_pilot_kill",
            "unit_requeue", "pilot_fault", "pilot_resubmit", "agent_suspend",
            "agent_abort", "task_fault", "entk_task_retry",
        }


class TestGoldenTraceHashes:
    """Pinned Chrome-export digests: cross-*version* determinism.

    The same-seed tests above prove two runs of the *current* code
    match each other; these golden hashes additionally pin the trace
    bytes across code changes.  They were captured before the indexed
    scheduler / event-loop rewrite and must survive any optimization
    that claims to be behavior-preserving.  If a PR changes them on
    purpose (a genuine semantic change to scheduling or tracing), it
    must say so and re-pin.
    """

    GOLDEN = {
        "eop_plain_seed7":
            "c0cd596b7bd02e5d72b02a74070e837c2c8914feb19349a662bdff450120688f",
        "eop_faults_seed7":
            "430cdc69a93faae35b57bf9994dfe47009d14b5f8e1f118528758712203e776a",
        "ee_faults_seed3":
            "1e3eca2779e8ebf2201ea95b8b7f7fb6cf1066b99e850f0caf730d500c7a8b2f",
        "bag_task_node_faults_seed11":
            "59576605cc611f1fafef1b386fa985fc273163456bf33ded972e856ba4c9efd8",
    }

    @staticmethod
    def _digest(events):
        import hashlib
        import json

        from repro.telemetry.export import chrome_trace

        payload = json.dumps(
            chrome_trace(events), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def test_eop_plain_seed7(self):
        events = trace(
            lambda: TwoStageEoP(ensemble_size=48, pipeline_size=2), seed=7
        )
        assert self._digest(events) == self.GOLDEN["eop_plain_seed7"]

    def test_eop_faults_seed7(self):
        events = trace(
            lambda: TwoStageEoP(ensemble_size=48, pipeline_size=2),
            seed=7, **FAULT_KWARGS,
        )
        assert self._digest(events) == self.GOLDEN["eop_faults_seed7"]

    def test_ee_faults_seed3(self):
        events = trace(
            lambda: SleepEE(ensemble_size=32, iterations=2),
            seed=3, **FAULT_KWARGS,
        )
        assert self._digest(events) == self.GOLDEN["ee_faults_seed3"]

    def test_bag_task_node_faults_seed11(self):
        events = trace(
            lambda: FaultedBag(size=64),
            seed=11, fault_rate=0.2, **FAULT_KWARGS,
        )
        assert self._digest(events) == self.GOLDEN[
            "bag_task_node_faults_seed11"
        ]


class TestGoldenTraceHashesBatched:
    """Pinned digests of batched (``bulk_lifecycle=True``) runs with faults.

    Batching is a trace-granularity policy over the one unit lifecycle,
    so a batched trace is as deterministic as a per-unit one — node kills,
    requeues and task faults included.  Each case is pinned resident and
    spooled; the per-unit goldens above are unaffected by these.
    """

    GOLDEN = {
        "eop_bulk_node_faults_seed7":
            "1d8b074ebdd75f03d2019269d0356914acd6218a0f585dd554c94daf9cdcbc5d",
        "bag_bulk_task_faults_seed11":
            "6c153c75d11f3fca186f4fb2580d6957fef5e485ebebe729e1820b79a0e4a482",
    }

    CASES = {
        "eop_bulk_node_faults_seed7": (
            lambda: TwoStageEoP(ensemble_size=48, pipeline_size=2),
            dict(seed=7, **FAULT_KWARGS), "unit_node_kill",
        ),
        "bag_bulk_task_faults_seed11": (
            lambda: FaultedBag(size=64), dict(seed=11, fault_rate=0.2),
            "task_fault",
        ),
    }

    @pytest.mark.parametrize("spooled", [False, True], ids=["resident", "spooled"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_batched_trace_matches_golden(self, case, spooled, tmp_path):
        make, kwargs, fault_event = self.CASES[case]
        if spooled:
            kwargs = dict(kwargs, spool_dir=tmp_path)
        events = trace(make, bulk_lifecycle=True, **kwargs)
        names = {ev.name for ev in events}
        assert fault_event in names and "units_state" in names
        assert TestGoldenTraceHashes._digest(events) == self.GOLDEN[case]


class TestGoldenTraceHashesSpooled(TestGoldenTraceHashes):
    """The same pinned digests with the trace streamed to a spool file.

    Spooling must be a pure representation change: the NDJSON round-trip
    (``repr`` floats, revived :class:`ProfileEvent` rows) may not perturb
    a single byte of the Chrome export.  Each test hashes the trace twice
    — once from the live profiler view and once re-read from the spool
    file on disk — against the unchanged golden pins.
    """

    def test_spooled_trace_matches_golden_twice(self, tmp_path):
        reset_id_counters()
        handle = ResourceHandle(
            "xsede.comet", cores=32, walltime=600, mode="sim",
            seed=7, spool_dir=tmp_path, **FAULT_KWARGS,
        )
        handle.allocate()
        try:
            handle.run(TwoStageEoP(ensemble_size=48, pipeline_size=2))
        finally:
            handle.deallocate()
        live = list(handle.profile)
        assert self._digest(live) == self.GOLDEN["eop_faults_seed7"]

        import json as _json

        from repro.telemetry.sink import revive

        spool = handle.session.spool_path
        assert spool is not None and spool.exists()
        with spool.open() as stream:
            revived = [revive(_json.loads(line)) for line in stream]
        assert revived == live
        assert self._digest(revived) == self.GOLDEN["eop_faults_seed7"]

    def test_eop_plain_seed7(self, tmp_path):
        events = trace(
            lambda: TwoStageEoP(ensemble_size=48, pipeline_size=2),
            seed=7, spool_dir=tmp_path,
        )
        assert self._digest(events) == self.GOLDEN["eop_plain_seed7"]

    def test_eop_faults_seed7(self, tmp_path):
        events = trace(
            lambda: TwoStageEoP(ensemble_size=48, pipeline_size=2),
            seed=7, spool_dir=tmp_path, **FAULT_KWARGS,
        )
        assert self._digest(events) == self.GOLDEN["eop_faults_seed7"]

    def test_ee_faults_seed3(self, tmp_path):
        events = trace(
            lambda: SleepEE(ensemble_size=32, iterations=2),
            seed=3, spool_dir=tmp_path, **FAULT_KWARGS,
        )
        assert self._digest(events) == self.GOLDEN["ee_faults_seed3"]

    def test_bag_task_node_faults_seed11(self, tmp_path):
        events = trace(
            lambda: FaultedBag(size=64),
            seed=11, fault_rate=0.2, spool_dir=tmp_path, **FAULT_KWARGS,
        )
        assert self._digest(events) == self.GOLDEN[
            "bag_task_node_faults_seed11"
        ]
