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


class WideBag(BagOfTasks):
    """Tasks of widths 1-16 cores (MPI when wider than one core)."""

    def task(self, instance):
        kernel = _sleep(20 + (instance * 7) % 31)
        kernel.cores = 1 + (instance * 5) % 16
        kernel.uses_mpi = kernel.cores > 1
        return kernel


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


#: Mixed widths on a 96-core pilot (a sixth of the bag's demand) under
#: node faults, with retries that exclude the nodes that killed them: the
#: backfill pass probes many widths and requeued units wait with
#: exclusion lists.
EXCLUSION_KWARGS = dict(
    cores=96,
    slot_strategy="contiguous",
    node_mtbf=150.0,
    node_repair_time=120.0,
    retry_policy=RetryPolicy(
        max_attempts=8, backoff_base=2.0, backoff_cap=30.0,
        exclude_failed_nodes=True,
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


#: The per-unit runs :class:`TestGoldenTraceHashes` pins the Chrome export
#: of, as (pattern factory, handle keywords).
GOLDEN_RUNS = {
    "eop_plain_seed7": (lambda: TwoStageEoP(ensemble_size=48, pipeline_size=2),
                        dict(seed=7)),
    "eop_faults_seed7": (lambda: TwoStageEoP(ensemble_size=48, pipeline_size=2),
                         dict(seed=7, **FAULT_KWARGS)),
    "ee_faults_seed3": (lambda: SleepEE(ensemble_size=32, iterations=2),
                        dict(seed=3, **FAULT_KWARGS)),
    "bag_task_node_faults_seed11": (lambda: FaultedBag(size=64),
                                    dict(seed=11, fault_rate=0.2,
                                         **FAULT_KWARGS)),
    "wide_bag_exclusion_seed1": (lambda: WideBag(size=64),
                                 dict(seed=1, **EXCLUSION_KWARGS)),
}

#: Two more runs :class:`TestGoldenTraceHashes` pins the Chrome export of,
#: with no pinned projections: task faults alone, and pilot deaths.
HASH_ONLY_RUNS = {
    "bag_task_faults_seed11": (lambda: FaultedBag(size=64),
                               dict(seed=11, fault_rate=0.2)),
    "bag_pilot_faults_seed0": (lambda: FaultedBag(size=64),
                               dict(seed=0, pilot_mtbf=150.0,
                                    max_pilot_resubmits=10, **FAULT_KWARGS)),
}


class TestGoldenProjections:
    """Pinned order-insensitive projections of the per-unit golden runs.

    The Chrome-export digests below pin the order of events within a
    timestamp too.  These pins (:mod:`tests.trace_projections`) do not:
    each unit's state and slot events with their times, the multiset of
    all events, the span set, the critical path, the Fig. 3 breakdown,
    the fault summary and every metric's value at the end of each
    distinct event time.  A change that reorders events within a
    timestamp on purpose re-pins the digests, never these.
    """

    GOLDEN = {
        "bag_task_node_faults_seed11": {
            "states": "0ab42517023bb53d",
            "slots": "a75c4bdf562b8912",
            "events": "8132d125c26ebcd6",
            "spans": "991de94a1b180dec",
            "faults": "824b81918ea2f971",
            "metrics": "235d8daae6f64e33",
            "critical_path": "660941603853fe3d",
            "breakdown": "bf5ecd547960be26",
        },
        "ee_faults_seed3": {
            "states": "328dc48a59ef296e",
            "slots": "e0eccc12bdac2d15",
            "events": "5ee73257887fdcdc",
            "spans": "34fd9841da887670",
            "faults": "99a9adeb3f8e41d7",
            "metrics": "f9951ad2d84dce65",
            "critical_path": "12c90a3b96096f62",
            "breakdown": "6b6605e9888aa295",
        },
        "eop_faults_seed7": {
            "states": "a2b3582acee5e961",
            "slots": "55028a34ffd34db6",
            "events": "eee006faed9d5230",
            "spans": "f28b8abfd3965987",
            "faults": "4fcf59a04002fae5",
            "metrics": "538dfdf8e2d775bc",
            "critical_path": "be55a171356eb851",
            "breakdown": "3cefb46aafb1554c",
        },
        "eop_plain_seed7": {
            "states": "96c8f0cc71630bf8",
            "slots": "035a5f70d2d754f8",
            "events": "a0fa9c5a2f6bb6c2",
            "spans": "38315b571ea7880b",
            "faults": "99a9adeb3f8e41d7",
            "metrics": "eead1975a16d232d",
            "critical_path": "31b03406a94b4001",
            "breakdown": "b94333fe2bc67dbe",
        },
        "wide_bag_exclusion_seed1": {
            "states": "a3f94055c45d9519",
            "slots": "ff6abaa4ed5febb6",
            "events": "b6e0cbaf7f55e99f",
            "spans": "a439f2ceb942a552",
            "faults": "b87f757b3a9c0aef",
            "metrics": "00f66752f41b1dde",
            "critical_path": "4634bedd19f90cad",
            "breakdown": "cce6d10fb8d673e7",
        },
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN_RUNS))
    def test_projections_match_golden(self, case):
        from tests.trace_projections import digests, project

        make, kwargs = GOLDEN_RUNS[case]
        kwargs = dict(kwargs)
        pattern = make()
        events = trace(lambda: pattern, **kwargs)
        assert digests(project(events, pattern)) == self.GOLDEN[case]


class TestGoldenTraceHashes:
    """Pinned Chrome-export digests: cross-*version* determinism.

    The same-seed tests above prove two runs of the *current* code
    match each other; these golden hashes additionally pin the trace
    bytes across code changes.  They were captured before the indexed
    scheduler / event-loop rewrite and must survive any optimization
    that claims to be behavior-preserving.  If a PR changes them on
    purpose (a genuine semantic change to scheduling or tracing), it
    must say so and re-pin.

    Last re-pinned when the per-unit trace format was removed: each
    unit list is now one batch event that names its members, so a
    derived gauge moves once per list instead of once per unit, and the
    export's counter tracks hold fewer points.  Every span, instant and
    metadata event of each export is unchanged, and so is each counter's
    last value at every timestamp (checked against the previous code's
    exports before re-pinning).  :class:`TestGoldenProjections` pins, from
    before that change, what must not move (every unit's lifecycle
    records and times, the event multiset, spans, critical path,
    breakdown, fault summary and metric values), and
    ``tests/test_agent_telemetry.py`` checks that each pinned run implies
    what the agent's former emitters recorded.

    The :data:`HASH_ONLY_RUNS` were pinned while batch events were a
    trace option, and last re-pinned when batch events began naming their
    members, so their exports gained each unit's phase spans.
    """

    GOLDEN = {
        "eop_plain_seed7":
            "3e638af213c2aab8cb452fac1d0a5e4c01a8b26dd6cacd50527a868f4e31f148",
        "eop_faults_seed7":
            "d91c71a5664422cd962c15af2c11ea796cfe2537bdeb008be631bf03cce930ff",
        "ee_faults_seed3":
            "bfbdfd3cd4a4e9cbfba4db75b8f6152505994d593dc4b6eaccfa1dedeaf79028",
        "bag_task_node_faults_seed11":
            "dc2c4bca9cca3b1be2792ebe47f99aea205e33c16954b89095e11e41df0665fd",
        "wide_bag_exclusion_seed1":
            "2c9faef87582d2b29a19d60957e54f467eb0642f2ca3162cd7faae8026a7ec66",
        "bag_task_faults_seed11":
            "7919e5aaa016971257ef0c1fb8e25d224c407fe38e62f6e6b0b33cfcaa573da8",
        "bag_pilot_faults_seed0":
            "b32f61f3f69486a6e6849693d38a9f8e8c66fa143cc3d764879712c0b60e899a",
    }

    #: Whether each run streams its trace to a spool file.
    spooled = False

    def _trace(self, make, tmp_path, **kwargs):
        if self.spooled:
            kwargs["spool_dir"] = tmp_path
        return trace(make, **kwargs)

    @staticmethod
    def _digest(events):
        import hashlib
        import json

        from repro.telemetry.export import chrome_trace

        payload = json.dumps(
            chrome_trace(events), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    @staticmethod
    def _assert_names(events, *names):
        assert set(names) <= {ev.name for ev in events}

    def test_eop_plain_seed7(self, tmp_path):
        events = self._trace(
            lambda: TwoStageEoP(ensemble_size=48, pipeline_size=2), tmp_path,
            seed=7,
        )
        assert self._digest(events) == self.GOLDEN["eop_plain_seed7"]

    def test_eop_faults_seed7(self, tmp_path):
        events = self._trace(
            lambda: TwoStageEoP(ensemble_size=48, pipeline_size=2), tmp_path,
            seed=7, **FAULT_KWARGS,
        )
        self._assert_names(events, "unit_node_kill", "units_state")
        assert self._digest(events) == self.GOLDEN["eop_faults_seed7"]

    def test_ee_faults_seed3(self, tmp_path):
        events = self._trace(
            lambda: SleepEE(ensemble_size=32, iterations=2), tmp_path,
            seed=3, **FAULT_KWARGS,
        )
        assert self._digest(events) == self.GOLDEN["ee_faults_seed3"]

    def test_bag_task_node_faults_seed11(self, tmp_path):
        events = self._trace(
            lambda: FaultedBag(size=64), tmp_path,
            seed=11, fault_rate=0.2, **FAULT_KWARGS,
        )
        assert self._digest(events) == self.GOLDEN[
            "bag_task_node_faults_seed11"
        ]

    def test_wide_bag_exclusion_seed1(self, tmp_path):
        events = self._trace(
            lambda: WideBag(size=64), tmp_path, seed=1, **EXCLUSION_KWARGS,
        )
        self._assert_names(events, "unit_node_kill", "unit_requeue")
        assert self._digest(events) == self.GOLDEN["wide_bag_exclusion_seed1"]

    def test_bag_task_faults_seed11(self, tmp_path):
        make, kwargs = HASH_ONLY_RUNS["bag_task_faults_seed11"]
        events = self._trace(make, tmp_path, **kwargs)
        self._assert_names(events, "task_fault", "units_state")
        assert self._digest(events) == self.GOLDEN["bag_task_faults_seed11"]

    def test_bag_pilot_faults_seed0(self, tmp_path):
        make, kwargs = HASH_ONLY_RUNS["bag_pilot_faults_seed0"]
        events = self._trace(make, tmp_path, **kwargs)
        self._assert_names(events, "unit_pilot_kill", "units_state")
        assert self._digest(events) == self.GOLDEN["bag_pilot_faults_seed0"]


#: The ``eop_faults_seed7`` run under the name it was pinned by while batch
#: events were a trace option (``eop_bulk_node_faults_seed7``).
BATCHED_RUNS = {"eop_bulk_node_faults_seed7": GOLDEN_RUNS["eop_faults_seed7"]}


class TestGoldenTraceHashesBatched:
    """The :data:`BATCHED_RUNS`, resident and spooled, against the digest
    they were pinned to as batched runs.

    With one trace format left this is the ``eop_faults_seed7`` run, and
    its pin equals that run's.
    """

    @pytest.mark.parametrize("spooled", [False, True], ids=["resident", "spooled"])
    @pytest.mark.parametrize("case", sorted(BATCHED_RUNS))
    def test_batched_trace_matches_golden(self, case, spooled, tmp_path):
        make, kwargs = BATCHED_RUNS[case]
        if spooled:
            kwargs = dict(kwargs, spool_dir=tmp_path)
        events = trace(make, **kwargs)
        TestGoldenTraceHashes._assert_names(events, "unit_node_kill",
                                            "units_state")
        assert TestGoldenTraceHashes._digest(events) == (
            TestGoldenTraceHashes.GOLDEN["eop_faults_seed7"]
        )


class TestGoldenTraceHashesSpooled(TestGoldenTraceHashes):
    """The same pinned digests with the trace streamed to a spool file.

    Spooling must be a pure representation change: the NDJSON round-trip
    (``repr`` floats, revived :class:`ProfileEvent` rows) may not perturb
    a single byte of the Chrome export.  Every inherited test runs
    spooled; one more hashes the trace twice — once from the live
    profiler view and once re-read from the spool file on disk — against
    the unchanged golden pins.
    """

    spooled = True

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
