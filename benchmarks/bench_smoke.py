"""Reduced micro-benchmark smoke run: seeds the perf trajectory.

Runs shrunken versions of the ``bench_runtime_micro.py`` cases without
needing pytest-benchmark and emits ``BENCH_micro.json`` — one record per
case::

    {"bench": <name>, "config": {...}, "wall_s": <float>,
     "peak_kb": <float>, "sim_ttc_s": <float>}

``wall_s`` is this machine's wall time (informational, machine-dependent);
``peak_kb`` is the tracemalloc peak of one dedicated pass (informational,
non-gating — measured separately so the allocation tracer never pollutes
``wall_s``); ``sim_ttc_s`` is the *virtual* outcome of the same run, which
is a pure function of (workload, seed) and therefore must match the
committed baseline bit-for-bit on every machine.  ``--check`` verifies
exactly that, giving CI a cheap end-to-end regression gate over the DES,
the pilot state model, the batch queue and the pattern layer.

``--spool DIR`` additionally reruns the EoP case with the trace streamed
to an NDJSON spool file in DIR (kept as a CI artifact) and gates that the
spooled run's virtual outcome is identical, and that its batch events
name each unit at most ``MAX_EVENTS_PER_UNIT`` times (a unit's lifecycle
is in the trace once; gauges and phase spans are derived on read).

``sched_pressure_faults`` reruns the contended mixed-width case under
node faults with a retry policy that excludes failed nodes, so the
scheduler's exclusion-list path is gated too.

Every run gates that the ``pattern_eop`` case steps exactly
``PATTERN_EOP_DES_EVENTS`` DES events, the count both trace
granularities stepped while a session could still write one event per
unit: every lifecycle list moves as one batch, so a run that moved units
one at a time would step several events per unit and fail here.

``pattern_eop_bulk_faults`` runs the EoP case on two nodes under node
faults and a retry policy, and gates that its unit store holds no more
distinct description objects than the distinct kernel signatures the
pattern submitted plus its task retries (units of one signature share
one description).  Its ``sim_ttc_s`` was pinned equal for both trace
granularities.

``local_bag`` really runs a 200-task ``misc.sleep --duration=0`` bag on
4 local cores and fails unless every run ends all DONE with equal
results.  It is a wall-clock run: its ``wall_s`` is the runtime's own
overhead, and its ``sim_ttc_s`` is null, which ``--check`` compares
like any other value.

Usage::

    PYTHONPATH=src python benchmarks/bench_smoke.py -o BENCH_micro.json
    PYTHONPATH=src python benchmarks/bench_smoke.py --check BENCH_micro.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

from repro.utils.ids import reset_id_counters

#: Times the spooled EoP case's batch events may name one unit.
MAX_EVENTS_PER_UNIT = 10

#: DES events of the ``pattern_eop`` case, as both trace granularities
#: stepped them.
PATTERN_EOP_DES_EVENTS = 13


def bench_des_event_throughput() -> tuple[dict, float]:
    from repro.eventsim import Simulator

    n = 5000
    sim = Simulator()
    for i in range(n):
        sim.schedule(float(i % 97), lambda: None)
    sim.run()
    assert sim.events_processed == n
    return {"events": n}, sim.now


def bench_pilot_unit_churn() -> tuple[dict, float]:
    from repro.pilot import (
        ComputePilotDescription,
        ComputeUnitDescription,
        PilotManager,
        Session,
        UnitManager,
    )

    n, cores = 200, 128
    session = Session(mode="sim", platform="xsede.stampede")
    pmgr = PilotManager(session)
    pilot = pmgr.submit_pilots(
        ComputePilotDescription(
            resource="xsede.stampede", cores=cores, runtime=600, mode="sim"
        )
    )[0]
    umgr = UnitManager(session)
    umgr.add_pilots(pilot)
    units = umgr.submit_units(
        [
            ComputeUnitDescription(executable="t", modelled_duration=10.0)
            for _ in range(n)
        ]
    )
    umgr.wait_units()
    ttc = session.now()
    pmgr.cancel_pilots()
    session.close()
    assert sum(u.state.value == "DONE" for u in units) == n
    return {"units": n, "cores": cores}, ttc


def bench_batch_scheduler_placement() -> tuple[dict, float]:
    from repro.cluster.batch import BatchScheduler
    from repro.cluster.job import BatchJob
    from repro.cluster.platforms import get_platform
    from repro.eventsim import Simulator

    n = 300
    sim = Simulator()
    scheduler = BatchScheduler(sim, get_platform("xsede.comet"))
    jobs = [
        BatchJob(nodes=1 + (i % 8), walltime=3600.0, duration=60.0 + i % 50)
        for i in range(n)
    ]
    for job in jobs:
        scheduler.submit(job)
    sim.run()
    assert sum(j.state.value == "COMPLETED" for j in jobs) == n
    return {"jobs": n}, sim.now


def bench_sched_pressure(**fault_kwargs) -> tuple[dict, float]:
    """Scheduler-heavy churn: thousands of mixed-width units on 4096 cores.

    Exercises the indexed slot schedulers and the batched wake-up path at
    a scale where the old O(cores) scans dominated (this case took ~250 s
    before the indexed rewrite, ~3.5 s after).  *fault_kwargs* go to the
    session (node faults, retry policy).
    """
    from repro.pilot import (
        ComputePilotDescription,
        ComputeUnitDescription,
        PilotManager,
        Session,
        UnitManager,
    )

    n, cores = 3000, 4096
    session = Session(mode="sim", platform="xsede.stampede", **fault_kwargs)
    pmgr = PilotManager(session)
    pilot = pmgr.submit_pilots(
        ComputePilotDescription(
            resource="xsede.stampede", cores=cores, runtime=600, mode="sim"
        )
    )[0]
    umgr = UnitManager(session)
    umgr.add_pilots(pilot)
    units = umgr.submit_units(
        [
            ComputeUnitDescription(
                executable="t",
                cores=1 + (7 * i) % 16,
                mpi=(7 * i) % 16 > 0,
                modelled_duration=5.0 + (i % 13),
            )
            for i in range(n)
        ]
    )
    umgr.wait_units()
    ttc = session.now()
    pmgr.cancel_pilots()
    session.close()
    assert sum(u.state.value == "DONE" for u in units) == n
    return {"units": n, "cores": cores}, ttc


def bench_sched_pressure_faults() -> tuple[dict, float]:
    """The ``sched_pressure`` case under node faults, with retries that
    exclude the failed node: requeued units wait with exclusion lists."""
    from repro.pilot.retry import RetryPolicy

    faults = dict(node_mtbf=1000.0, node_repair_time=60.0)
    config, ttc = bench_sched_pressure(
        retry_policy=RetryPolicy(max_attempts=20, exclude_failed_nodes=True),
        **faults,
    )
    config.update(faults, max_attempts=20, exclude_failed_nodes=True)
    return config, ttc


def _run_pattern_eop(
    spool_dir: str | None = None, size: int = 16, cores: int = 16,
    **handle_kwargs,
):
    """The EoP case; returns its config, finished handle and pattern."""
    from repro.core.kernel_plugin import Kernel
    from repro.core.patterns import EnsembleOfPipelines
    from repro.core.resource_handle import ResourceHandle

    class EoP(EnsembleOfPipelines):
        def stage_1(self, instance):
            kernel = Kernel(name="misc.sleep")
            kernel.arguments = ["--duration=40"]
            return kernel

        def stage_2(self, instance):
            kernel = Kernel(name="misc.sleep")
            kernel.arguments = ["--duration=20"]
            return kernel

    pattern = EoP(ensemble_size=size, pipeline_size=2)
    handle = ResourceHandle(
        "xsede.comet", cores=cores, walltime=600, mode="sim", seed=0,
        spool_dir=spool_dir, **handle_kwargs,
    )
    handle.allocate()
    try:
        handle.run(pattern)
    finally:
        handle.deallocate()
    return {"ensemble_size": size, "cores": cores}, handle, pattern


def bench_pattern_eop(
    spool_dir: str | None = None, size: int = 16, cores: int = 16,
    **handle_kwargs,
) -> tuple[dict, float]:
    from repro.core.profiler import breakdown_from_profile

    config, handle, pattern = _run_pattern_eop(
        spool_dir, size, cores, **handle_kwargs
    )
    return config, breakdown_from_profile(handle.profile, pattern).ttc


def check_shared_descriptions(name: str, handle, pattern) -> None:
    """Units of one kernel signature share one description object: the
    store may hold one per distinct signature, plus one per task retry."""
    store = handle.session.unit_store
    held = len({id(store.shared_description(i)) for i in range(len(store))})
    signatures = {
        pattern.get_stage(stage, instance).signature()
        for stage in range(1, pattern.pipeline_size + 1)
        for instance in range(1, pattern.ensemble_size + 1)
    }
    retries = len(handle.profile.events("entk_task_retry"))
    if held > len(signatures) + retries:
        raise AssertionError(
            f"{name}: the unit store holds {held} description objects for "
            f"{len(signatures)} kernel signatures and {retries} task retries"
        )


def bench_pattern_eop_faults() -> tuple[dict, float]:
    """The EoP case on two nodes that fail and get repaired, with retries."""
    from repro.core.profiler import breakdown_from_profile
    from repro.pilot.retry import RetryPolicy

    config, handle, pattern = _run_pattern_eop(
        size=48, cores=48, node_mtbf=60.0, node_repair_time=60.0,
        retry_policy=RetryPolicy(max_attempts=8),
    )
    check_shared_descriptions("pattern_eop_bulk_faults", handle, pattern)
    config.update(node_mtbf=60.0, node_repair_time=60.0, max_attempts=8)
    return config, breakdown_from_profile(handle.profile, pattern).ttc


CASES = [
    ("des_event_throughput", bench_des_event_throughput),
    ("pilot_unit_churn", bench_pilot_unit_churn),
    ("batch_scheduler_placement", bench_batch_scheduler_placement),
    ("sched_pressure", bench_sched_pressure),
    ("sched_pressure_faults", bench_sched_pressure_faults),
    ("pattern_eop", bench_pattern_eop),
]

#: Wall-time repeats per case.  The recorded ``wall_s`` is the minimum
#: (the standard micro-benchmark estimator: noise only ever adds time),
#: and every repeat must produce the *same* ``sim_ttc_s`` — a free
#: intra-run determinism gate on top of the cross-run ``--check``.
REPEATS = 3


def run_cases(repeats: int = REPEATS) -> list[dict]:
    records = []
    for name, fn in CASES:
        wall = float("inf")
        config: dict = {}
        ttcs = []
        for _ in range(repeats):
            reset_id_counters()
            t0 = time.perf_counter()
            config, sim_ttc = fn()
            wall = min(wall, time.perf_counter() - t0)
            ttcs.append(sim_ttc)
        if len(set(ttcs)) != 1:
            raise AssertionError(
                f"{name}: sim_ttc_s varies across repeats: {ttcs!r}"
            )
        # One dedicated pass under tracemalloc: the tracer costs 2-4x in
        # wall time, so it must never run during the timed repeats.
        reset_id_counters()
        tracemalloc.start()
        _, memory_ttc = fn()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        if memory_ttc != ttcs[0]:
            raise AssertionError(
                f"{name}: sim_ttc_s differs under tracemalloc: "
                f"{memory_ttc!r} != {ttcs[0]!r}"
            )
        records.append(
            {
                "bench": name,
                "config": config,
                "wall_s": round(wall, 4),
                "peak_kb": round(peak / 1024, 1),
                "sim_ttc_s": ttcs[0],
            }
        )
        print(f"{name:<28} wall {wall:8.3f} s   peak {peak / 1024:9.1f} KiB"
              f"   sim ttc {ttcs[0]:12.3f} s")
    return records


def check_des_events() -> None:
    """Fail unless the ``pattern_eop`` case steps exactly
    :data:`PATTERN_EOP_DES_EVENTS` DES events."""
    reset_id_counters()
    _, handle, _ = _run_pattern_eop()
    steps = handle.session.sim.events_processed
    if steps != PATTERN_EOP_DES_EVENTS:
        raise AssertionError(
            f"pattern_eop: the run steps {steps} DES events, not "
            f"{PATTERN_EOP_DES_EVENTS} (lists must move whole)"
        )
    print(f"{'pattern_eop DES events':<28} {steps}")


def run_spooled_case(spool_dir: str, expected_ttc: float) -> dict:
    """The EoP case with its trace streamed to a spool file in *spool_dir*.

    The spool file is the CI artifact proving the streaming path works
    end-to-end; the virtual outcome must be identical to the resident run.
    """
    Path(spool_dir).mkdir(parents=True, exist_ok=True)
    reset_id_counters()
    t0 = time.perf_counter()
    config, sim_ttc = bench_pattern_eop(spool_dir=spool_dir)
    wall = time.perf_counter() - t0
    if sim_ttc != expected_ttc:
        raise AssertionError(
            f"pattern_eop_spooled: sim_ttc_s {sim_ttc!r} != resident run "
            f"{expected_ttc!r} (spooling must not change outcomes)"
        )
    from repro.telemetry.sink import (
        LIFECYCLE_EVENTS,
        member_count,
        read_events,
        unit_count,
    )

    spools = sorted(Path(spool_dir).glob("*.trace.jsonl"))
    events = read_events(spools[-1])
    units = unit_count(events)
    per_unit = sum(member_count(ev) for ev in events
                   if ev.name in LIFECYCLE_EVENTS) / units
    if per_unit > MAX_EVENTS_PER_UNIT:
        raise AssertionError(
            f"pattern_eop_spooled: {per_unit:.2f} lifecycle events per unit "
            f"> {MAX_EVENTS_PER_UNIT} (a unit fact is recorded more than once)"
        )
    record = {
        "bench": "pattern_eop_spooled",
        "config": config,
        "wall_s": round(wall, 4),
        "sim_ttc_s": sim_ttc,
        "events_per_unit": round(len(events) / units, 2),
        "lifecycle_events_per_unit": round(per_unit, 2),
    }
    print(f"{'pattern_eop_spooled':<28} wall {wall:8.3f} s   "
          f"sim ttc {sim_ttc:12.3f} s   spool {spools[-1].name}   "
          f"{len(events) / units:.2f} events/unit")
    return record


def run_local_bag_case(repeats: int = REPEATS) -> dict:
    """``local_bag``: a no-staging bag that really runs; every run must
    end all DONE with equal results."""
    from repro.core.kernel_plugin import Kernel
    from repro.core.patterns import BagOfTasks
    from repro.core.resource_handle import ResourceHandle

    class SleepBag(BagOfTasks):
        def task(self, instance):
            kernel = Kernel(name="misc.sleep")
            kernel.arguments = ["--duration=0"]
            return kernel

    size, cores = 200, 4
    wall = float("inf")
    outcomes = []
    for _ in range(repeats):
        reset_id_counters()
        handle = ResourceHandle(
            "local.localhost", cores=cores, walltime=10, mode="local",
        )
        handle.allocate()
        pattern = SleepBag(size=size)
        try:
            t0 = time.perf_counter()
            handle.run(pattern)
            wall = min(wall, time.perf_counter() - t0)
        finally:
            handle.deallocate()
        outcome = sorted(
            (u.description.tags["instance"], u.state.value, u.result)
            for u in pattern.units
        )
        if any(state != "DONE" for _, state, _ in outcome):
            raise AssertionError("local_bag: a unit did not end DONE")
        outcomes.append(outcome)
    if any(outcome != outcomes[0] for outcome in outcomes):
        raise AssertionError("local_bag: the runs' results differ")
    print(f"{'local_bag':<28} wall {wall:8.3f} s   "
          f"(wall-clock run, no sim ttc)")
    return {
        "bench": "local_bag",
        "config": {"tasks": size, "cores": cores, "mode": "local"},
        "wall_s": round(wall, 4),
        "sim_ttc_s": None,
    }


def run_bulk_faults_case() -> dict:
    """``pattern_eop_bulk_faults``: the faulted EoP case (``--check``
    gates its virtual outcome, pinned equal for both trace
    granularities)."""
    reset_id_counters()
    t0 = time.perf_counter()
    config, sim_ttc = bench_pattern_eop_faults()
    wall = time.perf_counter() - t0
    print(f"{'pattern_eop_bulk_faults':<28} wall {wall:8.3f} s   "
          f"sim ttc {sim_ttc:12.3f} s")
    return {
        "bench": "pattern_eop_bulk_faults",
        "config": config,
        "wall_s": round(wall, 4),
        "sim_ttc_s": sim_ttc,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default=None,
                        help="write BENCH_micro.json records here")
    parser.add_argument("--check", metavar="BASELINE", default=None,
                        help="compare sim_ttc_s against a committed baseline")
    parser.add_argument("--repeats", type=int, default=REPEATS,
                        help="wall-time repeats per case (min is recorded)")
    parser.add_argument("--spool", metavar="DIR", default=None,
                        help="also run the EoP case spooled, writing its "
                             "NDJSON trace into DIR (kept as CI artifact)")
    args = parser.parse_args(argv)

    records = run_cases(repeats=args.repeats)
    check_des_events()
    records.append(run_bulk_faults_case())
    records.append(run_local_bag_case(repeats=args.repeats))
    if args.spool:
        eop = next(r for r in records if r["bench"] == "pattern_eop")
        records.append(run_spooled_case(args.spool, eop["sim_ttc_s"]))

    if args.output:
        Path(args.output).write_text(json.dumps(records, indent=2) + "\n")
        print(f"wrote {args.output}")

    if args.check:
        baseline = {
            rec["bench"]: rec for rec in json.loads(Path(args.check).read_text())
        }
        failures = []
        for rec in records:
            expect = baseline.get(rec["bench"])
            if expect is None:
                failures.append(f"{rec['bench']}: not in baseline")
            elif expect["sim_ttc_s"] != rec["sim_ttc_s"]:
                failures.append(
                    f"{rec['bench']}: sim_ttc_s {rec['sim_ttc_s']!r} != "
                    f"baseline {expect['sim_ttc_s']!r}"
                )
        if failures:
            print("bench-smoke determinism check FAILED:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"determinism check OK ({len(records)} cases match baseline)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
