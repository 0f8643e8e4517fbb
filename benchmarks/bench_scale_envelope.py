"""The §V scale envelope.

The paper's discussion: "RADICAL-Pilot has been engineered to support up
to 8K tasks on XSEDE Stampede ... O(10,000) tasks are being tested
currently on NSF Blue Waters".  These benchmarks push the reproduction's
runtime through exactly those envelopes and verify it stays linear:
every task completes, core accounting holds, and the toolkit overhead per
task stays flat from 1K to 10K tasks.

Beyond the paper's envelope, the *memory* envelope: with the columnar
unit store, a trace that writes one event per unit list and a trace
spool file, one run sustains 10^6 units in bounded memory.  The
``units_1e6`` case measures exactly that (tracemalloc peak + wall time);
the committed numbers live in ``BENCH_micro.json`` and
``docs/performance.md``.
"""

import os
import time
import tracemalloc

from repro.core.kernel_plugin import Kernel
from repro.core.patterns import BagOfTasks, EnsembleOfPipelines
from repro.core.profiler import breakdown_from_profile
from repro.core.resource_handle import ResourceHandle
from repro.experiments.parallel import run_sweep
from repro.telemetry import MetricsRegistry
from repro.utils.ids import reset_id_counters

#: Worker processes for the multi-point envelope sweep (0 = serial).
#: pytest owns the command line here, so the "--parallel N" switch of
#: the figure CLI arrives as an environment variable.
PARALLEL = int(os.environ.get("REPRO_BENCH_PARALLEL", "0"))


class SleepBag(BagOfTasks):
    def task(self, instance):
        kernel = Kernel(name="misc.sleep")
        kernel.arguments = ["--duration=300"]
        return kernel


def run_at_scale(ntasks: int, resource: str, cores: int):
    handle = ResourceHandle(resource, cores=cores, walltime=12 * 60,
                            mode="sim")
    handle.allocate()
    pattern = SleepBag(size=ntasks)
    handle.run(pattern)
    handle.deallocate()
    breakdown = breakdown_from_profile(handle.profile, pattern)
    return pattern, handle, breakdown


def peak_cores(handle) -> float:
    """The most cores any pilot of the run held or kept busy, from the
    ``agent.<pilot>.cores_held``/``cores_busy`` gauges derived from its
    trace."""
    metrics = MetricsRegistry.from_events(handle.profile)
    return max(metrics.series(name).vmax for name in metrics.names()
               if name.startswith("agent.")
               and name.endswith((".cores_held", ".cores_busy")))


def _envelope_point(point: dict) -> dict:
    """Sweep-runner point: overhead per task at one envelope scale."""
    _, _, breakdown = run_at_scale(
        point["ntasks"], point["resource"], point["cores"]
    )
    return {
        "ntasks": point["ntasks"],
        "overhead_per_task": breakdown.pattern_overhead / point["ntasks"],
    }


def test_8k_tasks_on_stampede(benchmark):
    """The paper's stated Stampede envelope: 8K concurrent-capable tasks."""

    def run():
        return run_at_scale(8192, "xsede.stampede", cores=4096)

    pattern, handle, breakdown = benchmark.pedantic(run, rounds=1,
                                                    iterations=1)
    assert breakdown.ntasks == 8192
    assert all(u.state.value == "DONE" for u in pattern.units)
    assert peak_cores(handle) <= 4096
    # 8192 tasks on 4096 cores: exactly two waves of 300 s / 0.9
    # (Stampede's modelled core speed).
    assert 660.0 <= breakdown.execution_time <= 680.0


def test_10k_tasks_on_bluewaters(benchmark):
    """The paper's Blue Waters outlook: O(10,000) tasks."""

    def run():
        return run_at_scale(10_000, "ncsa.bluewaters", cores=10_016)

    pattern, _, breakdown = benchmark.pedantic(run, rounds=1, iterations=1)
    assert breakdown.ntasks == 10_000
    assert all(u.state.value == "DONE" for u in pattern.units)


class TwoStageEoP(EnsembleOfPipelines):
    """The memory-envelope workload: n/2 pipelines of two sleep stages.

    Two stages halve the transient kernel-object spike of the initial
    bulk submission relative to a flat bag of the same unit count, which
    is what a real ensemble looks like.
    """

    def stage_1(self, instance):
        kernel = Kernel(name="misc.sleep")
        kernel.arguments = ["--duration=40"]
        return kernel

    def stage_2(self, instance):
        kernel = Kernel(name="misc.sleep")
        kernel.arguments = ["--duration=20"]
        return kernel


#: Peak bytes per unit of the 10^5-unit run when its trace held one
#: resident event per unit per transition (``BENCH_micro.json``,
#: ``memory_envelope_resident_1e5``).
CLASSIC_RESIDENT_BYTES_PER_UNIT = 14636.6


def run_memory_envelope(n_units: int, *, spool_dir=None,
                        cores: int = 10_016) -> dict:
    """One EoP run of *n_units* under tracemalloc; the envelope point.

    Returns peak resident bytes (the whole run: session, pattern, driver,
    trace), bytes per unit, wall seconds and the virtual TTC — which must
    not depend on ``spool_dir`` (asserted by the tests below).
    """
    reset_id_counters()
    tracemalloc.start()
    t0 = time.perf_counter()
    handle = ResourceHandle(
        "ncsa.bluewaters", cores=cores, walltime=24 * 60, mode="sim",
        spool_dir=spool_dir,
    )
    handle.allocate()
    pattern = TwoStageEoP(ensemble_size=n_units // 2, pipeline_size=2)
    try:
        handle.run(pattern)
    finally:
        handle.deallocate()
    wall = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    n_done = sum(u.state.value == "DONE" for u in pattern.units)
    return {
        "n_units": n_units,
        "spooled": spool_dir is not None,
        "peak_bytes": peak,
        "bytes_per_unit": round(peak / n_units, 1),
        "wall_s": round(wall, 2),
        "sim_ttc_s": handle.session.now(),
        "n_done": n_done,
    }


def test_memory_envelope_bulk_spool_is_5x_smaller(benchmark, tmp_path):
    """At 10^5 units, peak bytes/unit must be >= 5x below the classic run
    that held one trace event per unit per transition resident
    (:data:`CLASSIC_RESIDENT_BYTES_PER_UNIT`), with the trace resident and
    spooled alike.  Virtual time must be identical: the envelope is a
    representation change, not a semantic one.
    """

    def run():
        resident = run_memory_envelope(100_000)
        envelope = run_memory_envelope(100_000, spool_dir=tmp_path)
        return resident, envelope

    resident, envelope = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("resident:", resident)
    print("envelope:", envelope)
    assert resident["n_done"] == envelope["n_done"] == 100_000
    assert envelope["sim_ttc_s"] == resident["sim_ttc_s"]
    for record in (resident, envelope):
        assert CLASSIC_RESIDENT_BYTES_PER_UNIT >= 5 * record["bytes_per_unit"], (
            f"expected >=5x envelope reduction, got "
            f"{CLASSIC_RESIDENT_BYTES_PER_UNIT / record['bytes_per_unit']:.1f}x"
        )


def test_units_1e6(benchmark, tmp_path):
    """The million-unit envelope: one EoP run, 10^6 units, bounded memory."""

    def run():
        return run_memory_envelope(1_000_000, spool_dir=tmp_path)

    record = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("units_1e6:", record)
    assert record["n_done"] == 1_000_000
    # The envelope promise: well under 2 KB resident per unit, i.e. a
    # million-unit run fits in a 2 GB budget with room to spare.
    assert record["bytes_per_unit"] < 2048


def test_overhead_per_task_flat_from_1k_to_10k(benchmark):
    """Linearity claim: EnTK overhead per task is scale-invariant."""

    def run():
        points = [
            {"ntasks": ntasks, "resource": "ncsa.bluewaters",
             "cores": 10_016, "seed": 0}
            for ntasks in (1000, 4000, 10_000)
        ]
        records = run_sweep(_envelope_point, points, parallel=PARALLEL)
        return [record["overhead_per_task"] for record in records]

    per_task = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("tasks : overhead/task (ms):",
          [f"{1000 * v:.2f}" for v in per_task])
    assert max(per_task) <= 1.2 * min(per_task)
