"""One pass of one workload in a fresh, single-threaded driving process.

Usage (normally spawned by ``run.py``)::

    python3 perfbench/worker.py --workload NAME --seed N --scale full \
        --pass {time,trace,memory} --workdir DIR

Passes:

* ``time`` — the untraced pass every end-to-end number comes from.
* ``trace`` — the same run with every toolkit function wrapped in layer
  spans (:mod:`tracer`); gives self time per layer and the counters.
* ``memory`` — the same run under ``tracemalloc``; a snapshot taken right
  after ``run()``, while the units are still referenced, is grouped by
  layer.  No time is ever reported from this pass or the traced one.

Every pass runs the output checks of :func:`apps.outcome` and the layer
table self-check, and prints one JSON record as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"

#: The timed pass repeats the analysis until it has taken this long in
#: total, or this many times.
ANALYSIS_MIN_S, ANALYSIS_REPEATS = 1.0, 15


def _module_of(filename: str) -> str | None:
    """Dotted module name of a file under ``src/``, or ``None``."""
    try:
        rel = Path(filename).resolve().relative_to(SRC)
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _instrument():
    """Wrap the toolkit and attach the counters; returns the tracer."""
    import layers
    import tracer as tr

    layers.import_table_modules()
    tracer = tr.LayerTracer()
    tr.install(tracer)

    from repro.core.drivers.base import PatternDriver
    from repro.core.kernel_plugin import Kernel
    from repro.eventsim.simulator import Simulator
    from repro.pilot.agent.executor import SimExecutor
    from repro.pilot.agent.slots import CoreSlotScheduler
    from repro.pilot.agent.staging import SimStager
    from repro.pilot.unit_manager import UnitManager
    from repro.pilot.unit_store import UnitStore
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.sink import MemorySink, SpoolSink
    from repro.telemetry.span import Tracer

    count = tr.count_calls
    count(tracer, Kernel, "bind", "kernel.binds")
    count(tracer, PatternDriver, "submit", "drivers.submits",
          ok=lambda units: bool(units))
    count(tracer, PatternDriver, "submit", "drivers.units",
          amount=lambda args, units: len(units))
    count(tracer, UnitManager, "submit_units", "umgr.submits")
    count(tracer, UnitStore, "advance", "unit_store.transitions")
    count(tracer, UnitStore, "advance_many", "unit_store.transitions",
          amount=lambda args, _: len(args[1]))
    count(tracer, CoreSlotScheduler, "alloc", "slots.allocs",
          ok=lambda slots: slots is not None)
    count(tracer, SimExecutor, "launch", "executor.launches")
    count(tracer, SimExecutor, "launch_units", "executor.launches",
          amount=lambda args, _: len(args[1]))
    for attr, field in (("stage_in", "input_staging"),
                        ("stage_out", "output_staging")):
        count(tracer, SimStager, attr, "executor.staged_files",
              amount=lambda args, _, f=field: len(getattr(args[1].description, f)))
        count(tracer, SimStager, attr + "_bulk", "executor.staged_files",
              amount=lambda args, _, f=field: sum(
                  len(getattr(u.description, f)) for u in args[1]))
    # An event that already ran stays EXECUTED; one that had not is now
    # CANCELLED (status 2).
    count(tracer, Simulator, "cancel", "eventsim.cancelled",
          amount=lambda args, _: int(args[1]._status == 2))
    for sink in (MemorySink, SpoolSink):
        count(tracer, sink, "events", "profiler.scans")
        count(tracer, sink, "events", "analytics.events_read",
              amount=lambda args, events: len(events))
    count(tracer, MetricsRegistry, "_record", "telemetry.metric_points")
    count(tracer, Tracer, "begin", "telemetry.spans", ok=bool)
    return tracer


def _retained_by_layer(snapshot) -> dict[str, int]:
    import layers

    out: dict[str, int] = {}
    for stat in snapshot.statistics("filename"):
        layer = layers.layer_of(_module_of(stat.traceback[0].filename))
        out[layer or "unattributed"] = out.get(layer or "unattributed", 0) + stat.size
    return out


def run_pass(kind: str, name: str, seed: int, scale: str, workdir: Path) -> dict:
    params = workloads.inputs(name, seed, scale)
    record: dict = {"pass": kind, "workload": name, "seed": seed, "scale": scale}
    tracer = _instrument() if kind == "trace" else None

    t0 = time.perf_counter()
    import apps  # the first toolkit import of an untraced pass

    if kind == "memory":
        import tracemalloc

        tracemalloc.start()
    if tracer is not None:
        tracer.start()
    t_region = time.perf_counter()
    handle = apps.make_handle(name, params, workdir, seed)
    handle.allocate()
    record["setup_s"] = time.perf_counter() - t0
    pattern = apps.make_pattern(name, params)
    t_run = time.perf_counter()
    error = apps.run(handle, pattern)
    if kind == "memory":
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
    handle.deallocate()
    t_analysis = time.perf_counter()
    analysis = apps.analyse(name, handle, pattern) if error is None else {}
    t_end = time.perf_counter()
    if tracer is not None:
        record["trace"] = tracer.stop()
    record["run_s"] = t_analysis - t_run
    record["region_s"] = t_end - t_region
    # A short analysis is repeated on the same finished run and the
    # fastest repeat kept (see run.end_to_end); the trace is read back in
    # full every time.
    times = [t_end - t_analysis]
    while (kind == "time" and error is None and len(times) < ANALYSIS_REPEATS
           and sum(times) < ANALYSIS_MIN_S):
        t = time.perf_counter()
        apps.analyse(name, handle, pattern)
        times.append(time.perf_counter() - t)
    record["analysis_s"] = min(times)

    outcome = apps.outcome(name, params, handle, pattern, analysis, error)
    if kind == "memory":
        record["retained_b"] = _retained_by_layer(snapshot)
    if kind == "trace":
        profile = handle.profile
        outcome["trace_events"] = len(profile)
        spool = handle.session.spool_path
        outcome["trace_bytes"] = spool.stat().st_size if spool else 0
        outcome["des_events"] = handle.session.sim.events_processed
    import layers

    outcome["failures"] += layers.table_errors(sys.modules)
    record["outcome"] = outcome
    record["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=workloads.SCALES)
    parser.add_argument("--pass", dest="kind", required=True,
                        choices=("time", "trace", "memory"))
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"worker: no toolkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        record = run_pass(args.kind, args.workload, args.seed, args.scale,
                          args.workdir)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()
    # Skip interpreter teardown: a million-object heap takes seconds to
    # free, and nothing here needs finalizers.
    os._exit(0)


if __name__ == "__main__":
    raise SystemExit(main())
