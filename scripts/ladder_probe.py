#!/usr/bin/env python3
"""Run one point of the EoP scale envelope untraced and print its host costs.

Usage, from the root of a checkout::

    PYTHONPATH=src python scripts/ladder_probe.py --units N [--spool DIR]

The point is the envelope workload of ``benchmarks/bench_scale_envelope.py``
(``TwoStageEoP``: N/2 two-stage sleep pipelines on ``ncsa.bluewaters``,
10 016 cores), run in simulation with no tracer, profiler or tracemalloc.
Run one point per invocation, so the process is the point's own and
``ru_maxrss`` is its peak.  It prints one line:

* ``wall_s``: host seconds from creating the handle to deallocating it,
  read through :class:`repro.utils.timing.WallClock`;
* ``maxrss_mb``: the process's peak resident memory;
* ``full_gcs`` / ``full_gc_s``: the count and host time of full
  (generation-2) collections during the run, from ``gc.callbacks``;
* ``tracked``: ``len(gc.get_objects())`` after the run, with the handle
  and the pattern still alive;
* ``sim_ttc_s``: the simulated time to completion, which no host cost
  may change.

It exits 1 if a unit did not finish.
"""

from __future__ import annotations

import argparse
import gc
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.bench_scale_envelope import TwoStageEoP
from repro.core.resource_handle import ResourceHandle
from repro.pilot.states import UnitState
from repro.utils.timing import WallClock


class FullCollections:
    """Count and time generation-2 collections through ``gc.callbacks``."""

    def __init__(self, clock: WallClock) -> None:
        self.clock = clock
        self.count = 0
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._started = self.clock.now()
        else:
            self.count += 1
            self.seconds += self.clock.now() - self._started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--units", type=int, required=True,
                        help="units in the run (N/2 pipelines of 2 stages)")
    parser.add_argument("--spool", type=Path, default=None, metavar="DIR",
                        help="spool the trace to DIR instead of memory")
    args = parser.parse_args(argv)
    if args.units < 2 or args.units % 2:
        parser.error("--units must be an even number of at least 2")

    clock = WallClock()
    collections = FullCollections(clock)
    gc.callbacks.append(collections)
    t0 = clock.now()
    handle = ResourceHandle(
        "ncsa.bluewaters", cores=10_016, walltime=24 * 60, mode="sim",
        spool_dir=args.spool,
    )
    handle.allocate()
    pattern = TwoStageEoP(ensemble_size=args.units // 2, pipeline_size=2)
    try:
        handle.run(pattern)
    finally:
        handle.deallocate()
    wall = clock.now() - t0
    gc.callbacks.remove(collections)
    tracked = len(gc.get_objects())
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    done = sum(unit.state is UnitState.DONE for unit in pattern.units)
    print(
        f"units={args.units} spool={'yes' if args.spool else 'no'} "
        f"wall_s={wall:.3f} maxrss_mb={maxrss_mb:.1f} "
        f"full_gcs={collections.count} full_gc_s={collections.seconds:.3f} "
        f"tracked={tracked} sim_ttc_s={handle.session.now():g} done={done}"
    )
    return 0 if done == args.units else 1


if __name__ == "__main__":
    sys.exit(main())
