"""How the figure runners run a point and a sweep.

Every figure is a sweep over independent points.  A point is a JSON dict
naming a workload class of :mod:`repro.experiments.workloads`, its
constructor arguments and where to run it::

    {"workload": "AmberCoCoSAL", "args": {"instances": 64, ...},
     "resource": "xsede.stampede", "cores": 64,
     "walltime_minutes": 720.0, "seed": 0}

:func:`run_point` runs one point and :func:`run_figure` runs a figure's
points, serially or across worker processes, through
:func:`repro.experiments.parallel.run_sweep`.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.analytics.metrics import group_units, phase_execution_time
from repro.core.profiler import OverheadBreakdown, breakdown_from_profile
from repro.core.resource_handle import ResourceHandle
from repro.experiments import workloads
from repro.experiments.parallel import RunCache, run_sweep
from repro.utils.ids import reset_id_counters

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.execution_pattern import ExecutionPattern
    from repro.experiments.base import ExperimentResult

__all__ = ["run_on_sim", "kernel_phase_times", "run_point", "run_figure"]


def run_on_sim(
    pattern: "ExecutionPattern",
    resource: str,
    cores: int,
    walltime_minutes: float = 24 * 60.0,
    seed: int = 0,
    trace_out: str | Path | None = None,
    **handle_kwargs,
) -> tuple["ExecutionPattern", ResourceHandle, OverheadBreakdown]:
    """Run *pattern* on a simulated platform; return it with its breakdown.

    With *trace_out*, the run's Chrome trace is written to
    ``<trace_out>/<pattern uid>.trace.json``.
    """
    handle = ResourceHandle(
        resource=resource,
        cores=cores,
        walltime=walltime_minutes,
        mode="sim",
        seed=seed,
        **handle_kwargs,
    )
    handle.allocate()
    try:
        handle.run(pattern)
    finally:
        handle.deallocate()
    breakdown = breakdown_from_profile(handle.profile, pattern)
    if trace_out is not None:
        from repro.telemetry.export import write_chrome_trace

        directory = Path(trace_out)
        directory.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(
            list(handle.profile), directory / f"{pattern.uid}.trace.json"
        )
    return pattern, handle, breakdown


def kernel_phase_times(pattern: "ExecutionPattern") -> dict[str, float]:
    """Wall time of each kernel-named phase of an executed pattern.

    Groups the pattern's units by kernel name and takes the union length of
    each group's EXECUTING intervals — the paper's per-phase metric
    ("simulation time", "exchange time", "analysis time").
    """
    groups = group_units(pattern.units, lambda u: u.description.name)
    return {name: phase_execution_time(units) for name, units in groups.items()}


def run_point(
    point: dict,
    *,
    spool_dir: str | Path | None = None,
    trace_out: str | Path | None = None,
) -> dict[str, Any]:
    """Run one figure point; return its breakdown and kernel phase times.

    The id counters are reset first, so the run's uids, and with them
    its trace, depend on the point alone.  Its spool file and Chrome
    trace go to a subdirectory of *spool_dir* / *trace_out* named by the
    point's :class:`RunCache` key: a point writes the same files whether
    it runs serially or in a worker process.
    """
    reset_id_counters()
    key = RunCache.key(point)
    pattern = getattr(workloads, point["workload"])(**point["args"])
    _, _, breakdown = run_on_sim(
        pattern,
        resource=point["resource"],
        cores=point["cores"],
        walltime_minutes=point["walltime_minutes"],
        seed=point["seed"],
        trace_out=None if trace_out is None else Path(trace_out) / key,
        spool_dir=None if spool_dir is None else Path(spool_dir) / key,
    )
    return {"breakdown": breakdown.as_dict(),
            "phases": kernel_phase_times(pattern)}


def run_figure(
    points: Sequence[dict],
    report: Callable[[Sequence[dict], list[dict]], "ExperimentResult"],
    *,
    parallel: int = 0,
    cache_dir: str | Path | None = None,
    spool_dir: str | Path | None = None,
    trace_out: str | Path | None = None,
) -> "ExperimentResult":
    """Run a figure's *points* and build its result with *report*.

    ``parallel = N`` runs the points across ``N`` worker processes, and
    *cache_dir* reuses the records of points a :class:`RunCache` there
    has seen (a point served from the cache writes no spool or trace).
    """
    records = run_sweep(
        partial(run_point, spool_dir=spool_dir, trace_out=trace_out),
        points,
        parallel=parallel,
        cache=None if cache_dir is None else RunCache(cache_dir),
    )
    return report(points, records)
