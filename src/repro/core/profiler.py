"""TTC decomposition in the paper's terms (Fig. 3).

The paper decomposes total time to completion into:

* **application execution time** — when tasks actually execute,
* **EnTK core overhead** — toolkit init + resource request launch/cancel
  (constant: independent of pattern, tasks, resource),
* **EnTK pattern overhead** — creating tasks and submitting them to the
  runtime (proportional to the number of tasks),
* **runtime (RP) overhead** — everything the pilot system adds: agent
  scheduling, launching, staging, control-plane latency.

:func:`breakdown_from_profile` computes all four from the session's event
trace and the pattern's unit timestamps.  It reads the trace once: every
query goes to one :class:`~repro.telemetry.sink.TraceIndex`, which is
dropped when the call returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.pilot.states import UnitState
from repro.telemetry.analysis import interval_length

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.execution_pattern import ExecutionPattern
    from repro.pilot.profiler import Profiler
    from repro.pilot.unit import ComputeUnit
    from repro.telemetry.sink import TraceIndex

__all__ = ["OverheadBreakdown", "breakdown_from_profile", "exec_intervals"]


@dataclass(frozen=True)
class OverheadBreakdown:
    """All durations in seconds.

    ``execution_time`` is the measure the paper plots: the union of the
    intervals during which at least one task of the pattern was executing
    (so client-side gaps between stages do not count as execution).
    ``makespan`` is first-task-start to last-task-end for reference.
    Components need not sum to TTC — overheads partially overlap execution.
    """

    ttc: float
    execution_time: float
    makespan: float
    core_overhead: float
    pattern_overhead: float
    runtime_overhead: float
    ntasks: int
    #: Seconds spent coping with injected failures (wasted execution,
    #: retry backoff, pilot resubmission downtime), summed per affected
    #: unit — aggregate core-time, may exceed TTC; 0.0 in fault-free runs.
    #: See :func:`repro.analytics.faults.fault_recovery_summary`.
    fault_overhead: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "ttc": self.ttc,
            "execution_time": self.execution_time,
            "makespan": self.makespan,
            "core_overhead": self.core_overhead,
            "pattern_overhead": self.pattern_overhead,
            "runtime_overhead": self.runtime_overhead,
            "fault_overhead": self.fault_overhead,
            "ntasks": self.ntasks,
        }


def exec_intervals(units: Iterable["ComputeUnit"]) -> list[tuple[float, float]]:
    """Each unit's ``(start, stop)`` of execution, skipping units that
    never executed.

    Execution starts on entering EXECUTING and stops on entering
    AGENT_STAGING_OUTPUT, or for a unit that failed mid-execution at
    its final-state stamp.
    """
    intervals = []
    for u in units:
        start = u.timestamps.get(UnitState.EXECUTING.value)
        stop = u.timestamps.get(UnitState.AGENT_STAGING_OUTPUT.value)
        if stop is None:
            stop = u.timestamps.get(u.state.value)
        if start is not None and stop is not None:
            intervals.append((start, stop))
    return intervals


def _span_sum(trace: "TraceIndex", start_name: str, stop_name: str, uid: str | None) -> float:
    """Sum of paired start/stop spans (same count assumed, in order)."""
    starts = trace.events(start_name, uid)
    stops = trace.events(stop_name, uid)
    return sum(
        stop.time - start.time for start, stop in zip(starts, stops)
    )


def breakdown_from_profile(
    prof: "Profiler | TraceIndex", pattern: "ExecutionPattern"
) -> OverheadBreakdown:
    """Decompose one executed pattern's TTC.

    *Execution time* spans from the first task entering EXECUTING to the
    last task leaving it — with identical concurrent tasks (the paper's
    characterization workloads) this equals the per-task runtime, and in
    general it is what a user perceives as "my tasks running".

    *prof* is read once, through ``prof.index()``.
    """
    units = [u for u in pattern.units]
    if not units:
        raise ValueError(f"pattern {pattern.uid} has no units (was it run?)")

    trace = prof.index()
    ttc = trace.span("entk_pattern_start", "entk_pattern_stop", pattern.uid) or 0.0

    intervals = exec_intervals(units)
    execution_time = interval_length(intervals)
    makespan = (
        max(stop for _, stop in intervals) - min(start for start, _ in intervals)
        if intervals
        else 0.0
    )

    # Core overhead: init + allocate + cancel client-side spans.
    core_overhead = (
        _span_sum(trace, "entk_init_start", "entk_init_stop", None)
        + _span_sum(trace, "entk_alloc_start", "entk_alloc_stop", None)
        + _span_sum(trace, "entk_cancel_start", "entk_cancel_stop", None)
    )

    # Pattern overhead: task creation (measured) plus submission charge.
    create = _span_sum(
        trace, "entk_stage_create_start", "entk_stage_create_stop", pattern.uid
    )
    charged = sum(
        ev.attrs.get("seconds", 0.0)
        for ev in trace.events("entk_pattern_overhead", pattern.uid)
    )
    pattern_overhead = create + charged

    runtime_overhead = max(ttc - execution_time - pattern_overhead, 0.0)

    # Fault-recovery share of the run (0.0 when no faults were injected).
    # Imported lazily: analytics sits above core in the layer diagram.
    from repro.analytics.faults import fault_recovery_overhead

    fault_overhead = fault_recovery_overhead(trace)

    return OverheadBreakdown(
        ttc=ttc,
        execution_time=execution_time,
        makespan=makespan,
        core_overhead=core_overhead,
        pattern_overhead=pattern_overhead,
        runtime_overhead=runtime_overhead,
        ntasks=len(units),
        fault_overhead=fault_overhead,
    )
