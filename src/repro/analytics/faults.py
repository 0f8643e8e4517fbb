"""Fault-recovery accounting from profiler traces.

The fault-tolerance subsystem (node faults, pilot resubmission, retry
policies) records every failure and every recovery action in the session
profiler.  This module folds those events into a single *fault-recovery
overhead* figure — the seconds a run spent coping with failures instead
of making progress — so ablations can report TTC inflation in the
paper's decomposition style.

Overhead components (all in virtual seconds, summed per affected unit —
with many concurrent victims the total is aggregate core-time and can
exceed the run's wall-clock TTC, like wasted core-hours):

* **wasted execution** — time victims had already spent on cores when a
  node/pilot death (or an injected task fault) threw their work away,
* **backoff delay** — time the retry policy deliberately waited before
  resubmitting (runtime requeues and pattern-level task retries),
* **resubmit downtime** — time between a pilot's resubmission and its
  replacement agent starting (submit latency + queue wait + bootstrap).

Node repair intervals are reported separately (``node_downtime``): a down
node only costs TTC when the workload needed its cores, which the three
components above already capture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.pilot.profiler import Profiler
    from repro.telemetry.sink import TraceIndex

__all__ = [
    "FaultRecoverySummary",
    "fault_recovery_summary",
    "fault_recovery_overhead",
]


@dataclass(frozen=True)
class FaultRecoverySummary:
    """Counts and durations of every fault-recovery mechanism in one trace."""

    node_failures: int = 0
    node_repairs: int = 0
    pilot_faults: int = 0
    pilot_resubmits: int = 0
    task_faults: int = 0
    units_killed: int = 0
    unit_requeues: int = 0
    task_retries: int = 0
    wasted_execution: float = 0.0
    backoff_delay: float = 0.0
    resubmit_downtime: float = 0.0
    node_downtime: float = 0.0

    @property
    def overhead(self) -> float:
        """Total fault-recovery seconds (aggregate across affected units)."""
        return self.wasted_execution + self.backoff_delay + self.resubmit_downtime

    def as_dict(self) -> dict[str, float]:
        return {
            "node_failures": self.node_failures,
            "node_repairs": self.node_repairs,
            "pilot_faults": self.pilot_faults,
            "pilot_resubmits": self.pilot_resubmits,
            "task_faults": self.task_faults,
            "units_killed": self.units_killed,
            "unit_requeues": self.unit_requeues,
            "task_retries": self.task_retries,
            "wasted_execution": self.wasted_execution,
            "backoff_delay": self.backoff_delay,
            "resubmit_downtime": self.resubmit_downtime,
            "node_downtime": self.node_downtime,
            "overhead": self.overhead,
        }


def fault_recovery_summary(prof: "Profiler | TraceIndex") -> FaultRecoverySummary:
    """Fold one session trace into a :class:`FaultRecoverySummary`.

    A fault-free trace yields the all-zero summary, so callers can apply
    this unconditionally.  *prof* is read once, through ``prof.index()``;
    a caller that already holds an index passes it to share the read.
    """
    trace = prof.index()
    node_fails = trace.events("node_fail")
    node_repairs = trace.events("node_repair")
    pilot_faults = trace.events("pilot_fault")
    resubmits = trace.events("pilot_resubmit")
    task_faults = trace.events("task_fault")
    node_kills = trace.events("unit_node_kill")
    pilot_kills = trace.events("unit_pilot_kill")
    requeues = trace.events("unit_requeue")
    retries = trace.events("entk_task_retry")

    wasted = sum(ev.attrs.get("wasted", 0.0) for ev in node_kills)
    wasted += sum(ev.attrs.get("wasted", 0.0) for ev in pilot_kills)
    # An injected task fault strikes `at` seconds into the execution: that
    # much core time was burned before the failure surfaced.
    wasted += sum(ev.attrs.get("at", 0.0) for ev in task_faults)

    backoff = sum(ev.attrs.get("delay", 0.0) for ev in requeues)
    backoff += sum(ev.attrs.get("delay", 0.0) for ev in retries)

    # Resubmit downtime: from each pilot_resubmit to the next agent_start
    # of the same pilot (the replacement allocation coming up).  A pilot
    # that never came back is charged up to the trace's last event.
    trace_end = max((ev.time for ev in trace), default=0.0)
    agent_starts: dict[str, list[float]] = {}
    for ev in trace.events("agent_start"):
        agent_starts.setdefault(ev.uid, []).append(ev.time)
    resubmit_downtime = 0.0
    for ev in resubmits:
        later = [t for t in agent_starts.get(ev.uid, []) if t >= ev.time]
        resubmit_downtime += (min(later) if later else trace_end) - ev.time

    # Node downtime: pair each node_fail with the next node_repair of the
    # same (pilot, node); unrepaired nodes count until trace end.
    repair_times: dict[tuple[str, int], list[float]] = {}
    for ev in node_repairs:
        key = (ev.uid, ev.attrs.get("node", -1))
        repair_times.setdefault(key, []).append(ev.time)
    node_downtime = 0.0
    for ev in node_fails:
        key = (ev.uid, ev.attrs.get("node", -1))
        later = [t for t in repair_times.get(key, []) if t >= ev.time]
        node_downtime += (min(later) if later else trace_end) - ev.time

    return FaultRecoverySummary(
        node_failures=len(node_fails),
        node_repairs=len(node_repairs),
        pilot_faults=len(pilot_faults),
        pilot_resubmits=len(resubmits),
        task_faults=len(task_faults),
        units_killed=len(node_kills) + len(pilot_kills),
        unit_requeues=len(requeues),
        task_retries=len(retries),
        wasted_execution=wasted,
        backoff_delay=backoff,
        resubmit_downtime=resubmit_downtime,
        node_downtime=node_downtime,
    )


def fault_recovery_overhead(prof: "Profiler | TraceIndex") -> float:
    """Shortcut: the scalar fault-recovery overhead of one trace."""
    return fault_recovery_summary(prof).overhead
