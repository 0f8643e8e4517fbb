"""Analysis of runtime traces into the paper's metrics and tables."""

from repro.analytics.faults import (
    FaultRecoverySummary,
    fault_recovery_overhead,
    fault_recovery_summary,
)
from repro.analytics.metrics import (
    group_units,
    phase_execution_time,
    phase_total_time,
    speedup,
    parallel_efficiency,
    utilization,
)
from repro.analytics.tables import format_table, Series

__all__ = [
    "FaultRecoverySummary",
    "fault_recovery_overhead",
    "fault_recovery_summary",
    "group_units",
    "phase_execution_time",
    "phase_total_time",
    "speedup",
    "parallel_efficiency",
    "utilization",
    "format_table",
    "Series",
]
