"""Metrics over executed patterns: phase times, speedups, utilization."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.core.profiler import exec_intervals
from repro.telemetry.analysis import interval_length

if TYPE_CHECKING:  # pragma: no cover
    from repro.pilot.unit import ComputeUnit

__all__ = [
    "group_units",
    "phase_execution_time",
    "phase_total_time",
    "speedup",
    "parallel_efficiency",
    "utilization",
]


def group_units(
    units: Iterable["ComputeUnit"],
    key: str | Callable[["ComputeUnit"], Any],
) -> dict[Any, list["ComputeUnit"]]:
    """Group units by a tag name (from ``description.tags``) or a key function.

    Units lacking the tag land under ``None``.
    """
    if isinstance(key, str):
        tag = key

        def key_fn(u: "ComputeUnit") -> Any:
            return u.description.tags.get(tag)
    else:
        key_fn = key
    groups: dict[Any, list["ComputeUnit"]] = {}
    for unit in units:
        groups.setdefault(key_fn(unit), []).append(unit)
    return groups


def phase_execution_time(units: Iterable["ComputeUnit"]) -> float:
    """Union length of the units' EXECUTING intervals (wall view).

    This is "how long did this phase run" — concurrent units overlap, and
    waves on an undersized pilot accumulate, exactly what the paper's
    per-phase plots (simulation time, exchange time, analysis time) show.
    """
    return interval_length(exec_intervals(units))


def phase_total_time(units: Iterable["ComputeUnit"]) -> float:
    """Sum of per-unit execution durations (total core-time view)."""
    return sum(stop - start for start, stop in exec_intervals(units))


def speedup(t_base: float, t: float) -> float:
    """Classical speedup of *t* relative to the baseline duration."""
    if t <= 0:
        raise ValueError("t must be positive")
    return t_base / t


def parallel_efficiency(t_base: float, t: float, scale: float) -> float:
    """Speedup divided by the resource scale factor."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return speedup(t_base, t) / scale


def utilization(
    units: Iterable["ComputeUnit"], total_cores: int, span: float
) -> float:
    """Fraction of core-seconds spent executing over *span* seconds."""
    if total_cores <= 0 or span <= 0:
        raise ValueError("total_cores and span must be positive")
    busy = 0.0
    for u in units:
        intervals = exec_intervals([u])
        if intervals:
            start, stop = intervals[0]
            busy += (stop - start) * u.description.cores
    return busy / (total_cores * span)
