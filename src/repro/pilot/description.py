"""Descriptions of pilots and compute units.

A :class:`ComputeUnitDescription` carries both a *real* payload (a Python
callable executed by the local executor) and a *modelled* cost (used by the
simulated executor).  Kernel plugins (``repro.kernels``) populate both, so
the same application code runs in either execution mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable

from repro.exceptions import BadParameter

__all__ = [
    "ComputePilotDescription",
    "ComputeUnitDescription",
    "StagingDirective",
]


@dataclass(slots=True)
class ComputePilotDescription:
    """Request for one pilot (container job)."""

    resource: str  # platform name, e.g. "xsede.comet" or "local.localhost"
    cores: int
    #: Requested walltime in *minutes*, as on real batch systems.
    runtime: float
    queue: str = ""
    project: str = ""
    #: Execution mode: "local" really executes, "sim" uses the DES.
    mode: str = "local"

    def validate(self) -> None:
        if self.cores < 1:
            raise BadParameter("pilot needs at least one core")
        if self.runtime <= 0:
            raise BadParameter("pilot runtime must be positive")
        if self.mode not in ("local", "sim"):
            raise BadParameter(f"unknown pilot mode {self.mode!r}")


@dataclass(frozen=True, slots=True)
class StagingDirective:
    """One data-staging action for a unit.

    *action* is one of ``link`` (no data motion; zero cost), ``copy``
    (within the shared filesystem) or ``transfer`` (client <-> resource).
    ``source``/``target`` are sandbox-relative paths; placeholders
    ``$PILOT_SANDBOX`` and ``$UNIT_<uid>`` are resolved by the agent's
    stager.  *nbytes* is the modelled size used by the simulated mode.
    """

    source: str
    target: str
    action: str = "copy"
    nbytes: int = 0

    def __post_init__(self) -> None:
        if self.action not in ("link", "copy", "transfer"):
            raise BadParameter(f"unknown staging action {self.action!r}")
        if self.nbytes < 0:
            raise BadParameter("nbytes must be non-negative")


@dataclass(slots=True)
class ComputeUnitDescription:
    """Description of one task.

    ``payload(ctx)`` is executed in local mode; ``ctx`` is a
    :class:`repro.pilot.agent.executor.TaskContext` giving the unit its
    sandbox, its core count and its kernel arguments.  ``duration_model``
    maps ``(cores, platform)`` to modelled seconds in simulated mode; when
    absent, ``modelled_duration`` is used as a constant.
    """

    executable: str = ""
    arguments: list[str] = field(default_factory=list)
    environment: dict[str, str] = field(default_factory=dict)
    cores: int = 1
    mpi: bool = False
    name: str = ""
    payload: Callable[[Any], Any] | None = None
    modelled_duration: float = 0.0
    duration_model: Callable[[int, Any], float] | None = None
    input_staging: list[StagingDirective] = field(default_factory=list)
    output_staging: list[StagingDirective] = field(default_factory=list)
    #: Free-form metadata (pattern name, stage index, ...) used by profiling.
    tags: dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        if self.cores < 1:
            raise BadParameter("unit needs at least one core")
        if self.cores > 1 and not self.mpi:
            raise BadParameter("multi-core units must set mpi=True")
        if self.modelled_duration < 0:
            raise BadParameter("modelled_duration must be non-negative")

    def shareable(self) -> "ComputeUnitDescription":
        """A copy that many units can share: the same fields, with
        tuples for the lists and read-only mappings for ``environment``
        and ``tags``.

        A pattern driver registers every unit of one kernel signature
        with the same shareable description and keeps each unit's own
        tags in the unit store; ``unit.description`` is then a read-only
        view (:class:`repro.pilot.unit_store.UnitDescription`).
        """
        return ComputeUnitDescription(
            self.executable, tuple(self.arguments),
            MappingProxyType(dict(self.environment)),
            self.cores, self.mpi, self.name, self.payload,
            self.modelled_duration, self.duration_model,
            tuple(self.input_staging),
            tuple(self.output_staging),
            MappingProxyType(dict(self.tags)),
        )

    def modelled_runtime(self, platform: Any) -> float:
        """Modelled execution seconds on *platform* (sim mode only)."""
        if self.duration_model is not None:
            return float(self.duration_model(self.cores, platform))
        return float(self.modelled_duration)
