"""Kernel plugins: the task abstraction of Ensemble Toolkit (paper §III.B.2).

Two classes cooperate:

* :class:`Kernel` is the *user-facing* object: pick a plugin by name, set
  arguments, core count and data directives.  This mirrors the EnMD API the
  paper describes (``k = Kernel(name="md.gromacs"); k.arguments = [...]``).
* :class:`KernelPlugin` is the *developer-facing* base class: a concrete
  plugin supplies the real Python payload (executed in local mode), a cost
  model (used in simulated mode) and per-resource configuration, hiding
  "kernel-specific peculiarities across different resources" exactly as the
  paper assigns to this component.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any

from repro.cluster.platform import PlatformSpec
from repro.core.kernel_registry import get_plugin_instance
from repro.exceptions import KernelError
from repro.pilot.description import ComputeUnitDescription, StagingDirective

__all__ = ["Kernel", "KernelPlugin", "MachineConfig"]


@dataclass
class MachineConfig:
    """Per-resource configuration of one kernel plugin.

    On real systems this carries module loads and executable paths; here it
    carries the environment plus a *speed factor* so the same kernel can be
    modelled as faster or slower per machine (e.g. Stampede's older Xeons).
    """

    environment: dict[str, str] = field(default_factory=dict)
    pre_exec: list[str] = field(default_factory=list)
    executable: str = ""
    speed_factor: float = 1.0


def _created_on_access(slot: str, factory: type, doc: str) -> property:
    """A :class:`Kernel` container field kept in *slot*: ``None`` until
    the field is first read or assigned, then the container itself."""

    def get(self):
        value = getattr(self, slot)
        if value is None:
            value = factory()
            setattr(self, slot, value)
        return value

    def set(self, value) -> None:
        setattr(self, slot, value)

    return property(get, set, doc=doc)


class Kernel:
    """A user's handle on one computational task.

    Attributes mirror the EnMD kernel API:

    ``arguments``
        List of ``--key=value`` strings, parsed for the payload.
    ``cores`` / ``uses_mpi``
        Resource shape of the task.
    ``link_input_data`` / ``copy_input_data`` / ``copy_output_data``
        Staging directives; sources may use pattern placeholders such as
        ``$STAGE_1``, ``$PREV_SIMULATION`` or ``$SHARED`` which the
        execution plugin resolves (see
        :mod:`repro.core.execution_plugin`).  Each entry is either
        ``"path"`` or ``"path > newname"``.

    A pattern makes one kernel per task, so a kernel costs only what
    its user sets: its fields live in slots, and each container field
    (the lists above, ``environment`` and ``tags``) is created on first
    read or assignment.  ``__dict__`` is kept, so subclasses and users
    may still set attributes of their own.
    """

    __slots__ = (
        "name", "_plugin", "cores", "uses_mpi", "data_size",
        "_arguments", "_link_input_data", "_copy_input_data",
        "_copy_output_data", "_environment", "_tags", "__dict__",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self._plugin: KernelPlugin = get_plugin_instance(name)
        self.cores: int = 1
        self.uses_mpi: bool = False
        #: Modelled bytes per staged file (simulated mode).
        self.data_size: int = 1024
        self._arguments: list[str] | None = None
        self._link_input_data: list[str] | None = None
        self._copy_input_data: list[str] | None = None
        self._copy_output_data: list[str] | None = None
        self._environment: dict[str, str] | None = None
        self._tags: dict[str, Any] | None = None

    arguments = _created_on_access("_arguments", list, "Argument strings.")
    link_input_data = _created_on_access(
        "_link_input_data", list, "Inputs linked into the sandbox.")
    copy_input_data = _created_on_access(
        "_copy_input_data", list, "Inputs copied into the sandbox.")
    copy_output_data = _created_on_access(
        "_copy_output_data", list, "Outputs copied out of the sandbox.")
    environment = _created_on_access(
        "_environment", dict, "Environment over the machine config's.")
    tags = _created_on_access(
        "_tags", dict, "Free-form metadata propagated to the compute unit.")

    # -- binding -----------------------------------------------------------------

    @staticmethod
    def _parse_directive(entry: str) -> tuple[str, str]:
        """Split ``"src > dst"`` (dst defaults to the source basename)."""
        if ">" in entry:
            src, _, dst = entry.partition(">")
            return src.strip(), dst.strip()
        src = entry.strip()
        return src, src.rsplit("/", 1)[-1]

    def bind(self, resource: str, platform: PlatformSpec) -> ComputeUnitDescription:
        """Translate this kernel into a compute unit description.

        Called by the execution plugin after placeholder resolution; the
        returned description carries both the real payload and the cost
        model, so it is valid in either execution mode.
        """
        self._plugin.validate(self)
        config = self._plugin.config_for(resource)
        args = dict(self._iter_args())

        input_staging = [
            StagingDirective(source=src, target=dst, action="link",
                             nbytes=self.data_size)
            for src, dst in map(self._parse_directive,
                                self._link_input_data or ())
        ] + [
            StagingDirective(source=src, target=dst, action="copy",
                             nbytes=self.data_size)
            for src, dst in map(self._parse_directive,
                                self._copy_input_data or ())
        ]
        output_staging = [
            StagingDirective(source=src, target=dst, action="copy",
                             nbytes=self.data_size)
            for src, dst in map(self._parse_directive,
                                self._copy_output_data or ())
        ]

        description = ComputeUnitDescription(
            executable=config.executable or self.name,
            arguments=list(self._arguments or ()),
            environment={**config.environment, **(self._environment or {})},
            cores=self.cores,
            mpi=self.uses_mpi or self.cores > 1,
            name=self.name,
            payload=self._plugin.execute,
            duration_model=_DurationModel(
                self._plugin, MappingProxyType(args), config.speed_factor
            ),
            input_staging=input_staging,
            output_staging=output_staging,
            tags=dict(self._tags or ()),
        )
        description.validate()
        return description

    def signature(self) -> tuple:
        """Everything :meth:`bind` reads, as one key.

        Kernels with equal signatures bind to equal descriptions on a
        given resource, so a pattern driver binds each distinct signature
        once and every unit of that signature shares the result (see
        :meth:`repro.core.drivers.base.PatternDriver._bind`).  Staging
        lists are read as they are, so call this after placeholder
        resolution.  A subclass whose ``bind`` reads more attributes must
        add them here.  The key is unhashable when a value is (e.g. a
        list-valued tag); callers then bind without a cache.  A container
        that was never created reads as ``()``, the key of an empty one.
        """
        arguments, link, copy_in, copy_out, environment, tags = (
            self._arguments, self._link_input_data, self._copy_input_data,
            self._copy_output_data, self._environment, self._tags,
        )
        return (
            type(self), self.name, type(self._plugin),
            () if arguments is None else tuple(arguments),
            self.cores, self.uses_mpi,
            () if link is None else tuple(link),
            () if copy_in is None else tuple(copy_in),
            () if copy_out is None else tuple(copy_out),
            () if environment is None else tuple(environment.items()),
            self.data_size,
            () if tags is None else tuple(tags.items()),
        )

    def _iter_args(self):
        for arg in self._arguments or ():
            if arg.startswith("--") and "=" in arg:
                key, _, value = arg[2:].partition("=")
                yield key, value

    def get_arg(self, name: str, default: str | None = None) -> str | None:
        """Convenience lookup of ``--name=value`` in :attr:`arguments`."""
        return dict(self._iter_args()).get(name, default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Kernel {self.name} cores={self.cores} "
                f"args={self._arguments or []}>")


class _DurationModel:
    """A bound kernel's cost model: the plugin's modelled runtime for the
    kernel's arguments, scaled by the resource's speed factor.

    Every unit of one kernel signature shares it, so the arguments are a
    read-only mapping."""

    __slots__ = ("plugin", "args", "speed_factor")

    def __init__(self, plugin: "KernelPlugin", args: Mapping[str, str],
                 speed_factor: float) -> None:
        self.plugin = plugin
        self.args = args
        self.speed_factor = speed_factor

    def __call__(self, cores: int, platform: Any) -> float:
        seconds = self.plugin.duration(cores, platform, self.args)
        return seconds / self.speed_factor


class KernelPlugin:
    """Base class for concrete kernel plugins.

    Subclasses set :attr:`name`, implement :meth:`execute` (real execution)
    and :meth:`duration` (cost model) and may override
    :attr:`machine_configs` for per-resource tweaks.  ``"*"`` is the
    fallback configuration.
    """

    name: str = ""
    description: str = ""
    #: Arguments that must be present (``--arg=...``) for the kernel to bind.
    required_args: tuple[str, ...] = ()
    machine_configs: dict[str, MachineConfig] = {}

    def config_for(self, resource: str) -> MachineConfig:
        if resource in self.machine_configs:
            return self.machine_configs[resource]
        return self.machine_configs.get("*", MachineConfig())

    def validate(self, kernel: Kernel) -> None:
        present = {key for key, _ in kernel._iter_args()}
        missing = [arg for arg in self.required_args if arg not in present]
        if missing:
            raise KernelError(
                f"kernel {self.name!r} missing required arguments: "
                + ", ".join(f"--{m}=..." for m in missing)
            )

    # -- to override -----------------------------------------------------------

    def execute(self, ctx: Any) -> Any:
        """Run the task for real; *ctx* is a TaskContext."""
        raise NotImplementedError

    def duration(self, cores: int, platform: Any, args: dict[str, str]) -> float:
        """Modelled runtime in reference seconds (before speed factors)."""
        raise NotImplementedError
