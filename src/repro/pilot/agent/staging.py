"""Data staging between sandboxes.

Each unit runs in its own *sandbox* directory under the pilot sandbox,
created locally on first use (see :meth:`LocalStager.register_units`).
Staging directives move data in before execution and out after it.  Paths
may use placeholders:

* ``$PILOT_SANDBOX``        — the pilot's shared directory,
* ``$UNIT_<uid>``           — another unit's sandbox (dependency outputs),
* ``$SHARED``               — alias of the pilot sandbox (EnTK convention).

The local stager really links/copies files; the simulated stager charges
modelled transfer time against the platform's shared-filesystem model.
Neither opens spans: a staging phase is the interval of the unit's
``AGENT_STAGING_INPUT``/``AGENT_STAGING_OUTPUT`` state, and
:class:`~repro.telemetry.span.SpanBuilder` derives the ``agent.stage_in``
and ``agent.stage_out`` spans from the state events.
"""

from __future__ import annotations

import functools
import shutil
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.exceptions import StagingError
from repro.pilot.description import StagingDirective
from repro.utils.logger import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.pilot.unit import ComputeUnit
    from repro.saga.adaptors.sim import SimContext

__all__ = ["resolve_placeholders", "LocalStager", "SimStager"]

log = get_logger("pilot.agent.staging")

#: ``done(units)`` once a list of units has been staged.
StagedCallback = Callable[[list["ComputeUnit"]], None]
#: ``failed(units, exc)`` for units whose staging failed.
FailedCallback = Callable[[list["ComputeUnit"], BaseException], None]


def resolve_placeholders(path: str, pilot_sandbox: Path, unit_sandboxes: dict[str, Path]) -> Path:
    """Expand ``$PILOT_SANDBOX`` / ``$SHARED`` / ``$UNIT_<uid>`` in *path*."""
    if path.startswith("$PILOT_SANDBOX") or path.startswith("$SHARED"):
        prefix = "$PILOT_SANDBOX" if path.startswith("$PILOT_SANDBOX") else "$SHARED"
        rest = path[len(prefix):].lstrip("/")
        return pilot_sandbox / rest if rest else pilot_sandbox
    if path.startswith("$UNIT_"):
        head, _, rest = path.partition("/")
        uid = head[len("$UNIT_"):]
        if uid not in unit_sandboxes:
            raise StagingError(f"unknown unit sandbox in staging path: {path!r}")
        return unit_sandboxes[uid] / rest if rest else unit_sandboxes[uid]
    return Path(path)


class LocalStager:
    """Real file operations between real sandboxes."""

    def __init__(self, pilot_sandbox: Path) -> None:
        self.pilot_sandbox = pilot_sandbox
        self.unit_sandboxes: dict[str, Path] = {}

    def register_units(self, units: list["ComputeUnit"]) -> None:
        """Remember each unit's sandbox path.  No directory is made here:
        a unit's sandbox is created on first use, when a staging
        directive writes into it (:meth:`_apply` makes a target's parent)
        or its payload reads ``TaskContext.sandbox``, so a bag of units
        that never touch files makes no directory at all."""
        sandboxes = self.unit_sandboxes
        for unit in units:
            sandbox = sandboxes[unit.uid] = self.pilot_sandbox / unit.uid
            unit.sandbox = str(sandbox)

    def register_unit(self, unit: "ComputeUnit") -> Path:
        """Register one unit and create its sandbox directory now."""
        self.register_units([unit])
        sandbox = self.unit_sandboxes[unit.uid]
        sandbox.mkdir(parents=True, exist_ok=True)
        return sandbox

    def _resolve(self, path: str, default_base: Path) -> Path:
        resolved = resolve_placeholders(path, self.pilot_sandbox, self.unit_sandboxes)
        if not resolved.is_absolute():
            resolved = default_base / resolved
        return resolved

    def _apply(self, directive: StagingDirective, src_base: Path, dst_base: Path) -> None:
        source = self._resolve(directive.source, src_base)
        target = self._resolve(directive.target, dst_base)
        target.parent.mkdir(parents=True, exist_ok=True)
        if not source.exists():
            raise StagingError(f"staging source does not exist: {source}")
        if directive.action == "link":
            if target.exists() or target.is_symlink():
                target.unlink()
            target.symlink_to(source)
        else:  # copy and transfer are both real copies locally
            if source.is_dir():
                shutil.copytree(source, target, dirs_exist_ok=True)
            else:
                shutil.copy2(source, target)

    def _stage(self, units: list["ComputeUnit"], inbound: bool,
               done: StagedCallback, failed: FailedCallback) -> None:
        """Stage each unit; a unit whose staging fails goes to *failed*
        and the rest to *done*."""
        staged = []
        for unit in units:
            sandbox = self.unit_sandboxes[unit.uid]
            description = unit._store.shared_description(unit._i)
            if inbound:
                directives = description.input_staging
                src_base, dst_base = self.pilot_sandbox, sandbox
            else:
                directives = description.output_staging
                src_base, dst_base = sandbox, self.pilot_sandbox
            try:
                for directive in directives:
                    self._apply(directive, src_base, dst_base)
            except (StagingError, OSError) as exc:
                failed([unit], exc)
                continue
            staged.append(unit)
        if staged:
            done(staged)

    def stage_in_bulk(self, units: list["ComputeUnit"], done: StagedCallback,
                      failed: FailedCallback) -> None:
        self._stage(units, True, done, failed)

    def stage_out_bulk(self, units: list["ComputeUnit"], done: StagedCallback,
                       failed: FailedCallback) -> None:
        self._stage(units, False, done, failed)


class SimStager:
    """Charge modelled transfer time on the virtual clock.

    Each call schedules one DES event per *cost group* of its units; the
    common case — no staging directives anywhere — is a single zero-cost
    event for the whole list.
    """

    def __init__(self, context: "SimContext") -> None:
        self.context = context

    def register_units(self, units: list["ComputeUnit"]) -> None:
        # Sandboxes are notional under simulation: only units that stage
        # data get a (fake) path, so a million units that stage nothing
        # do not hold a million paths.
        for unit in units:
            description = unit._store.shared_description(unit._i)
            if description.input_staging or description.output_staging:
                unit.sandbox = f"/sim/{unit.uid}"

    def _cost(self, directives: list[StagingDirective]) -> float:
        fs = self.context.filesystem
        total = 0.0
        for directive in directives:
            if directive.action == "link":
                continue  # metadata-only
            total += fs.transfer_time(directive.nbytes)
        return total

    def _stage(self, kind: str, units: list["ComputeUnit"], attr: str,
               done: StagedCallback) -> None:
        groups: dict[float, list["ComputeUnit"]] = {}
        shared = units[0]._store.shared_description
        last = None
        for unit in units:
            description = shared(unit._i)
            if description is not last:  # units of a kernel come in runs
                last = description
                directives = getattr(description, attr)
                cost = self._cost(directives) if directives else 0.0
                group = groups.setdefault(cost, [])
            group.append(unit)
        for cost, group in groups.items():
            self.context.sim.schedule(
                cost, functools.partial(done, group),
                label=f"{kind}*{len(group)}:{group[0].uid}",
            )

    def stage_in(self, unit: "ComputeUnit", done: Callable[[], None]) -> None:
        self._stage("stage_in", [unit], "input_staging", lambda _: done())

    def stage_out(self, unit: "ComputeUnit", done: Callable[[], None]) -> None:
        self._stage("stage_out", [unit], "output_staging", lambda _: done())

    def stage_in_bulk(self, units: list["ComputeUnit"], done: StagedCallback,
                      failed: FailedCallback) -> None:
        """*failed* is never called: modelled staging cannot fail."""
        self._stage("stage_in", units, "input_staging", done)

    def stage_out_bulk(self, units: list["ComputeUnit"], done: StagedCallback,
                       failed: FailedCallback) -> None:
        """*failed* is never called: modelled staging cannot fail."""
        self._stage("stage_out", units, "output_staging", done)
