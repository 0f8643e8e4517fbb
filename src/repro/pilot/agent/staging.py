"""Data staging between sandboxes.

Each unit runs in its own *sandbox* directory under the pilot sandbox.
Staging directives move data in before execution and out after it.  Paths
may use placeholders:

* ``$PILOT_SANDBOX``        — the pilot's shared directory,
* ``$UNIT_<uid>``           — another unit's sandbox (dependency outputs),
* ``$SHARED``               — alias of the pilot sandbox (EnTK convention).

The local stager really links/copies files; the simulated stager charges
modelled transfer time against the platform's shared-filesystem model.
"""

from __future__ import annotations

import functools
import shutil
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.exceptions import StagingError
from repro.pilot.description import StagingDirective
from repro.telemetry.span import Tracer
from repro.utils.logger import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.pilot.unit import ComputeUnit
    from repro.saga.adaptors.sim import SimContext

__all__ = ["resolve_placeholders", "LocalStager", "SimStager"]

log = get_logger("pilot.agent.staging")

#: ``done(units)`` once a list of units has been staged.
StagedCallback = Callable[[list["ComputeUnit"]], None]


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

    def __init__(self, pilot_sandbox: Path, tracer: Tracer | None = None) -> None:
        self.pilot_sandbox = pilot_sandbox
        self.unit_sandboxes: dict[str, Path] = {}
        self._tracer = tracer or Tracer(None)

    def register_unit(self, unit: "ComputeUnit") -> Path:
        """Create (and remember) the unit's sandbox directory."""
        sandbox = self.pilot_sandbox / unit.uid
        sandbox.mkdir(parents=True, exist_ok=True)
        self.unit_sandboxes[unit.uid] = sandbox
        unit.sandbox = str(sandbox)
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

    def _stage(self, name: str, units: list["ComputeUnit"], inbound: bool,
               done: StagedCallback) -> None:
        for unit in units:
            sandbox = self.unit_sandboxes[unit.uid]
            if inbound:
                directives = unit.description.input_staging
                src_base, dst_base = self.pilot_sandbox, sandbox
            else:
                directives = unit.description.output_staging
                src_base, dst_base = sandbox, self.pilot_sandbox
            with self._tracer.span(name, unit.uid, n=len(directives)):
                for directive in directives:
                    self._apply(directive, src_base, dst_base)
        done(units)

    def stage_in(self, unit: "ComputeUnit", done: Callable[[], None]) -> None:
        self._stage("agent.stage_in", [unit], True, lambda _: done())

    def stage_out(self, unit: "ComputeUnit", done: Callable[[], None]) -> None:
        self._stage("agent.stage_out", [unit], False, lambda _: done())

    def stage_in_bulk(self, units: list["ComputeUnit"], done: StagedCallback) -> None:
        self._stage("agent.stage_in", units, True, done)

    def stage_out_bulk(self, units: list["ComputeUnit"], done: StagedCallback) -> None:
        self._stage("agent.stage_out", units, False, done)


class SimStager:
    """Charge modelled transfer time on the virtual clock.

    Each call schedules one span and one DES event per *cost group* of
    its units; for a batch of one that is one per unit, and the common
    bulk case — no staging directives anywhere — is a single zero-cost
    event for the whole batch.
    """

    def __init__(self, context: "SimContext", tracer: Tracer | None = None) -> None:
        self.context = context
        self._tracer = tracer or Tracer(None)

    def register_unit(self, unit: "ComputeUnit") -> None:
        # Sandboxes are notional under simulation: only units that stage
        # data get a (fake) path, so a million units that stage nothing
        # do not hold a million paths.
        if unit.description.input_staging or unit.description.output_staging:
            unit.sandbox = f"/sim/{unit.uid}"

    def _cost(self, directives: list[StagingDirective]) -> float:
        fs = self.context.filesystem
        total = 0.0
        for directive in directives:
            if directive.action == "link":
                continue  # metadata-only
            total += fs.transfer_time(directive.nbytes)
        return total

    def _stage(self, name: str, units: list["ComputeUnit"], attr: str,
               done: StagedCallback) -> None:
        groups: dict[float, list["ComputeUnit"]] = {}
        for unit in units:
            directives = getattr(unit.description, attr)
            cost = self._cost(directives) if directives else 0.0
            groups.setdefault(cost, []).append(unit)
        kind = name.partition(".")[2]
        for cost, group in groups.items():
            span = self._tracer.begin(name, group[0].uid)
            self.context.sim.schedule(
                cost, functools.partial(self._staged, span, group, done),
                label=f"{kind}*{len(group)}:{group[0].uid}",
            )

    def _staged(self, span: str, units: list["ComputeUnit"],
                done: StagedCallback) -> None:
        self._tracer.end(span)
        done(units)

    def stage_in(self, unit: "ComputeUnit", done: Callable[[], None]) -> None:
        self._stage("agent.stage_in", [unit], "input_staging", lambda _: done())

    def stage_out(self, unit: "ComputeUnit", done: Callable[[], None]) -> None:
        self._stage("agent.stage_out", [unit], "output_staging", lambda _: done())

    def stage_in_bulk(self, units: list["ComputeUnit"], done: StagedCallback) -> None:
        self._stage("agent.stage_in", units, "input_staging", done)

    def stage_out_bulk(self, units: list["ComputeUnit"], done: StagedCallback) -> None:
        self._stage("agent.stage_out", units, "output_staging", done)
