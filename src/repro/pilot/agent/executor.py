"""Unit executors: really run payloads, or model them on the virtual clock.

Both executors expose one lifecycle method::

    launch_units(units, on_done)   # on_done(units, exception)

and are responsible for advancing units into ``EXECUTING`` at the moment
user code (really or notionally) starts.  ``on_done`` reports finished
units with ``exception=None`` (results already stored on the units) or
failed ones with their exception.  The agent never needs to know which
mode it is running in.
"""

from __future__ import annotations

import concurrent.futures
import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.pilot.agent.launch_method import get_launch_method
from repro.pilot.description import ComputeUnitDescription
from repro.pilot.faults import TaskFault
from repro.pilot.states import UnitState
from repro.telemetry.span import Tracer
from repro.utils.logger import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.pilot.session import Session
    from repro.pilot.unit import ComputeUnit

__all__ = ["TaskContext", "LocalExecutor", "SimExecutor"]

log = get_logger("pilot.agent.executor")

DoneCallback = Callable[[list["ComputeUnit"], BaseException | None], None]


@dataclass
class TaskContext:
    """Everything a really-executing payload may use.

    ``cores`` plays the role of the MPI world size: payloads that scale
    split their work into ``cores`` shards (see the MD kernels).  ``args``
    gives parsed ``--key=value`` kernel arguments.
    """

    description: ComputeUnitDescription
    sandbox: Path | None
    cores: int
    uid: str
    args: dict[str, str] = field(default_factory=dict)

    @classmethod
    def for_unit(cls, unit: "ComputeUnit") -> "TaskContext":
        desc = unit.description
        parsed: dict[str, str] = {}
        for arg in desc.arguments:
            if arg.startswith("--") and "=" in arg:
                key, _, value = arg[2:].partition("=")
                parsed[key] = value
        sandbox = Path(unit.sandbox) if unit.sandbox else None
        return cls(
            description=desc,
            sandbox=sandbox,
            cores=desc.cores,
            uid=unit.uid,
            args=parsed,
        )

    def arg(self, name: str, default: str | None = None) -> str:
        value = self.args.get(name, default)
        if value is None:
            raise KeyError(f"kernel argument --{name}=... is required")
        return value

    def path(self, name: str) -> Path:
        """Resolve the file argument *name* inside the unit sandbox."""
        if self.sandbox is None:
            raise RuntimeError("task has no sandbox (simulated mode?)")
        return self.sandbox / self.arg(name)


class LocalExecutor:
    """Run payloads in a thread pool on this machine.

    The pool is sized to the pilot's core count; the agent's slot
    accounting guarantees no more than that many units are in flight, so
    every launched unit gets a worker immediately.
    """

    def __init__(self, session: "Session", total_cores: int) -> None:
        self.session = session
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(total_cores, 1), thread_name_prefix="unit-exec"
        )
        self._shutdown = False
        self._tracer = getattr(session, "tracer", None) or Tracer(None)
        self._metrics = getattr(session, "metrics", None)

    def launch_units(self, units: list["ComputeUnit"], on_done: DoneCallback) -> None:
        for unit in units:
            get_launch_method(unit.description)  # validates cores/mpi coherence
            self._pool.submit(self._run, unit, on_done)

    def _run(self, unit: "ComputeUnit", on_done: DoneCallback) -> None:
        self.session.unit_store.advance_many([unit], UnitState.EXECUTING)
        cores = unit.description.cores
        if self._metrics is not None and unit.pilot_uid:
            self._metrics.adjust(f"agent.{unit.pilot_uid}.cores_busy", cores)
        try:
            result = None
            if unit.description.payload is not None:
                with self._tracer.span("exec.payload", unit.uid,
                                       component="execution"):
                    result = unit.description.payload(TaskContext.for_unit(unit))
        except BaseException as exc:  # noqa: BLE001 - task failure is data
            log.debug("unit %s payload failed: %r", unit.uid, exc)
            on_done([unit], exc)
            return
        finally:
            if self._metrics is not None and unit.pilot_uid:
                self._metrics.adjust(f"agent.{unit.pilot_uid}.cores_busy", -cores)
        unit.result = result
        on_done([unit], None)

    def kill(self, unit: "ComputeUnit") -> None:
        """Real threads cannot be killed mid-payload; kills are sim-only."""

    def shutdown(self) -> None:
        if not self._shutdown:
            self._shutdown = True
            self._pool.shutdown(wait=False, cancel_futures=True)


class _LaunchGroup:
    """Units launched together with one (overhead, runtime) pair.

    One DES event serves the whole group: first its launch, then its
    finish.  ``units`` (row -> unit) holds the members still due to
    finish with the group; ``faults`` (row -> offset) the members whose
    task-fault draw fired, which leave the group at start for an event of
    their own.  A kill removes its unit; a group left empty has its
    pending event cancelled.
    """

    __slots__ = ("units", "faults", "runtime", "on_done", "ref", "span",
                 "event", "started")

    def __init__(self, runtime: float, on_done: DoneCallback) -> None:
        self.units: dict[int, "ComputeUnit"] = {}
        self.faults: dict[int, float] = {}
        self.runtime = runtime
        self.on_done = on_done
        self.ref = ""
        self.span = ""
        self.event: Any = None
        self.started = False


class SimExecutor:
    """Model payload execution as a timed event on the virtual clock.

    Modelled duration = launch overhead (per launch method) + the unit's
    ``modelled_runtime`` on the session platform.  Payloads may still be
    *evaluated* when ``evaluate_payloads`` is set — useful for validating
    science results at small scale while keeping virtual timing — but by
    default they are skipped.
    """

    def __init__(self, session: "Session", *, evaluate_payloads: bool = False) -> None:
        if session.sim_context is None:
            raise RuntimeError("SimExecutor requires a simulated session")
        self.session = session
        self.context = session.sim_context
        self.evaluate_payloads = evaluate_payloads
        self._tracer = getattr(session, "tracer", None) or Tracer(None)
        self._metrics = getattr(session, "metrics", None)
        #: Launch group of every unit still due to finish with one, and the
        #: pending fault event of every faulted executing unit (both keyed
        #: by unit row), so a node or pilot failure can kill either.
        self._group_of: dict[int, _LaunchGroup] = {}
        self._faults: dict[int, Any] = {}

    def _adjust_busy(self, units: list["ComputeUnit"], sign: int) -> None:
        if self._metrics is not None and units[0].pilot_uid:
            self._metrics.adjust(
                f"agent.{units[0].pilot_uid}.cores_busy",
                sign * sum(u.description.cores for u in units),
            )

    def launch(self, unit: "ComputeUnit", on_done: Callable[..., None]) -> None:
        """One unit, reported as ``on_done(unit, ok, result, exception)``."""
        self._launch([unit], lambda units, exc: on_done(
            units[0], exc is None, units[0].result, exc))

    def launch_units(self, units: list["ComputeUnit"], on_done: DoneCallback) -> None:
        """Launch *units*: one launch and one finish DES event per
        (overhead, runtime) group, plus one per drawn task fault."""
        self._launch(units, on_done)

    def _launch(self, units: list["ComputeUnit"], on_done: DoneCallback) -> None:
        platform = self.context.platform
        groups: dict[tuple[float, float], _LaunchGroup] = {}
        for unit in units:
            desc = unit.description
            overhead = get_launch_method(desc).launch_overhead(desc.cores, platform)
            runtime = desc.modelled_runtime(platform) / platform.node.core_speed
            group = groups.get((overhead, runtime))
            if group is None:
                group = groups[(overhead, runtime)] = _LaunchGroup(runtime, on_done)
            group.units[unit._i] = unit
            fault_offset = self.session.fault_model.draw(runtime)
            if fault_offset is not None:
                group.faults[unit._i] = fault_offset
            self._group_of[unit._i] = group
        for (overhead, _), group in groups.items():
            group.ref = next(iter(group.units.values())).uid
            group.span = self._tracer.begin("exec.launch", group.ref)
            group.event = self.context.sim.schedule(
                overhead, functools.partial(self._start, group),
                label=f"launch*{len(group.units)}:{group.ref}",
            )

    def _start(self, group: _LaunchGroup) -> None:
        self._tracer.end(group.span)
        group.span = ""
        group.started = True
        members = list(group.units.values())
        self.session.unit_store.advance_many(members, UnitState.EXECUTING)
        self._adjust_busy(members, 1)
        sim = self.context.sim
        for i, offset in group.faults.items():
            unit = group.units.pop(i)
            del self._group_of[i]
            self._faults[i] = sim.schedule(
                offset, functools.partial(self._fail, unit, offset, group),
                label=f"fault:{unit.uid}",
            )
        group.event = None
        if group.units:
            group.event = sim.schedule(
                group.runtime, functools.partial(self._finish, group),
                label=f"exec*{len(group.units)}:{group.ref}",
            )

    def _fail(self, unit: "ComputeUnit", offset: float, group: _LaunchGroup) -> None:
        del self._faults[unit._i]
        self._adjust_busy([unit], -1)
        self.session.prof.event("task_fault", unit.uid,
                                at=offset, runtime=group.runtime)
        group.on_done([unit], TaskFault(f"injected fault in {unit.uid}"))

    def _finish(self, group: _LaunchGroup) -> None:
        group.event = None  # the event holds this callback: break the cycle
        members = list(group.units.values())
        for i in group.units:
            del self._group_of[i]
        group.units.clear()
        self._adjust_busy(members, -1)
        if not self.evaluate_payloads:
            group.on_done(members, None)
            return
        finished = []
        for unit in members:
            if unit.description.payload is None:
                finished.append(unit)
                continue
            try:
                unit.result = unit.description.payload(TaskContext.for_unit(unit))
            except BaseException as exc:  # noqa: BLE001
                group.on_done([unit], exc)
                continue
            finished.append(unit)
        if finished:
            group.on_done(finished, None)

    def kill(self, unit: "ComputeUnit") -> None:
        """Take the unit out of its pending execution (node/pilot death).

        The unit's ``on_done`` is *not* invoked: the caller owns the
        failure handling (requeue or fail), exactly like a real node crash
        produces no exit status.  The rest of its launch group carries
        on; a group left empty has its DES event cancelled.
        """
        sim = self.context.sim
        event = self._faults.pop(unit._i, None)
        if event is not None:
            sim.cancel(event)
            self._adjust_busy([unit], -1)
            return
        group = self._group_of.pop(unit._i, None)
        if group is None:
            return
        del group.units[unit._i]
        group.faults.pop(unit._i, None)
        if not group.units:
            sim.cancel(group.event)
            group.event = None
            self._tracer.end(group.span)
            group.span = ""
        if group.started:
            self._adjust_busy([unit], -1)

    def shutdown(self) -> None:  # symmetry with LocalExecutor
        sim = self.context.sim
        for event in self._faults.values():
            sim.cancel(event)
        self._faults.clear()
        groups = {id(g): g for g in self._group_of.values()}.values()
        for group in groups:
            sim.cancel(group.event)
        self._group_of.clear()
        for _, span in sorted((g.ref, g.span) for g in groups if g.span):
            self._tracer.end(span)
