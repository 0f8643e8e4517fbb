"""Unit executors: really run payloads, or model them on the virtual clock.

Both executors expose one lifecycle method::

    launch_units(units, on_done)   # on_done(units, exception)

and are responsible for advancing units into ``EXECUTING`` at the moment
user code (really or notionally) starts.  ``on_done`` reports finished
units with ``exception=None`` (results already stored on the units) or
failed ones with their exception.  The agent never needs to know which
mode it is running in.

The ``EXECUTING`` state event carries the ``pilot`` and the ``cores``
that start, from which ``MetricsRegistry.from_events`` derives the
``agent.<pilot>.cores_busy`` gauge: the executors record no gauge, and
the only span they open is the local ``exec.payload``.
"""

from __future__ import annotations

import concurrent.futures
import functools
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.pilot.agent.launch_method import get_launch_method
from repro.pilot.description import ComputeUnitDescription
from repro.pilot.faults import TaskFault
from repro.pilot.states import UnitState
from repro.pilot.unit_store import WIDTH
from repro.utils.logger import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.pilot.session import Session
    from repro.pilot.unit import ComputeUnit
    from repro.pilot.unit_store import UnitDescription

__all__ = ["TaskContext", "LocalExecutor", "SimExecutor"]

log = get_logger("pilot.agent.executor")

DoneCallback = Callable[[list["ComputeUnit"], BaseException | None], None]


class TaskContext:
    """Everything a really-executing payload may use.

    ``cores`` plays the role of the MPI world size: payloads that scale
    split their work into ``cores`` shards (see the MD kernels).  ``args``
    gives parsed ``--key=value`` kernel arguments.  ``sandbox`` is the
    unit's sandbox directory, created on first access (see
    :meth:`~repro.pilot.agent.staging.LocalStager.register_units`).
    """

    __slots__ = ("description", "_sandbox", "cores", "uid", "args")

    def __init__(
        self, description: "ComputeUnitDescription | UnitDescription",
        sandbox: Path | None, cores: int, uid: str,
        args: dict[str, str] | None = None,
    ) -> None:
        self.description = description
        self._sandbox = sandbox
        self.cores = cores
        self.uid = uid
        self.args = {} if args is None else args

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

    @property
    def sandbox(self) -> Path | None:
        """The unit's sandbox directory, made if it does not exist yet."""
        sandbox = self._sandbox
        if sandbox is not None:
            sandbox.mkdir(parents=True, exist_ok=True)
        return sandbox

    def arg(self, name: str, default: str | None = None) -> str:
        value = self.args.get(name, default)
        if value is None:
            raise KeyError(f"kernel argument --{name}=... is required")
        return value

    def path(self, name: str) -> Path:
        """Resolve the file argument *name* inside the unit sandbox."""
        sandbox = self.sandbox
        if sandbox is None:
            raise RuntimeError("task has no sandbox (simulated mode?)")
        return sandbox / self.arg(name)


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
        self._tracer = session.tracer

    def launch_units(self, units: list["ComputeUnit"], on_done: DoneCallback) -> None:
        store = self.session.unit_store
        for unit in units:
            # validates cores/mpi coherence
            get_launch_method(store.shared_description(unit._i))
            self._pool.submit(self._run, unit, on_done)

    def _run(self, unit: "ComputeUnit", on_done: DoneCallback) -> None:
        store = self.session.unit_store
        store.advance_many(
            [unit], UnitState.EXECUTING, pilot=unit.pilot_uid, cores=WIDTH
        )
        try:
            result = None
            payload = store.shared_description(unit._i).payload
            if payload is not None:
                with self._tracer.span("exec.payload", unit.uid,
                                       component="execution"):
                    result = payload(TaskContext.for_unit(unit))
        except BaseException as exc:  # noqa: BLE001 - task failure is data
            log.debug("unit %s payload failed: %r", unit.uid, exc)
            on_done([unit], exc)
            return
        unit.result = result
        on_done([unit], None)

    def kill(self, unit: "ComputeUnit") -> None:
        """Real threads cannot be killed mid-payload; kills are sim-only."""

    def shutdown(self) -> None:
        """Drop queued payloads and wait for running ones: no worker
        thread outlives its pilot."""
        if not self._shutdown:
            self._shutdown = True
            self._pool.shutdown(wait=True, cancel_futures=True)


class _LaunchGroup:
    """Units launched together with one (overhead, runtime) pair.

    One DES event serves the whole group: first its launch, then its
    finish.  ``units`` (row -> unit) holds the members still due to
    finish with the group; ``faults`` (row -> offset) the members whose
    task-fault draw fired, which leave the group at start for an event of
    their own.  A kill removes its unit; a group left empty has its
    pending event cancelled.
    """

    __slots__ = ("units", "faults", "runtime", "on_done", "ref", "event",
                 "started")

    def __init__(self, runtime: float, on_done: DoneCallback) -> None:
        self.units: dict[int, "ComputeUnit"] = {}
        self.faults: dict[int, float] = {}
        self.runtime = runtime
        self.on_done = on_done
        self.ref = ""
        self.event: Any = None
        self.started = False


class SimExecutor:
    """Model payload execution as a timed event on the virtual clock.

    Modelled duration = launch overhead (per launch method) + the unit's
    ``modelled_runtime`` on the session platform.  Payloads are not run.
    """

    def __init__(self, session: "Session") -> None:
        if session.sim_context is None:
            raise RuntimeError("SimExecutor requires a simulated session")
        self.session = session
        self.context = session.sim_context
        #: Launch group of every unit still due to finish with one, and the
        #: pending fault event of every faulted executing unit (both keyed
        #: by unit row), so a node or pilot failure can kill either.
        self._group_of: dict[int, _LaunchGroup] = {}
        self._faults: dict[int, Any] = {}

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
        description = self.session.unit_store.shared_description
        fault_model = self.session.fault_model
        draw = fault_model.draw if fault_model.enabled else None
        # (overhead, runtime) per distinct description object.
        timing: dict[int, tuple[float, float]] = {}
        groups: dict[tuple[float, float], _LaunchGroup] = {}
        group_of = self._group_of
        last = None
        for unit in units:
            desc = description(unit._i)
            if desc is not last:  # units of a kernel come in runs
                last = desc
                key = timing.get(id(desc))
                if key is None:
                    overhead = get_launch_method(desc).launch_overhead(
                        desc.cores, platform
                    )
                    runtime = desc.modelled_runtime(platform) / platform.node.core_speed
                    key = timing[id(desc)] = (overhead, runtime)
                group = groups.get(key)
                if group is None:
                    group = groups[key] = _LaunchGroup(key[1], on_done)
            group.units[unit._i] = unit
            if draw is not None:
                fault_offset = draw(group.runtime)
                if fault_offset is not None:
                    group.faults[unit._i] = fault_offset
            group_of[unit._i] = group
        for (overhead, _), group in groups.items():
            group.ref = next(iter(group.units.values())).uid
            group.event = self.context.sim.schedule(
                overhead, functools.partial(self._start, group),
                label=f"launch*{len(group.units)}:{group.ref}",
            )

    def _start(self, group: _LaunchGroup) -> None:
        group.started = True
        members = list(group.units.values())
        self.session.unit_store.advance_many(
            members, UnitState.EXECUTING, pilot=members[0].pilot_uid,
            cores=WIDTH,
        )
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
        self.session.prof.event("task_fault", unit.uid,
                                at=offset, runtime=group.runtime)
        group.on_done([unit], TaskFault(f"injected fault in {unit.uid}"))

    def _finish(self, group: _LaunchGroup) -> None:
        group.event = None  # the event holds this callback: break the cycle
        members = list(group.units.values())
        for i in group.units:
            del self._group_of[i]
        group.units.clear()
        group.on_done(members, None)

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
            return
        group = self._group_of.pop(unit._i, None)
        if group is None:
            return
        del group.units[unit._i]
        group.faults.pop(unit._i, None)
        if not group.units:
            sim.cancel(group.event)
            group.event = None

    def shutdown(self) -> None:  # symmetry with LocalExecutor
        sim = self.context.sim
        for event in self._faults.values():
            sim.cancel(event)
        self._faults.clear()
        for group in {id(g): g for g in self._group_of.values()}.values():
            sim.cancel(group.event)
        self._group_of.clear()
