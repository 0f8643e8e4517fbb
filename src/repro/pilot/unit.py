"""The compute unit: one schedulable task inside a pilot.

Since the million-unit scale envelope, :class:`ComputeUnit` is a
two-word ``__slots__`` view over one row of the session's columnar
:class:`~repro.pilot.unit_store.UnitStore` — every dense field (state,
timestamps, cores, attempts, slot occupancy) lives in parallel arrays,
every sparse field (result, exception, exclusions) in side dicts keyed
by row.  The public API is unchanged: the unit manager, agent, executor
and analytics all still talk to units.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.pilot.description import ComputeUnitDescription
from repro.pilot.states import UnitState
from repro.pilot.unit_store import UnitDescription, UnitStore, UnitTimestamps

__all__ = ["ComputeUnit"]


class ComputeUnit:
    """Runtime handle of one task.

    State transitions are validated and timestamped exactly once; the EnTK
    profiler derives every overhead in the paper's Fig. 3 from these
    timestamps.
    """

    __slots__ = ("_store", "_i")

    def __init__(self, description: ComputeUnitDescription, session: Any) -> None:
        self._store = session.unit_store
        self._i = self._store.add_bulk([description])[0]

    @classmethod
    def _of(cls, store: UnitStore, i: int) -> "ComputeUnit":
        """View over an already registered row."""
        unit = object.__new__(cls)
        unit._store = store
        unit._i = i
        return unit

    # -- identity & description ------------------------------------------------

    @property
    def uid(self) -> str:
        return self._store.uid(self._i)

    @property
    def description(self) -> ComputeUnitDescription | UnitDescription:
        """The unit's description.  A unit created by a pattern driver
        shares its kernel's bound description with every unit of the same
        signature and gets a read-only :class:`UnitDescription` view with
        its own tags; a unit built from a description object keeps that
        object."""
        return self._store.description(self._i)

    @property
    def session(self) -> Any:
        return self._store._session

    # -- state -----------------------------------------------------------------

    @property
    def state(self) -> UnitState:
        return self._store.state(self._i)

    def advance(self, target: UnitState) -> None:
        self._store.advance(self, target)

    def add_callback(self, callback: Callable[["ComputeUnit", UnitState], Any]) -> None:
        self._store.add_callback(self._i, callback)

    def remove_callback(
        self, callback: Callable[["ComputeUnit", UnitState], Any]
    ) -> None:
        """Detach *callback* if attached (idempotent)."""
        self._store.remove_callback(self._i, callback)

    # -- mutable runtime fields --------------------------------------------------

    @property
    def timestamps(self) -> UnitTimestamps:
        return UnitTimestamps(self._store, self._i)

    @property
    def result(self) -> Any:
        return self._store.result(self._i)

    @result.setter
    def result(self, value: Any) -> None:
        self._store.set_result(self._i, value)

    @property
    def exception(self) -> BaseException | None:
        return self._store.exception(self._i)

    @exception.setter
    def exception(self, exc: BaseException | None) -> None:
        self._store.set_exception(self._i, exc)

    @property
    def pilot_uid(self) -> str | None:
        return self._store.pilot_uid(self._i)

    @pilot_uid.setter
    def pilot_uid(self, uid: str | None) -> None:
        self._store.set_pilot_uid(self._i, uid)

    @property
    def slots(self) -> list[int]:
        """Core ids occupied while executing."""
        return self._store.slots(self._i)

    @slots.setter
    def slots(self, slots: list[int]) -> None:
        self._store.set_slots(self._i, slots)

    @property
    def sandbox(self) -> str | None:
        return self._store.sandbox(self._i)

    @sandbox.setter
    def sandbox(self, path: str | None) -> None:
        self._store.set_sandbox(self._i, path)

    @property
    def attempts(self) -> int:
        """Execution attempts started (the agent increments at each launch)."""
        return self._store.attempts(self._i)

    @attempts.setter
    def attempts(self, value: int) -> None:
        self._store.set_attempts(self._i, value)

    @property
    def excluded_nodes(self) -> frozenset[tuple[str, int]] | set:
        """``(pilot_uid, node)`` pairs this unit must not be placed on again
        (populated on node kills when the retry policy excludes failed
        nodes).  Read-only; record exclusions via :meth:`exclude_node`."""
        return self._store.excluded_nodes(self._i)

    def exclude_node(self, pilot_uid: str, node: int) -> None:
        self._store.exclude_node(self._i, pilot_uid, node)

    def avoided_nodes(self, pilot_uid: str) -> frozenset[int]:
        """Nodes of pilot *pilot_uid* this unit must not be placed on."""
        excluded = self._store.excluded_nodes(self._i)
        if not excluded:
            return frozenset()
        return frozenset(node for puid, node in excluded if puid == pilot_uid)

    # -- introspection -----------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.state.is_final

    def duration(self, start: UnitState, end: UnitState) -> float | None:
        """Seconds between two recorded state entries, if both happened."""
        timestamps = self.timestamps
        t0 = timestamps.get(start.value)
        t1 = timestamps.get(end.value)
        if t0 is None or t1 is None:
            return None
        return t1 - t0

    @property
    def execution_time(self) -> float | None:
        """Time spent in EXECUTING (the task's own runtime)."""
        return self.duration(UnitState.EXECUTING, UnitState.AGENT_STAGING_OUTPUT)

    def wait(self, timeout: float | None = None) -> UnitState:
        """Wait until the unit is final and return its state.

        A local session blocks for at most *timeout* seconds; a simulated
        one steps the DES until the unit is final (as ``wait_units`` does)
        or the simulation runs dry.  See ``Session.wait_until``."""
        self._store._session.wait_until(
            lambda: self.state.is_final, timeout=timeout
        )
        return self.state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ComputeUnit {self.uid} {self.state.value} "
            f"cores={self._store.cores(self._i)}>"
        )
