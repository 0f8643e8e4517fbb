"""The unit manager: routes compute units to pilots and tracks them."""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable

from repro.exceptions import PilotError, SchedulingError
from repro.pilot.description import ComputeUnitDescription
from repro.pilot.faults import NodeFailure
from repro.pilot.pilot import ComputePilot
from repro.pilot.states import UnitState
from repro.pilot.unit import ComputeUnit
from repro.utils.logger import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.pilot.session import Session

__all__ = ["UnitManager"]

log = get_logger("pilot.umgr")


class UnitManager:
    """Client-side unit scheduling (unit -> pilot) and bookkeeping.

    The unit-to-pilot scheduler is round-robin over the added pilots,
    skipping pilots too small for a unit; with one pilot (every experiment
    in the paper) it degenerates to direct routing.
    """

    def __init__(self, session: "Session") -> None:
        self.session = session
        self.uid = "umgr." + session.uid
        self.pilots: list[ComputePilot] = []
        self.units: list[ComputeUnit] = []
        self._rr_next = 0
        self._lock = threading.RLock()
        self._all_done = threading.Condition(self._lock)
        self._callbacks: list[Callable[[ComputeUnit, UnitState], Any]] = []

    # -- pilots ---------------------------------------------------------------

    def add_pilots(self, pilots: list[ComputePilot] | ComputePilot) -> None:
        if isinstance(pilots, ComputePilot):
            pilots = [pilots]
        for pilot in pilots:
            pilot.agent.on_unit_final(self._on_unit_final)
            pilot.agent.on_unit_killed(self._on_unit_killed)
            self.pilots.append(pilot)

    # -- units -----------------------------------------------------------------

    def register_callback(self, callback: Callable[[ComputeUnit, UnitState], Any]) -> None:
        """``callback(unit, state)`` on every unit state transition."""
        self._callbacks.append(callback)

    def submit_units(
        self,
        descriptions: list[ComputeUnitDescription] | ComputeUnitDescription,
        callback: Callable[[ComputeUnit, UnitState], Any] | None = None,
        extra_delay: float = 0.0,
    ) -> list[ComputeUnit]:
        """Create units, schedule them onto pilots, forward to agents.

        *callback* is attached to every created unit *before* it can make
        any progress, so callers (e.g. pattern drivers) cannot miss a
        transition even for tasks that finish instantly.

        Forwarding is *bulk*: all units bound to one pilot travel in one
        message, paying one network delay (RADICAL-Pilot bulk submission).
        """
        if not self.pilots:
            raise PilotError("unit manager has no pilots")
        if isinstance(descriptions, ComputeUnitDescription):
            descriptions = [descriptions]
        store = self.session.unit_store
        shared: list[Callable[[ComputeUnit, UnitState], Any]] = []
        if callback is not None:
            shared.append(callback)
        shared.extend(self._callbacks)
        units: list[ComputeUnit] = []
        routing: dict[str, tuple[ComputePilot, list[ComputeUnit]]] = {}
        with self.session.tracer.span(
            "umgr.submit", self.uid, n=len(descriptions)
        ):
            for batch in store.batches(descriptions):
                rows = store.add_bulk(batch)
                new = [ComputeUnit._of(store, i) for i in rows]
                store.set_group_callbacks(rows, shared)
                store.advance_many(new, UnitState.UMGR_SCHEDULING)
                for unit in new:
                    pilot = self._pick_pilot(unit.description)
                    routing.setdefault(pilot.uid, (pilot, []))[1].append(unit)
                units.extend(new)
            with self._lock:
                self.units.extend(units)

            for pilot, batch in routing.values():
                self._forward(pilot, batch, extra_delay)
        return units

    def _pick_pilot(self, description: ComputeUnitDescription) -> ComputePilot:
        n = len(self.pilots)
        for offset in range(n):
            pilot = self.pilots[(self._rr_next + offset) % n]
            if pilot.cores >= description.cores:
                self._rr_next = (self._rr_next + offset + 1) % n
                return pilot
        raise SchedulingError(
            f"no pilot can hold a {description.cores}-core unit"
        )

    def _forward(
        self, pilot: ComputePilot, batch: list[ComputeUnit], extra_delay: float = 0.0
    ) -> None:
        if self.session.is_simulated:
            context = self.session.sim_context
            delay = extra_delay + context.network.bulk_delay(len(batch))
            context.sim.schedule(
                delay,
                lambda: pilot.agent.submit_units(batch),
                label=f"umgr_forward:{pilot.uid}",
            )
        else:
            pilot.agent.submit_units(batch)

    # -- fault recovery ----------------------------------------------------------

    def _on_unit_killed(self, unit: ComputeUnit, exc: BaseException) -> None:
        """A node or pilot death took the unit down mid-flight.

        The session retry policy decides between another attempt (back
        through UMGR_SCHEDULING, with exponential backoff charged as extra
        forwarding delay) and surfacing a terminal FAILED.
        """
        policy = self.session.retry_policy
        if policy is None or not policy.should_retry(unit.attempts):
            self._fail_unit(unit, exc)
            return
        pilot = self._pick_retry_pilot(unit)
        if pilot is None:
            self._fail_unit(
                unit,
                NodeFailure(
                    f"unit {unit.uid} has no pilot left with enough "
                    f"non-excluded cores"
                ),
            )
            return
        self.session.unit_store.advance_many([unit], UnitState.UMGR_SCHEDULING)
        delay = 0.0
        if self.session.is_simulated:
            rng = None
            if policy.jitter > 0:
                rng = self.session.sim_context.streams.get("retry_backoff")
            delay = policy.jittered_delay(unit.attempts, rng)
        self.session.prof.event(
            "unit_requeue", unit.uid,
            attempt=unit.attempts, delay=delay, reason=type(exc).__name__,
        )
        log.info("requeueing unit %s after %s (attempt %d/%d, backoff %.1fs)",
                 unit.uid, type(exc).__name__, unit.attempts,
                 policy.max_attempts, delay)
        self._forward(pilot, [unit], extra_delay=delay)

    def _pick_retry_pilot(self, unit: ComputeUnit) -> ComputePilot | None:
        """Round-robin over pilots that can still place the unit."""
        n = len(self.pilots)
        for offset in range(n):
            pilot = self.pilots[(self._rr_next + offset) % n]
            if pilot.state.is_final or pilot.cores < unit.description.cores:
                continue
            avoid = frozenset(
                node for puid, node in unit.excluded_nodes if puid == pilot.uid
            )
            if (
                avoid
                and pilot.agent.slots.eligible_cores(avoid)
                < unit.description.cores
            ):
                continue
            self._rr_next = (self._rr_next + offset + 1) % n
            return pilot
        return None

    def _fail_unit(self, unit: ComputeUnit, exc: BaseException) -> None:
        unit.exception = exc
        self.session.unit_store.advance_many([unit], UnitState.FAILED)
        with self._all_done:
            self._all_done.notify_all()

    # -- completion --------------------------------------------------------------

    def _on_unit_final(self, unit: ComputeUnit) -> None:
        with self._all_done:
            self._all_done.notify_all()

    def wait_units(
        self,
        units: list[ComputeUnit] | None = None,
        timeout: float | None = None,
    ) -> list[UnitState]:
        """Block (local) or advance virtual time (sim) until *units* finish.

        In simulated sessions the DES is stepped just far enough for every
        unit to reach a final state; pending unrelated events (e.g. the
        pilot's walltime kill) stay pending, so TTC measurements are not
        polluted by them.
        """
        targets = units if units is not None else list(self.units)
        if self.session.is_simulated:
            sim = self.session.sim
            # Count completions through a temporary per-unit callback
            # instead of rescanning every unit after every event — the
            # rescan made large waits O(units × events).  Callbacks are
            # client-side only (no trace events), so behavior and traces
            # are unchanged.
            open_units = [u for u in targets if not u.state.is_final]
            remaining = len(open_units)
            counter = {"open": remaining}

            def _on_transition(_unit: ComputeUnit, state: UnitState) -> None:
                if state.is_final:
                    counter["open"] -= 1

            for unit in open_units:
                unit.add_callback(_on_transition)
            try:
                while counter["open"] > 0:
                    if sim.step() is None:
                        raise PilotError(
                            "simulation drained before all units finished "
                            "(is the pilot large enough and active?)"
                        )
            finally:
                for unit in open_units:
                    unit.remove_callback(_on_transition)
            return [u.state for u in targets]

        deadline = None if timeout is None else self.session.now() + timeout
        with self._all_done:
            while not all(u.state.is_final for u in targets):
                remaining = None
                if deadline is not None:
                    remaining = deadline - self.session.now()
                    if remaining <= 0:
                        raise PilotError("timeout waiting for units")
                self._all_done.wait(remaining if remaining is not None else 1.0)
        return [u.state for u in targets]

    def cancel_units(self, units: list[ComputeUnit] | None = None) -> None:
        for unit in units if units is not None else list(self.units):
            if unit.state.is_final:
                continue
            if unit.pilot_uid is None:
                self.session.unit_store.advance_many([unit], UnitState.CANCELED)
                continue
            pilot = next(p for p in self.pilots if p.uid == unit.pilot_uid)
            pilot.agent.cancel_unit(unit)
