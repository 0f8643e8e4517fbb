"""The unit manager: routes compute units to pilots and tracks them."""

from __future__ import annotations

import threading
from bisect import bisect_left
from functools import partial
from itertools import groupby
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

    # -- pilots ---------------------------------------------------------------

    def add_pilots(self, pilots: list[ComputePilot] | ComputePilot) -> None:
        if isinstance(pilots, ComputePilot):
            pilots = [pilots]
        for pilot in pilots:
            pilot.agent.on_unit_killed(self._on_unit_killed)
            self.pilots.append(pilot)

    # -- units -----------------------------------------------------------------

    def submit_units(
        self,
        descriptions: list[ComputeUnitDescription] | ComputeUnitDescription,
        callback: Callable[[list[ComputeUnit], UnitState], Any] | None = None,
        extra_delay: float = 0.0,
        tags: list[dict[str, Any]] | None = None,
    ) -> list[ComputeUnit]:
        """Create units, schedule them onto pilots, forward to agents.

        *callback* is a completion hook: ``callback(units, state)`` runs
        once per batch of units that reach a final state (DONE, FAILED or
        CANCELED) together; every unit appears in exactly one call.  It
        is attached to every created unit *before* the unit can make any
        progress, so callers (e.g. pattern drivers) cannot miss a
        completion even for tasks that finish instantly.  To see every
        transition of one unit, use :meth:`ComputeUnit.add_callback`.

        *tags*, when given, holds each unit's tags, and *descriptions*
        may repeat one shareable description
        (:meth:`ComputeUnitDescription.shareable`) for many units; see
        :meth:`UnitStore.add_bulk`.

        A unit wider than every pilot raises :class:`SchedulingError`
        before any unit of the call is registered.

        Forwarding is *bulk*: all units bound to one pilot travel in one
        message, paying one network delay (RADICAL-Pilot bulk submission).
        """
        if not self.pilots:
            raise PilotError("unit manager has no pilots")
        if isinstance(descriptions, ComputeUnitDescription):
            descriptions = [descriptions]
        if descriptions:
            widest = max(d.cores for d in descriptions)
            if widest > max(pilot.cores for pilot in self.pilots):
                raise SchedulingError(f"no pilot can hold a {widest}-core unit")
        store = self.session.unit_store
        shared = [callback] if callback is not None else []
        with self.session.tracer.span(
            "umgr.submit", self.uid, n=len(descriptions)
        ):
            rows = store.add_bulk(descriptions, tags)
            units = [ComputeUnit._of(store, i) for i in rows]
            store.set_group_callbacks(rows, shared)
            store.advance_many(units, UnitState.UMGR_SCHEDULING)
            routing = self._route(units, store.cores_of(rows))
            with self._lock:
                self.units.extend(units)

            for pilot, batch in routing.values():
                self._forward(pilot, batch, extra_delay)
        return units

    def _route(
        self, units: list[ComputeUnit], widths: list[int]
    ) -> dict[str, tuple[ComputePilot, list[ComputeUnit]]]:
        """Round-robin *units* (of core *widths*) over the pilots that can
        hold them: each unit goes to the first such pilot at or after the
        cursor, which then moves past it.  Consecutive units that fit the
        same pilots (with one pilot size, every unit) cycle through one
        list of pilots, so such a run is routed in one step per pilot.
        Returns each pilot's units, in order of first use."""
        routing: dict[str, tuple[ComputePilot, list[ComputeUnit]]] = {}
        pilots = self.pilots
        sizes = sorted({pilot.cores for pilot in pilots})
        start = 0
        # A unit fits the pilots of at least sizes[c], c its class.
        for c, run in groupby(map(partial(bisect_left, sizes), widths)):
            m = sum(1 for _ in run)
            batch = units[start:start + m]
            start += m
            fits = [k for k, pilot in enumerate(pilots) if pilot.cores >= sizes[c]]
            first = bisect_left(fits, self._rr_next) % len(fits)
            order = fits[first:] + fits[:first]
            for j, k in enumerate(order[:m]):
                routing.setdefault(pilots[k].uid, (pilots[k], []))[1].extend(
                    batch[j::len(order)]
                )
            self._rr_next = (order[(m - 1) % len(order)] + 1) % len(pilots)
        return routing

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

    def _on_unit_killed(
        self, unit: ComputeUnit, exc: BaseException, **fields: Any
    ) -> None:
        """A node or pilot death took the unit down mid-flight.

        The session retry policy decides between another attempt (back
        through UMGR_SCHEDULING, with exponential backoff charged as extra
        forwarding delay) and surfacing a terminal FAILED.  *fields* (what
        the unit released on its pilot) ride on that state event.
        """
        policy = self.session.retry_policy
        if policy is None or not policy.should_retry(unit.attempts):
            self._fail_unit(unit, exc, **fields)
            return
        pilot = self._pick_retry_pilot(unit)
        if pilot is None:
            self._fail_unit(
                unit,
                NodeFailure(
                    f"unit {unit.uid} has no pilot left with enough "
                    f"non-excluded cores"
                ),
                **fields,
            )
            return
        self.session.unit_store.advance_many(
            [unit], UnitState.UMGR_SCHEDULING, **fields
        )
        delay = self.session.retry_delay(policy, unit.attempts)
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
        cores = self.session.unit_store.cores(unit._i)
        n = len(self.pilots)
        for offset in range(n):
            pilot = self.pilots[(self._rr_next + offset) % n]
            if pilot.state.is_final or pilot.cores < cores:
                continue
            avoid = unit.avoided_nodes(pilot.uid)
            if avoid and pilot.agent.slots.eligible_cores(avoid) < cores:
                continue
            self._rr_next = (self._rr_next + offset + 1) % n
            return pilot
        return None

    def _fail_unit(
        self, unit: ComputeUnit, exc: BaseException, **fields: Any
    ) -> None:
        unit.exception = exc
        self.session.unit_store.advance_many([unit], UnitState.FAILED, **fields)

    # -- completion --------------------------------------------------------------

    def wait_units(
        self,
        units: list[ComputeUnit] | None = None,
        timeout: float | None = None,
    ) -> list[UnitState]:
        """Wait until *units* (default: every unit) are final; return
        their states (see ``Session.wait_until``).

        A simulated session steps the DES just far enough for every unit
        to reach a final state; pending unrelated events (e.g. the
        pilot's walltime kill) stay pending, so TTC measurements are not
        polluted by them.  A local session blocks for at most *timeout*
        seconds.
        """
        targets = units if units is not None else list(self.units)
        # Final is terminal, so a cursor past the leading final units
        # never looks at them again: a wake-up (one per DES event in a
        # simulated session) costs O(1) amortized, not a rescan.
        cursor = 0

        def all_final() -> bool:
            nonlocal cursor
            while cursor < len(targets) and targets[cursor].state.is_final:
                cursor += 1
            return cursor == len(targets)

        if not self.session.wait_until(
            all_final, timeout=timeout,
            drained=lambda: PilotError(
                "simulation drained before all units finished "
                "(is the pilot large enough and active?)"
            ),
        ):
            raise PilotError("timeout waiting for units")
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
