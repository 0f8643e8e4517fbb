"""The pilot agent.

Runs (notionally) inside the pilot's allocation.  It receives compute units
from the unit manager, stages their inputs, queues them for cores, launches
them through an executor and stages outputs — continuation-passing all the
way, so the identical control flow serves threaded local execution and the
single-threaded discrete-event simulation.  Every stage takes a list of
units; the session's :class:`~repro.pilot.unit_store.UnitStore` decides the
batches a list moves in (batches of one unless ``bulk_lifecycle`` is set).

Queue policies (the paper's agent inherits RADICAL-Pilot's):

* ``backfill`` (default) — scan the whole wait queue, start everything that
  fits.  Maximizes utilization; this is what produces the paper's linear
  weak/strong scaling.
* ``fifo`` — strict order: if the head does not fit, nothing starts.  Kept
  for the scheduler ablation benchmark.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.cluster.faults import NODE_FAULT_STREAM, NodeFaultProcess
from repro.exceptions import SchedulingError
from repro.pilot.agent.executor import LocalExecutor, SimExecutor
from repro.pilot.agent.slots import make_slot_scheduler
from repro.pilot.agent.staging import LocalStager, SimStager
from repro.pilot.faults import NodeFailure, PilotFailure
from repro.pilot.states import UnitState
from repro.telemetry.span import Tracer
from repro.utils.logger import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from pathlib import Path

    from repro.pilot.pilot import ComputePilot
    from repro.pilot.session import Session
    from repro.pilot.unit import ComputeUnit

__all__ = ["Agent"]

log = get_logger("pilot.agent")


class Agent:
    """In-allocation unit scheduler and executor frontend."""

    def __init__(
        self,
        session: "Session",
        pilot: "ComputePilot",
        *,
        policy: str = "backfill",
        slot_strategy: str = "contiguous",
        evaluate_payloads: bool = False,
    ) -> None:
        if policy not in ("backfill", "fifo"):
            raise SchedulingError(f"unknown agent queue policy {policy!r}")
        self.session = session
        self.pilot = pilot
        self.policy = policy
        self.slot_strategy = slot_strategy
        # Node boundaries only matter under simulation, where they are the
        # failure domain of the node-fault model; locally the pilot is one
        # "node" so nothing changes for real execution.
        self._cores_per_node = (
            session.platform.cores_per_node if session.is_simulated else None
        )
        self.slots = make_slot_scheduler(
            slot_strategy, pilot.cores, self._cores_per_node
        )
        self._lock = threading.RLock()
        self._waiting: deque["ComputeUnit"] = deque()
        #: Uids of waiting units (O(1) membership for cancel_unit).
        self._waiting_uids: set[str] = set()
        #: Core-count multiset of waiting units; ``_min_waiting`` caches its
        #: minimum so a wake-up that cannot place anything returns in O(1)
        #: (see ``_schedule_waiting``'s short-circuit).
        self._waiting_sizes: dict[int, int] = {}
        self._min_waiting: int | None = None
        #: Uids of waiting units carrying a node-exclusion list for this
        #: pilot.  While non-empty every wake-up must run the full scan:
        #: such units can fail *terminally* during it (emitting events), so
        #: the event-silent short-circuit would change traces.
        self._waiting_excluded: set[str] = set()
        #: In-flight units and their launch times, keyed by unit row.
        self._executing: dict[int, "ComputeUnit"] = {}
        self._launch_times: dict[int, float] = {}
        #: Rows of units cancelled while in flight.
        self._cancelled: set[int] = set()
        self._started = False
        self._unit_final_cb: Callable[["ComputeUnit"], Any] | None = None
        self._unit_killed_cb: (
            Callable[["ComputeUnit", BaseException], Any] | None
        ) = None
        self._fault_process: NodeFaultProcess | None = None
        self._tracer = getattr(session, "tracer", None) or Tracer(None)
        self._metrics = getattr(session, "metrics", None)
        #: Every transition goes through the store, which also decides the
        #: batches a lifecycle list moves in (see ``UnitStore.batches``).
        self._store = session.unit_store

        if session.is_simulated:
            self.stager = SimStager(session.sim_context, tracer=self._tracer)
            self.executor: Any = SimExecutor(
                session, evaluate_payloads=evaluate_payloads
            )
        else:
            pilot_sandbox: "Path" = session.sandbox / pilot.uid  # type: ignore[operator]
            pilot_sandbox.mkdir(parents=True, exist_ok=True)
            self.pilot_sandbox = pilot_sandbox
            self.stager = LocalStager(pilot_sandbox, tracer=self._tracer)
            self.executor = LocalExecutor(session, pilot.cores)

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Called when the pilot becomes ACTIVE; releases queued units."""
        with self._lock:
            self._started = True
        self.session.prof.event("agent_start", self.pilot.uid)
        self._arm_node_faults()
        self._reschedule()

    # -- waiting-queue bookkeeping -------------------------------------------------

    def _waiting_add(self, unit: "ComputeUnit") -> None:
        """Track *unit* entering the wait queue (caller holds the lock)."""
        self._waiting.append(unit)
        self._waiting_uids.add(unit.uid)
        size = unit.description.cores
        self._waiting_sizes[size] = self._waiting_sizes.get(size, 0) + 1
        if self._min_waiting is None or size < self._min_waiting:
            self._min_waiting = size
        if unit.excluded_nodes:
            self._waiting_excluded.add(unit.uid)

    def _waiting_forget(self, unit: "ComputeUnit") -> None:
        """Untrack *unit* leaving the wait queue (caller holds the lock).

        The caller removes the unit from the deque itself (pop or
        ``remove``); this maintains the uid set and the size multiset.
        """
        self._waiting_uids.discard(unit.uid)
        self._waiting_excluded.discard(unit.uid)
        size = unit.description.cores
        count = self._waiting_sizes.get(size, 0) - 1
        if count > 0:
            self._waiting_sizes[size] = count
        else:
            self._waiting_sizes.pop(size, None)
            if size == self._min_waiting:
                self._min_waiting = (
                    min(self._waiting_sizes) if self._waiting_sizes else None
                )

    def _waiting_clear(self) -> list["ComputeUnit"]:
        """Drop the whole wait queue (caller holds the lock)."""
        waiting = list(self._waiting)
        self._waiting.clear()
        self._waiting_uids.clear()
        self._waiting_sizes.clear()
        self._waiting_excluded.clear()
        self._min_waiting = None
        return waiting

    def stop(self) -> None:
        """Called at pilot teardown; cancels whatever is still queued."""
        self._disarm_node_faults()
        with self._lock:
            waiting = self._waiting_clear()
        for batch in self._store.batches(waiting):
            self._store.advance_many(batch, UnitState.CANCELED)
            for unit in batch:
                self._notify_final(unit)
        self.executor.shutdown()
        self.session.prof.event("agent_stop", self.pilot.uid)

    def suspend(self) -> None:
        """The pilot's container job died with resubmission budget left.

        In-flight units are killed (and handed to the unit manager, which
        requeues them under the retry policy), waiting units stay queued
        for the next activation, and the slot table is rebuilt: the
        resubmitted pilot lands on a fresh allocation, so no previous
        placement or node failure survives.
        """
        self._disarm_node_faults()
        with self._lock:
            self._started = False
            victims = list(self._executing.values())
        for unit in victims:
            self._kill_unit(unit, node=None)
        self.slots = make_slot_scheduler(
            self.slot_strategy, self.pilot.cores, self._cores_per_node
        )
        self.session.prof.event("agent_suspend", self.pilot.uid)

    def abort(self) -> None:
        """The pilot died with no resubmission budget left.

        Unlike :meth:`suspend`, nothing will reactivate this agent, so
        waiting units are handed to the kill hook too: under a retry
        policy they can migrate to surviving pilots, otherwise they fail
        in place instead of lingering until the simulation drains.
        """
        self._disarm_node_faults()
        with self._lock:
            self._started = False
            victims = list(self._executing.values())
            waiting = self._waiting_clear()
        for unit in victims:
            self._kill_unit(unit, node=None)
        for unit in waiting:
            exc = PilotFailure(
                f"unit {unit.uid} stranded by pilot {self.pilot.uid} dying"
            )
            unit.exception = exc
            if self._unit_killed_cb is not None:
                self._unit_killed_cb(unit, exc)
            else:
                self._fail([unit], exc)
        self.executor.shutdown()
        self.session.prof.event("agent_abort", self.pilot.uid)

    def on_unit_final(self, callback: Callable[["ComputeUnit"], Any]) -> None:
        """Register the unit manager's completion hook."""
        self._unit_final_cb = callback

    def on_unit_killed(
        self, callback: Callable[["ComputeUnit", BaseException], Any]
    ) -> None:
        """Register the unit manager's node/pilot-kill hook.

        Without one, killed units fail terminally in place (no retries).
        """
        self._unit_killed_cb = callback

    # -- submission ---------------------------------------------------------------

    def submit_units(self, units: list["ComputeUnit"]) -> None:
        """Accept units from the unit manager (any time after creation)."""
        with self._tracer.span("agent.submit", self.pilot.uid, n=len(units)):
            for batch in self._store.batches(units):
                self._accept(batch)

    def _accept(self, units: list["ComputeUnit"]) -> None:
        fit: list["ComputeUnit"] = []
        for unit in units:
            if unit.description.cores > self.slots.total_cores:
                self._store.advance_many([unit], UnitState.FAILED)
                unit.exception = SchedulingError(
                    f"unit {unit.uid} wants {unit.description.cores} cores; "
                    f"pilot {self.pilot.uid} holds {self.slots.total_cores}"
                )
                self._notify_final(unit)
                continue
            unit.pilot_uid = self.pilot.uid
            self.stager.register_unit(unit)
            fit.append(unit)
        if not fit:
            return
        self._store.advance_many(fit, UnitState.AGENT_STAGING_INPUT)
        try:
            self.stager.stage_in_bulk(fit, self._on_staged_in)
        except Exception as exc:  # staging failure fails the units, not the agent
            self._fail(fit, exc)

    def _without_cancelled(self, units: list["ComputeUnit"]) -> list["ComputeUnit"]:
        """Finish the cancelled units of *units*; return the others."""
        if not self._cancelled:
            return units
        cancelled = [u for u in units if u._i in self._cancelled]
        if not cancelled:
            return units
        self._store.advance_many(cancelled, UnitState.CANCELED)
        for unit in cancelled:
            self._notify_final(unit)
        return [u for u in units if u._i not in self._cancelled]

    def _on_staged_in(self, units: list["ComputeUnit"]) -> None:
        units = self._without_cancelled(units)
        if not units:
            return
        self._store.advance_many(units, UnitState.AGENT_SCHEDULING)
        with self._lock:
            for unit in units:
                self._waiting_add(unit)
        self._reschedule()

    def cancel_unit(self, unit: "ComputeUnit") -> None:
        """Cancel a unit; waiting units are dequeued, running ones flagged."""
        with self._lock:
            self._cancelled.add(unit._i)
            if unit.uid in self._waiting_uids:
                self._waiting.remove(unit)
                self._waiting_forget(unit)
                to_cancel = True
            else:
                to_cancel = False
        if to_cancel:
            self._store.advance_many([unit], UnitState.CANCELED)
            self._notify_final(unit)

    # -- internals -----------------------------------------------------------------

    def _avoid_for(self, unit: "ComputeUnit") -> frozenset[int]:
        """Nodes of *this* pilot the unit's exclusion list rules out."""
        if not unit.excluded_nodes:
            return frozenset()
        return frozenset(
            node for puid, node in unit.excluded_nodes if puid == self.pilot.uid
        )

    def _reschedule(self) -> None:
        """Start every waiting unit the policy and free slots allow."""
        with self._tracer.span("agent.schedule", self.pilot.uid):
            self._schedule_waiting()
        if self._metrics is not None and self._started:
            self._metrics.gauge(
                f"agent.{self.pilot.uid}.queue_depth", len(self._waiting)
            )
            self._metrics.gauge(
                f"agent.{self.pilot.uid}.cores_held", self.slots.used_cores
            )

    def _schedule_waiting(self) -> None:
        """One scheduling pass over the wait queue.

        Wake-ups are *coalesced*: a pass whose free-core count cannot
        satisfy the smallest waiting request returns in O(1), so a wave
        of same-timestamp deallocations accumulates capacity silently
        until one pass can actually place units — behaviorally identical
        to scanning on every wake-up (failed allocation attempts emit no
        events and leave the queue order untouched), but without the
        O(waiting × cores) rescans.  The same bound stops a scan early
        once launches drop the free count below every waiting request.
        Both short-circuits are disabled while any waiting unit carries a
        node-exclusion list: those units can fail terminally *during* the
        scan, which is observable in the trace.
        """
        launched: list["ComputeUnit"] = []
        unplaceable: list["ComputeUnit"] = []
        with self._lock:
            if not self._started or not self._waiting:
                return
            can_skip = not self._waiting_excluded
            if (
                can_skip
                and self._min_waiting is not None
                and self.slots.free_cores < self._min_waiting
            ):
                return
            if self.policy == "fifo":
                while self._waiting:
                    head = self._waiting[0]
                    avoid = self._avoid_for(head)
                    if (
                        avoid
                        and self.slots.eligible_cores(avoid)
                        < head.description.cores
                    ):
                        self._waiting.popleft()
                        self._waiting_forget(head)
                        unplaceable.append(head)
                        continue
                    slots = self.slots.alloc(head.description.cores, avoid)
                    if slots is None:
                        break
                    self._waiting.popleft()
                    self._waiting_forget(head)
                    head.slots = slots
                    self._executing[head._i] = head
                    launched.append(head)
            else:  # backfill
                remaining: deque["ComputeUnit"] = deque()
                while self._waiting:
                    unit = self._waiting.popleft()
                    avoid = self._avoid_for(unit)
                    if (
                        avoid
                        and self.slots.eligible_cores(avoid)
                        < unit.description.cores
                    ):
                        self._waiting_forget(unit)
                        unplaceable.append(unit)
                        continue
                    slots = self.slots.alloc(unit.description.cores, avoid)
                    if slots is None:
                        remaining.append(unit)
                        continue
                    self._waiting_forget(unit)
                    unit.slots = slots
                    self._executing[unit._i] = unit
                    launched.append(unit)
                    if (
                        can_skip
                        and self._min_waiting is not None
                        and self.slots.free_cores < self._min_waiting
                    ):
                        # No remaining request fits; the rest of the scan
                        # would only pop-and-requeue in place.
                        break
                remaining.extend(self._waiting)
                self._waiting = remaining
        for unit in unplaceable:
            # The exclusion list leaves too few cores on this pilot — no
            # amount of waiting or repairs can place the unit, so fail fast
            # instead of queueing it forever.
            self._fail([unit], NodeFailure(
                f"unit {unit.uid} cannot be placed on pilot {self.pilot.uid}: "
                f"excluded nodes leave fewer than "
                f"{unit.description.cores} eligible cores"
            ))
        now = self.session.now()
        for batch in self._store.batches(launched):
            for unit in batch:
                unit.attempts += 1
                self._launch_times[unit._i] = now
            self._store.emit(
                "slots", [unit._i for unit in batch],
                slots=sum(len(u.slots) for u in batch), pilot=self.pilot.uid,
            )
            self.executor.launch_units(batch, self._on_executed)

    # -- failure domains ------------------------------------------------------------

    def _arm_node_faults(self) -> None:
        model = self.session.node_fault_model
        if not (self.session.is_simulated and model.enabled):
            return
        if self._fault_process is None:
            self._fault_process = NodeFaultProcess(
                self.session.sim,
                self.session.sim_context.streams.get(NODE_FAULT_STREAM),
                self.slots.nnodes,
                model,
                self._on_node_failure,
                self._on_node_repair,
                label=self.pilot.uid,
            )
        self._fault_process.start()

    def _disarm_node_faults(self) -> None:
        if self._fault_process is not None:
            self._fault_process.stop()
            self._fault_process = None

    def _on_node_failure(self, node: int) -> None:
        self.session.prof.event("node_fail", self.pilot.uid, node=node)
        self.slots.fail_node(node)
        with self._lock:
            victims = [
                u
                for u in self._executing.values()
                if any(self.slots.node_of(s) == node for s in u.slots)
            ]
        for unit in victims:
            self._kill_unit(unit, node=node)
        # Multi-node victims may have freed slots on healthy nodes.
        self._reschedule()

    def _on_node_repair(self, node: int) -> None:
        self.session.prof.event("node_repair", self.pilot.uid, node=node)
        self.slots.repair_node(node)
        self._reschedule()

    def _kill_unit(self, unit: "ComputeUnit", node: int | None) -> None:
        """Tear down one in-flight unit whose node (or whole pilot) died."""
        self.executor.kill(unit)
        with self._lock:
            self._executing.pop(unit._i, None)
            if unit.slots:
                self.slots.dealloc(unit.slots)
                unit.slots = []
        launched_at = self._launch_times.pop(unit._i, None)
        wasted = (
            self.session.now() - launched_at if launched_at is not None else 0.0
        )
        policy = self.session.retry_policy
        if node is None:
            self.session.prof.event(
                "unit_pilot_kill", unit.uid, pilot=self.pilot.uid, wasted=wasted
            )
            exc: BaseException = PilotFailure(
                f"unit {unit.uid} lost to pilot {self.pilot.uid} dying"
            )
        else:
            self.session.prof.event(
                "unit_node_kill", unit.uid,
                pilot=self.pilot.uid, node=node, wasted=wasted,
            )
            exc = NodeFailure(
                f"unit {unit.uid} lost to node {node} of pilot "
                f"{self.pilot.uid} crashing"
            )
            if policy is not None and policy.exclude_failed_nodes:
                unit.exclude_node(self.pilot.uid, node)
        unit.exception = exc
        if self._unit_killed_cb is not None:
            self._unit_killed_cb(unit, exc)
        else:
            self._fail([unit], exc)

    def _on_executed(
        self, units: list["ComputeUnit"], exception: BaseException | None
    ) -> None:
        """The executor finished *units* (``exception`` is ``None``) or
        failed them with ``exception``."""
        with self._lock:
            for unit in units:
                self._executing.pop(unit._i, None)
                self._launch_times.pop(unit._i, None)
                slots = unit.slots
                if slots:
                    self.slots.dealloc(slots)
        if exception is not None:
            self._fail(units, exception)
        else:
            self._store.advance_many(units, UnitState.AGENT_STAGING_OUTPUT)
            try:
                self.stager.stage_out_bulk(units, self._on_staged_out)
            except Exception as exc:  # staging failure fails the units, not the agent
                self._fail(units, exc)
        self._reschedule()

    def _on_staged_out(self, units: list["ComputeUnit"]) -> None:
        finished = self._without_cancelled(units)
        self._store.advance_many(finished, UnitState.DONE)
        for unit in finished:
            self._notify_final(unit)

    def _fail(self, units: list["ComputeUnit"], exc: BaseException) -> None:
        for unit in units:
            unit.exception = exc
        self._store.advance_many(units, UnitState.FAILED)
        for unit in units:
            self._notify_final(unit)

    def _notify_final(self, unit: "ComputeUnit") -> None:
        if self._unit_final_cb is not None:
            self._unit_final_cb(unit)

    # -- introspection -----------------------------------------------------------

    @property
    def waiting_units(self) -> int:
        with self._lock:
            return len(self._waiting)

    @property
    def executing_units(self) -> int:
        with self._lock:
            return len(self._executing)
