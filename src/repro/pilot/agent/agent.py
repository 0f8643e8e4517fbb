"""The pilot agent.

Runs (notionally) inside the pilot's allocation.  It receives compute units
from the unit manager, stages their inputs, queues them for cores, launches
them through an executor and stages outputs — continuation-passing all the
way, so the identical control flow serves threaded local execution and the
single-threaded discrete-event simulation.  Every stage takes a list of
units and moves it whole; the session's
:class:`~repro.pilot.unit_store.UnitStore` decides only how the list is
written to the trace (see ``UnitStore.emit``).

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
from repro.pilot.unit_store import WIDTH
from repro.utils.logger import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from pathlib import Path

    from repro.pilot.pilot import ComputePilot
    from repro.pilot.session import Session
    from repro.pilot.unit import ComputeUnit

__all__ = ["Agent"]

#: A wait-queue entry: the unit, its core count and the nodes of this
#: pilot it avoids.
_Waiting = tuple["ComputeUnit", int, frozenset[int]]

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
        #: The wait queue.  Each entry carries the unit's width and the
        #: nodes of this pilot it avoids, fixed for its stint in the queue,
        #: so a pass reads nothing from the unit store for units it skips.
        self._waiting: deque[_Waiting] = deque()
        #: Entries by unit row (O(1) membership for cancel_unit).
        self._waiting_rows: dict[int, _Waiting] = {}
        #: Core-count multiset of waiting units; ``_min_waiting`` caches its
        #: minimum so a wake-up that cannot place anything returns in O(1)
        #: (see ``_schedule_waiting``'s short-circuit).
        self._waiting_sizes: dict[int, int] = {}
        self._min_waiting: int | None = None
        #: Rows of waiting units that avoid nodes of this pilot and have
        #: not yet had their one unplaceable check.  While non-empty every
        #: wake-up must run the full scan: the check can fail such a unit
        #: *terminally* (emitting events), so the event-silent
        #: short-circuits would change traces.
        self._waiting_excluded: set[int] = set()
        #: In-flight units and their launch times, keyed by unit row.
        self._executing: dict[int, "ComputeUnit"] = {}
        self._launch_times: dict[int, float] = {}
        #: Rows of units cancelled while staging or in flight; a row
        #: leaves once its unit is final.
        self._cancelled: set[int] = set()
        self._started = False
        self._unit_killed_cb: Callable[..., Any] | None = None
        self._fault_process: NodeFaultProcess | None = None
        #: Every transition goes through the store.
        self._store = session.unit_store

        if session.is_simulated:
            self.stager = SimStager(session.sim_context)
            self.executor: Any = SimExecutor(session)
        else:
            pilot_sandbox: "Path" = session.sandbox / pilot.uid  # type: ignore[operator]
            pilot_sandbox.mkdir(parents=True, exist_ok=True)
            self.pilot_sandbox = pilot_sandbox
            self.stager = LocalStager(pilot_sandbox)
            self.executor = LocalExecutor(session, pilot.cores)

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Called when the pilot becomes ACTIVE; releases queued units."""
        with self._lock:
            self._started = True
        self.session.prof.event("agent_start", self.pilot.uid)
        self._arm_node_faults()
        self._schedule_waiting()

    # -- waiting-queue bookkeeping -------------------------------------------------

    def _waiting_add(self, unit: "ComputeUnit") -> None:
        """Track *unit* entering the wait queue (caller holds the lock)."""
        size = self._store.cores(unit._i)
        avoid = unit.avoided_nodes(self.pilot.uid)
        entry = (unit, size, avoid)
        self._waiting.append(entry)
        self._waiting_rows[unit._i] = entry
        self._waiting_sizes[size] = self._waiting_sizes.get(size, 0) + 1
        if self._min_waiting is None or size < self._min_waiting:
            self._min_waiting = size
        if avoid:
            self._waiting_excluded.add(unit._i)

    def _waiting_forget(self, entry: "_Waiting") -> None:
        """Untrack *entry* leaving the wait queue (caller holds the lock).

        The caller removes the entry from the deque itself (pop or
        ``remove``); this maintains the row map and the size multiset.
        """
        unit, size, _ = entry
        del self._waiting_rows[unit._i]
        self._waiting_excluded.discard(unit._i)
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
        waiting = [unit for unit, _, _ in self._waiting]
        self._waiting.clear()
        self._waiting_rows.clear()
        self._waiting_sizes.clear()
        self._waiting_excluded.clear()
        self._min_waiting = None
        return waiting

    def stop(self) -> None:
        """Called at pilot teardown; cancels whatever is still queued."""
        self._disarm_node_faults()
        with self._lock:
            waiting = self._waiting_clear()
        self._store.advance_many(
            waiting, UnitState.CANCELED, pilot=self.pilot.uid
        )
        self._notify_final(waiting)
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
            self._hand_back(unit, exc, pilot=self.pilot.uid)
        self.executor.shutdown()
        self.session.prof.event("agent_abort", self.pilot.uid)

    def on_unit_killed(self, callback: Callable[..., Any]) -> None:
        """Register the unit manager's node/pilot-kill hook.

        Called as ``callback(unit, exc, **fields)``: *fields* must ride on
        the unit's next state event (what it released on this pilot, see
        :meth:`_release`).  Without a hook, killed units fail terminally
        in place (no retries).
        """
        self._unit_killed_cb = callback

    # -- submission ---------------------------------------------------------------

    def submit_units(self, units: list["ComputeUnit"]) -> None:
        """Accept units from the unit manager (any time after creation)."""
        fit: list["ComputeUnit"] = []
        wide: list["ComputeUnit"] = []
        for unit in units:
            cores = self._store.cores(unit._i)
            if cores > self.slots.total_cores:
                unit.exception = SchedulingError(
                    f"unit {unit.uid} wants {cores} cores; "
                    f"pilot {self.pilot.uid} holds {self.slots.total_cores}"
                )
                wide.append(unit)
                continue
            unit.pilot_uid = self.pilot.uid
            self.stager.register_unit(unit)
            fit.append(unit)
        if wide:
            self._store.advance_many(wide, UnitState.FAILED)
            self._notify_final(wide)
        if not fit:
            return
        self._store.advance_many(fit, UnitState.AGENT_STAGING_INPUT)
        # A staging failure fails its unit, not the list or the agent.
        self.stager.stage_in_bulk(fit, self._on_staged_in, self._fail)

    def _without_cancelled(self, units: list["ComputeUnit"]) -> list["ComputeUnit"]:
        """Finish the cancelled units of *units*; return the others."""
        if not self._cancelled:
            return units
        cancelled = [u for u in units if u._i in self._cancelled]
        if not cancelled:
            return units
        rest = [u for u in units if u._i not in self._cancelled]
        self._store.advance_many(cancelled, UnitState.CANCELED)
        self._notify_final(cancelled)
        return rest

    def _on_staged_in(self, units: list["ComputeUnit"]) -> None:
        units = self._without_cancelled(units)
        if not units:
            return
        self._store.advance_many(
            units, UnitState.AGENT_SCHEDULING, pilot=self.pilot.uid
        )
        with self._lock:
            for unit in units:
                self._waiting_add(unit)
        self._schedule_waiting()

    def cancel_unit(self, unit: "ComputeUnit") -> None:
        """Cancel a unit; waiting units are dequeued, staging and running
        ones flagged until they reach the next stage."""
        with self._lock:
            # Under the lock that _notify_final drops flags under, so a
            # unit finishing on an executor thread keeps no flag.
            if unit.state.is_final:
                return
            entry = self._waiting_rows.get(unit._i)
            if entry is None:
                self._cancelled.add(unit._i)
            else:
                self._waiting.remove(entry)
                self._waiting_forget(entry)
        if entry is not None:
            self._store.advance_many(
                [unit], UnitState.CANCELED, pilot=self.pilot.uid
            )
            self._notify_final([unit])

    # -- internals -----------------------------------------------------------------

    def _release(self) -> dict[str, Any]:
        """The fields of the state event that takes placed units out of
        this agent's hands: the pilot and the cores they held.

        The agent records no gauge: ``MetricsRegistry.from_events``
        derives the ``agent.<pilot>.*`` gauges from these fields.  A
        state event with ``pilot`` and no ``cores`` moves units into or
        out of the wait queue; one with ``cores`` releases slots (and
        busy cores, when it leaves ``EXECUTING``).
        """
        return {"pilot": self.pilot.uid, "cores": WIDTH}

    def _hand_back(
        self, unit: "ComputeUnit", exc: BaseException, **fields: Any
    ) -> None:
        """A node or pilot death took *unit* from this agent: the unit
        manager's kill hook decides its fate, else it fails in place.
        *fields* go on the unit's next state event."""
        if self._unit_killed_cb is not None:
            self._unit_killed_cb(unit, exc, **fields)
            if unit.state.is_final:
                self._cancelled.discard(unit._i)
        else:
            self._fail([unit], exc, **fields)

    def _schedule_waiting(self) -> None:
        """One scheduling pass over the wait queue: start every waiting
        unit the policy and free slots allow.

        Both policies run the same scan in queue order.  Backfill passes
        over a unit it cannot place and goes on; FIFO stops at the first
        such unit, which keeps its place at the head of the queue.

        A pass skips only work that is *event-silent*: failed allocation
        probes emit nothing and leave the queue order untouched.  Within
        one pass the pool only shrinks, and avoiding nodes only removes
        choices (for both slot strategies), so once ``alloc(w)`` with no
        avoided nodes has failed, every request at least ``w`` wide fails
        for the rest of the pass, whatever it avoids.  The pass therefore
        keeps a threshold ``fail_at``: it starts at ``free_cores + 1``,
        drops to ``free_cores + 1`` after each launch and to ``w`` after
        such a failed probe, and every unit at least that wide is requeued
        without probing.

        Wake-ups are *coalesced*: a pass whose free-core count cannot
        satisfy the smallest waiting request returns in O(1), so a wave
        of same-timestamp deallocations accumulates capacity silently
        until one pass can actually place units.  The same bound ends a
        scan once ``fail_at`` drops to the smallest waiting request.
        Both short-circuits wait while any queued unit that avoids nodes
        of this pilot has not had its unplaceable check: such a unit can
        fail terminally *during* the scan, which is observable in the
        trace.  The check depends only on the unit's exclusions and the
        pilot's node sizes, so its answer never changes while the unit
        waits: it runs on the unit's first scanning pass only.
        """
        launched: list["ComputeUnit"] = []
        unplaceable: list["ComputeUnit"] = []
        with self._lock:
            if not self._started or not self._waiting:
                return
            unchecked = self._waiting_excluded
            slots = self.slots
            if (
                not unchecked
                and self._min_waiting is not None
                and slots.free_cores < self._min_waiting
            ):
                return
            fifo = self.policy == "fifo"
            requeued: list[_Waiting] = []
            fail_at = slots.free_cores + 1
            while self._waiting:
                if not unchecked and fail_at <= self._min_waiting:
                    # Every request left is at least fail_at wide.
                    break
                entry = self._waiting.popleft()
                unit, cores, avoid = entry
                if unchecked and unit._i in unchecked:
                    if slots.eligible_cores(avoid) < cores:
                        self._waiting_forget(entry)
                        unplaceable.append(unit)
                        continue
                    unchecked.discard(unit._i)
                if cores < fail_at:
                    placed = slots.alloc(cores, avoid)
                    if placed is not None:
                        self._waiting_forget(entry)
                        unit.slots = placed
                        self._executing[unit._i] = unit
                        launched.append(unit)
                        fail_at = min(fail_at, slots.free_cores + 1)
                        continue
                    if not avoid:
                        fail_at = cores
                requeued.append(entry)
                if fifo:
                    break
            self._waiting.extendleft(reversed(requeued))
        for unit in unplaceable:
            # The exclusion list leaves too few cores on this pilot — no
            # amount of waiting or repairs can place the unit, so fail fast
            # instead of queueing it forever.
            self._fail([unit], NodeFailure(
                f"unit {unit.uid} cannot be placed on pilot {self.pilot.uid}: "
                f"excluded nodes leave fewer than "
                f"{self._store.cores(unit._i)} eligible cores"
            ))
        if not launched:
            return
        now = self.session.now()
        for unit in launched:
            unit.attempts += 1
            self._launch_times[unit._i] = now
        self._store.emit("slots", [unit._i for unit in launched],
                         slots=WIDTH, pilot=self.pilot.uid)
        self.executor.launch_units(launched, self._on_executed)

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
        self._schedule_waiting()

    def _on_node_repair(self, node: int) -> None:
        self.session.prof.event("node_repair", self.pilot.uid, node=node)
        self.slots.repair_node(node)
        self._schedule_waiting()

    def _kill_unit(self, unit: "ComputeUnit", node: int | None) -> None:
        """Tear down one in-flight unit whose node (or whole pilot) died."""
        self.executor.kill(unit)
        release = self._release()
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
        self._hand_back(unit, exc, **release)

    def _on_executed(
        self, units: list["ComputeUnit"], exception: BaseException | None
    ) -> None:
        """The executor finished *units* (``exception`` is ``None``) or
        failed them with ``exception``."""
        release = self._release()
        freed: list[int] = []
        with self._lock:
            for unit in units:
                self._executing.pop(unit._i, None)
                self._launch_times.pop(unit._i, None)
                freed += unit.slots
            if freed:
                self.slots.dealloc(freed)
        if exception is not None:
            self._fail(units, exception, **release)
        else:
            self._store.advance_many(
                units, UnitState.AGENT_STAGING_OUTPUT, **release
            )
            self.stager.stage_out_bulk(units, self._on_staged_out, self._fail)
        self._schedule_waiting()

    def _on_staged_out(self, units: list["ComputeUnit"]) -> None:
        finished = self._without_cancelled(units)
        if finished:
            self._store.advance_many(finished, UnitState.DONE)
            self._notify_final(finished)

    def _fail(
        self, units: list["ComputeUnit"], exc: BaseException, **release: Any
    ) -> None:
        """Fail *units* in place; *release* is :meth:`_release` of placed
        units (a unit failed anywhere else released no cores)."""
        for unit in units:
            unit.exception = exc
        self._store.advance_many(
            units, UnitState.FAILED, **(release or {"pilot": self.pilot.uid})
        )
        self._notify_final(units)

    def _notify_final(self, units: list["ComputeUnit"]) -> None:
        """*units* reached a final state here: drop their cancel flags."""
        if self._cancelled:
            with self._lock:
                self._cancelled.difference_update(unit._i for unit in units)

    # -- introspection -----------------------------------------------------------

    @property
    def waiting_units(self) -> int:
        with self._lock:
            return len(self._waiting)

    @property
    def executing_units(self) -> int:
        with self._lock:
            return len(self._executing)
