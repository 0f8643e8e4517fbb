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

* ``backfill`` (default) — start every waiting unit that fits, in arrival
  order.  Maximizes utilization; this is what produces the paper's linear
  weak/strong scaling.
* ``fifo`` — strict order: if the head does not fit, nothing starts.  Kept
  for the scheduler ablation benchmark.

The wait queue keeps one FIFO per unit width, and a scheduling pass
visits only the widths that can fit the free pool (see
``_schedule_waiting``), so its cost follows the units it places rather
than the length of the queue; a run of equal widths is placed in one
slot-scheduler call.  An occupancy index per node names the
units a node failure kills without reading every executing unit.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from collections import defaultdict, deque
from heapq import heapify, heappop, heappush
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Iterator

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

#: A wait-queue entry: its arrival number, the unit, its core count and
#: the nodes of this pilot it avoids.  Arrival numbers are unique, so
#: entries order by arrival alone.
_Waiting = tuple[int, "ComputeUnit", int, frozenset[int]]

log = get_logger("pilot.agent")


class _WaitQueue:
    """The agent's wait queue: one FIFO per unit width.

    Every entry carries a global arrival number, so a pass can merge
    any set of widths back into arrival order.  The queue also tracks
    the one-time *unplaceable check* of units that avoid nodes of the
    pilot: ``unchecked`` holds those not yet checked, and ``doomed``
    those that failed it (they leave the width FIFOs and wait, in
    arrival order, until a pass reaches them).  The caller holds the
    agent's lock.
    """

    def __init__(self) -> None:
        #: The arrival number of the next entry.
        self._arrivals = 0
        #: Entries of each width, in arrival order; a width is present
        #: only while it has entries.
        self.by_width: dict[int, deque[_Waiting]] = {}
        #: The keys of ``by_width``, sorted.
        self.widths: list[int] = []
        #: Every entry (``doomed`` ones too) by unit row.
        self.rows: dict[int, _Waiting] = {}
        #: Entries that avoid nodes and await their check, in arrival order.
        self.unchecked: dict[int, _Waiting] = {}
        #: Entries that failed their check, in arrival order.
        self.doomed: list[_Waiting] = []

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[_Waiting]:
        """Every entry, in arrival order."""
        return iter(sorted(self.rows.values()))

    @property
    def settled(self) -> bool:
        """True when every entry is in a width FIFO and checked."""
        return not self.unchecked and not self.doomed

    def add(
        self, units: list["ComputeUnit"], widths: list[int],
        avoids: list[frozenset[int]],
    ) -> None:
        """Queue *units* (core *widths*, avoided nodes *avoids*) in list
        order."""
        arrival = self._arrivals
        by_width = self.by_width
        queued = self.rows
        width = fifo = None
        for unit, cores, avoid in zip(units, widths, avoids):
            entry = (arrival, unit, cores, avoid)
            arrival += 1
            if cores != width:
                width = cores
                fifo = by_width.get(width)
                if fifo is None:
                    fifo = by_width[width] = deque()
                    insort(self.widths, width)
            fifo.append(entry)
            queued[unit._i] = entry
            if avoid:
                self.unchecked[unit._i] = entry
        self._arrivals = arrival

    def remove(self, row: int) -> _Waiting | None:
        """Take the entry of unit row *row* out of the queue, if queued."""
        entry = self.rows.pop(row, None)
        if entry is None:
            return None
        self.unchecked.pop(row, None)
        if entry in self.doomed:
            self.doomed.remove(entry)
        else:
            self._unlink(entry)
        return entry

    def _unlink(self, entry: _Waiting) -> None:
        fifo = self.by_width[entry[2]]
        fifo.remove(entry)
        if not fifo:
            self.retire([entry[2]])

    def retire(self, widths: list[int]) -> None:
        """Drop the emptied FIFOs among *widths*."""
        for width in widths:
            if not self.by_width[width]:
                del self.by_width[width]
                del self.widths[bisect_left(self.widths, width)]

    def clear(self) -> list["ComputeUnit"]:
        """Empty the queue; returns its units in arrival order."""
        units = [unit for _, unit, _, _ in self]
        self.by_width.clear()
        self.widths.clear()
        self.rows.clear()
        self.unchecked.clear()
        self.doomed.clear()
        return units

    def check_new(self, eligible_cores: Callable[[frozenset[int]], int]) -> None:
        """Run the unplaceable check of every unchecked entry, in arrival
        order; the ones that fail move to ``doomed``.  The answer depends
        only on the unit's exclusions and the pilot's node sizes, so it
        never changes while the unit waits."""
        for entry in self.unchecked.values():
            if eligible_cores(entry[3]) < entry[2]:
                self._unlink(entry)
                self.doomed.append(entry)
        self.unchecked.clear()

    def take_doomed(self, before: int | None) -> list["ComputeUnit"]:
        """Remove the doomed entries that arrived before arrival number
        *before* (all of them when ``None``); returns their units."""
        n = len(self.doomed) if before is None else bisect_left(
            self.doomed, (before,)
        )
        taken, self.doomed[:n] = self.doomed[:n], []
        for _, unit, _, _ in taken:
            del self.rows[unit._i]
        return [unit for _, unit, _, _ in taken]


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
        self._waiting = _WaitQueue()
        #: In-flight units and their launch times, keyed by unit row.
        self._executing: dict[int, "ComputeUnit"] = {}
        #: In-flight units by the nodes their slots lie on, each in
        #: ``_executing`` order.
        self._occupants: defaultdict[int, dict[int, "ComputeUnit"]] = (
            defaultdict(dict)
        )
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

    def stop(self) -> None:
        """Called at pilot teardown; cancels whatever is still queued."""
        self._disarm_node_faults()
        with self._lock:
            waiting = self._waiting.clear()
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
            waiting = self._waiting.clear()
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
        store = self._store
        rows = [unit._i for unit in units]
        total = self.slots.total_cores
        fit = units
        if rows and max(store.cores_of(rows)) > total:
            fit, wide = [], []
            for unit in units:
                cores = store.cores(unit._i)
                if cores > total:
                    unit.exception = SchedulingError(
                        f"unit {unit.uid} wants {cores} cores; "
                        f"pilot {self.pilot.uid} holds {total}"
                    )
                    wide.append(unit)
                else:
                    fit.append(unit)
            rows = [unit._i for unit in fit]
            store.advance_many(wide, UnitState.FAILED)
            self._notify_final(wide)
        if not fit:
            return
        store.set_pilot_uids(rows, self.pilot.uid)
        self.stager.register_units(fit)
        store.advance_many(fit, UnitState.AGENT_STAGING_INPUT)
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
        self._enqueue(units)
        self._schedule_waiting()

    def _enqueue(self, units: list["ComputeUnit"]) -> None:
        """Put *units* at the back of the wait queue."""
        store = self._store
        rows = [unit._i for unit in units]
        avoids = store.avoided_nodes(rows, self.pilot.uid)
        with self._lock:
            self._waiting.add(units, store.cores_of(rows), avoids)

    def cancel_unit(self, unit: "ComputeUnit") -> None:
        """Cancel a unit; waiting units are dequeued, staging and running
        ones flagged until they reach the next stage."""
        with self._lock:
            # Under the lock that _notify_final drops flags under, so a
            # unit finishing on an executor thread keeps no flag.
            if unit.state.is_final:
                return
            entry = self._waiting.remove(unit._i)
            if entry is None:
                self._cancelled.add(unit._i)
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
        unit the policy and free slots allow, in arrival order.

        Backfill passes over a unit it cannot place and goes on; FIFO
        stops at the first such unit, which keeps its place at the head
        of the queue.

        A pass skips only work that is *event-silent*: failed allocation
        probes emit nothing and leave the queue order untouched.  Within
        one pass the pool only shrinks, and no request wider than the
        slot scheduler's ``largest_fit`` can be placed, whatever it
        avoids.  The pass therefore keeps a bound ``fail_at`` of
        ``largest_fit + 1``, lowered after each launch, and merges into
        arrival order only the widths below it (FIFO: every width, since
        it stops at a head that is too wide).  Wider units are neither
        popped nor probed, and a probe that avoids no nodes never fails.
        The merge takes the next width from a heap of width heads only
        where arrivals of two widths interleave, so a pass over one width
        does no heap work.  A run of two or more entries of one width
        that avoid no nodes and are due before the next width's head is
        placed by one ``alloc_many`` call (the same placements as one
        ``alloc`` each) when ``largest_fit`` alone holds two of them; a
        run of one costs a single look at the next entry.

        Wake-ups are *coalesced*: a pass whose ``largest_fit`` cannot
        satisfy the narrowest waiting unit returns in O(1), so a wave of
        same-timestamp deallocations accumulates capacity silently until
        one pass can actually place units.  That return waits while any
        queued unit that avoids nodes of this pilot has not had its
        unplaceable check, or has failed it and is still queued: failing
        such a unit is observable in the trace.  The check runs once per
        stint in the queue, on all new such units in arrival order, before
        the merge; a unit that fails it leaves in this pass under
        backfill, and under FIFO once every unit ahead of it has started.
        """
        launched: list["ComputeUnit"] = []
        with self._lock:
            queue = self._waiting
            if not self._started or not queue:
                return
            slots = self.slots
            fail_at = slots.largest_fit + 1
            if queue.settled and fail_at <= queue.widths[0]:
                return
            queue.check_new(slots.eligible_cores)
            fifo = self.policy == "fifo"
            by_width = queue.by_width
            widths = (
                list(queue.widths) if fifo
                else queue.widths[:bisect_left(queue.widths, fail_at)]
            )
            # Arrival number of the unit a FIFO pass stopped at.
            stop: int | None = None
            # One cursor per width: (arrival of the entry at index i of
            # the width's FIFO, width, i); entries before i stay queued.
            heads = [(by_width[width][0][0], width, 0) for width in widths]
            heapify(heads)
            placements: list[list[int]] = []
            while heads and stop is None:
                _, width, i = heappop(heads)
                waiting = by_width[width]
                bound = heads[0][0] if heads else None
                while True:
                    arrival, unit, _, avoid = waiting[i]
                    if bound is not None and arrival > bound:
                        heappush(heads, (arrival, width, i))
                        break
                    if width >= fail_at:
                        if fifo:
                            stop = arrival
                        break
                    if (not avoid and 2 * width < fail_at
                            and i + 1 < len(waiting)
                            and not waiting[i + 1][3]
                            and (bound is None or waiting[i + 1][0] <= bound)):
                        # A run of entries that avoid nothing, due before
                        # the next width's head, of which the largest
                        # free run alone holds two: place it in one call.
                        run = 2
                        cap = slots.free_cores // width
                        for entry in islice(waiting, i + 2, None):
                            if (run >= cap or entry[3]
                                    or bound is not None and entry[0] > bound):
                                break
                            run += 1
                        placed_run = slots.alloc_many(width, run)
                        for _ in placed_run:
                            launched.append(waiting[i][1])
                            del waiting[i]
                        placements += placed_run
                    else:
                        placed = slots.alloc(width, avoid)
                        if placed is None:  # only units that avoid nodes
                            if fifo:
                                stop = arrival
                                break
                            i += 1
                        else:
                            del waiting[i]
                            launched.append(unit)
                            placements.append(placed)
                    fail_at = slots.largest_fit + 1
                    if i == len(waiting):
                        break
            queue.retire(widths)
            unplaceable = queue.take_doomed(stop)
            if launched:
                rows = [unit._i for unit in launched]
                self._book(rows, launched, placements)
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
        self._store.emit("slots", rows, slots=WIDTH, pilot=self.pilot.uid)
        self.executor.launch_units(launched, self._on_executed)

    def _book(
        self, rows: list[int], units: list["ComputeUnit"],
        placements: list[list[int]],
    ) -> None:
        """Record that *units* (store *rows*) left the wait queue for the
        slots *placements* now (caller holds the lock): the executing
        set, launch times, the node occupancy index and the store's slot
        columns."""
        cpn = self.slots.cores_per_node
        occupants = self._occupants
        queued = self._waiting.rows
        executing = self._executing
        launch_times = self._launch_times
        now = self.session.now()
        for row, unit, placed in zip(rows, units, placements):
            del queued[row]
            executing[row] = unit
            launch_times[row] = now
            first = placed[0] // cpn  # slots ascend
            if placed[-1] // cpn == first:
                occupants[first][row] = unit
            else:
                for node in sorted({slot // cpn for slot in placed}):
                    occupants[node][row] = unit
        self._store.place(rows, placements)

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
            victims = list(self._occupants[node].values())
        for unit in victims:
            self._kill_unit(unit, node=node)
        # Multi-node victims may have freed slots on healthy nodes.
        self._schedule_waiting()

    def _vacate(self, units: list["ComputeUnit"]) -> list[int]:
        """Take *units* out of the executing set and the occupancy index
        (caller holds the lock); returns the slots they held."""
        cpn = self.slots.cores_per_node
        occupants = self._occupants
        freed: list[int] = []
        for unit in units:
            row = unit._i
            self._executing.pop(row, None)
            placed = unit.slots
            if not placed:
                continue
            first = placed[0] // cpn  # slots ascend
            if placed[-1] // cpn == first:
                occupants[first].pop(row, None)
            else:
                for node in sorted({slot // cpn for slot in placed}):
                    occupants[node].pop(row, None)
            freed += placed
        return freed

    def _on_node_repair(self, node: int) -> None:
        self.session.prof.event("node_repair", self.pilot.uid, node=node)
        self.slots.repair_node(node)
        self._schedule_waiting()

    def _kill_unit(self, unit: "ComputeUnit", node: int | None) -> None:
        """Tear down one in-flight unit whose node (or whole pilot) died."""
        self.executor.kill(unit)
        release = self._release()
        with self._lock:
            freed = self._vacate([unit])
            if freed:
                self.slots.dealloc(freed)
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
        with self._lock:
            freed = self._vacate(units)
            for unit in units:
                self._launch_times.pop(unit._i, None)
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
