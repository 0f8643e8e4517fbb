"""Core-slot accounting inside a pilot.

The agent owns ``cores`` slots (numbered 0..cores-1, node-major).  A unit
occupies ``unit.description.cores`` slots from launch to completion.  Two
allocation strategies are provided, mirroring RADICAL-Pilot's agent
schedulers:

* :class:`ContiguousSlotScheduler` — MPI-friendly: a unit gets one
  contiguous block of cores (first fit).  Can fragment.
* :class:`ScatteredSlotScheduler` — any free cores will do; never
  fragments, but co-locates nothing.

Slots are grouped into *nodes* of ``cores_per_node`` slots each (slot ``i``
lives on node ``i // cores_per_node``), which is the failure domain of the
node-fault model: :meth:`~CoreSlotScheduler.fail_node` takes a whole node's
slots out of service until :meth:`~CoreSlotScheduler.repair_node`, and
allocations can *avoid* named nodes (the retry policy's failed-node
exclusion list).

The invariant enforced here (and property-tested) is the paper-critical
one: at no instant do occupied slots exceed the pilot size, and no slot is
double-booked.

Implementation notes (see ``docs/performance.md``): the *pool* — slots
that are free **and** on a healthy node — is tracked in indexed
structures so allocation cost scales with the number of placements, not
with the pilot size.  The boolean per-slot arrays remain the ground
truth; the indexes are accelerators kept incrementally consistent:

* both schedulers keep per-node pool counts (``_node_free``), an O(1)
  ``used_cores`` counter and a sorted list of nodes with pool slots;
* :class:`ContiguousSlotScheduler` additionally keeps the pool as a
  sorted list of maximal runs ``[start, end)``; deallocation merges
  adjacent runs, allocation carves a prefix off the first fitting run;
  the sorted run lengths give ``largest_fit`` (the longest run) in O(1);
* ``largest_fit`` bounds what ``alloc`` can place, so the agent's
  scheduling pass never probes a request that cannot fit;
* ``eligible_cores`` is pure node-size arithmetic — no per-core loop.

Two calls place units.  :meth:`~CoreSlotScheduler.alloc` places one
request, which may avoid nodes.  :meth:`~CoreSlotScheduler.alloc_many`
places a run of equal-width requests that avoid nothing, exactly as
successive ``alloc`` calls would, with one pool update for the whole
run: the contiguous strategy carves blocks first-fit off the runs in
order, the scattered one takes the lowest pool slots in width-sized
chunks.  Both check every slot they take against double booking and
offline nodes.

Placement *choices* are bit-identical to the reference linear scans
(first-fit lowest contiguous block; lowest-numbered free slots), which is
property-tested differentially against the reference implementation in
``tests/test_slots_differential.py``, for ``alloc_many`` against
successive ``alloc`` calls too.
"""

from __future__ import annotations

import abc
from bisect import bisect_left, bisect_right, insort

from repro.exceptions import SchedulingError

__all__ = [
    "CoreSlotScheduler",
    "ContiguousSlotScheduler",
    "ScatteredSlotScheduler",
    "make_slot_scheduler",
]


def _segments(slots: list[int]) -> list[tuple[int, int]]:
    """Group a sorted slot list into maximal ``[start, end)`` runs."""
    start = slots[0]
    if slots[-1] - start + 1 == len(slots):  # one run (slots are distinct)
        return [(start, start + len(slots))]
    runs: list[tuple[int, int]] = []
    prev = start
    for slot in slots[1:]:
        if slot != prev + 1:
            runs.append((start, prev + 1))
            start = slot
        prev = slot
    runs.append((start, prev + 1))
    return runs


class CoreSlotScheduler(abc.ABC):
    """Tracks which of the pilot's cores are free (and on healthy nodes)."""

    def __init__(self, total_cores: int, cores_per_node: int | None = None) -> None:
        if total_cores < 1:
            raise SchedulingError("pilot must hold at least one core")
        if cores_per_node is not None and cores_per_node < 1:
            raise SchedulingError("cores_per_node must be positive")
        self.total_cores = total_cores
        #: Node size; a single-node pilot by default (no interior domains).
        self.cores_per_node = cores_per_node or total_cores
        self._free = [True] * total_cores
        self._offline = [False] * total_cores
        self._nfree = total_cores
        self._nused = 0
        self._offline_node_set: set[int] = set()
        #: Pool slots (free and online) per node, kept incrementally.
        self._node_free = [len(self.node_slots(n)) for n in range(self.nnodes)]
        #: Sorted node ids with at least one pool slot.
        self._nonempty_nodes = list(range(self.nnodes))

    # -- topology ----------------------------------------------------------------

    @property
    def nnodes(self) -> int:
        return -(-self.total_cores // self.cores_per_node)

    def node_of(self, slot: int) -> int:
        return slot // self.cores_per_node

    def node_slots(self, node: int) -> range:
        """Slot ids of *node* (the last node may be partial)."""
        if not 0 <= node < self.nnodes:
            raise SchedulingError(f"no node {node} in a {self.nnodes}-node pilot")
        start = node * self.cores_per_node
        return range(start, min(start + self.cores_per_node, self.total_cores))

    def _node_size(self, node: int) -> int:
        start = node * self.cores_per_node
        return min(start + self.cores_per_node, self.total_cores) - start

    # -- accounting ---------------------------------------------------------------

    @property
    def free_cores(self) -> int:
        """Schedulable cores: free *and* on a healthy node."""
        return self._nfree

    @property
    @abc.abstractmethod
    def largest_fit(self) -> int:
        """The widest request with no avoided nodes that :meth:`alloc`
        would place now (``0`` when the pool is empty).  Avoiding nodes
        only removes choices, so nothing wider fits, whatever it avoids."""

    @property
    def used_cores(self) -> int:
        return self._nused

    @property
    def offline_nodes(self) -> set[int]:
        return set(self._offline_node_set)

    def eligible_cores(self, avoid_nodes: set[int] | frozenset[int] = frozenset()) -> int:
        """Cores a unit avoiding *avoid_nodes* could ever occupy.

        Ignores occupancy and repairs-in-progress: this is the *permanent*
        capacity check — if it is below a unit's core count, no amount of
        waiting makes the unit placeable and it must fail instead of
        queueing forever.
        """
        if not avoid_nodes:
            return self.total_cores
        avoided = sum(
            self._node_size(node) for node in avoid_nodes
            if 0 <= node < self.nnodes
        )
        return self.total_cores - avoided

    # -- pool index maintenance ----------------------------------------------------

    def _pool_count_add(self, node: int, delta: int) -> None:
        had = self._node_free[node] > 0
        self._node_free[node] += delta
        has = self._node_free[node] > 0
        if has and not had:
            insort(self._nonempty_nodes, node)
        elif had and not has:
            del self._nonempty_nodes[bisect_left(self._nonempty_nodes, node)]

    def _pool_count_runs(self, runs: list[tuple[int, int]], sign: int) -> None:
        """Add ``sign`` times the slots of *runs* to the per-node counts."""
        cpn = self.cores_per_node
        for start, end in runs:
            for node in range(start // cpn, (end - 1) // cpn + 1):
                span = min(end, (node + 1) * cpn) - max(start, node * cpn)
                self._pool_count_add(node, sign * span)

    def _pool_add(self, slots: list[int]) -> None:
        """*slots* (sorted, disjoint from the pool) join the pool."""
        runs = _segments(slots)
        self._pool_count_runs(runs, 1)
        self._nfree += len(slots)
        self._index_add(runs)

    def _pool_remove(self, runs: list[tuple[int, int]], n: int) -> None:
        """The *n* slots of the sorted ``[start, end)`` *runs* (all in the
        pool) leave the pool."""
        self._pool_count_runs(runs, -1)
        self._nfree -= n
        self._index_remove(runs)

    def _index_add(self, runs: list[tuple[int, int]]) -> None:
        """Subclass hook: the maximal ``[start, end)`` *runs* of a sorted
        slot list joined the pool."""

    def _index_remove(self, runs: list[tuple[int, int]]) -> None:
        """Subclass hook: the slots of *runs* left the pool."""

    # -- failure domains -----------------------------------------------------------

    def fail_node(self, node: int) -> None:
        """Mark *node* unschedulable; its free slots leave the pool.

        Occupied slots on the node stay marked occupied — the agent kills
        the resident units and their :meth:`dealloc` then discovers the
        slots are offline and keeps them out of the pool.
        """
        leaving: list[int] = []
        for slot in self.node_slots(node):
            if not self._offline[slot]:
                self._offline[slot] = True
                if self._free[slot]:
                    leaving.append(slot)
        self._offline_node_set.add(node)
        if leaving:
            self._pool_remove(_segments(leaving), len(leaving))

    def repair_node(self, node: int) -> None:
        """Return *node* to service; its free slots rejoin the pool."""
        joining: list[int] = []
        for slot in self.node_slots(node):
            if self._offline[slot]:
                self._offline[slot] = False
                if self._free[slot]:
                    joining.append(slot)
        self._offline_node_set.discard(node)
        if joining:
            self._pool_add(joining)

    # -- allocation ----------------------------------------------------------------

    def alloc(
        self,
        ncores: int,
        avoid_nodes: set[int] | frozenset[int] = frozenset(),
    ) -> list[int] | None:
        """Return *ncores* slot ids, or ``None`` if they are not available.

        *avoid_nodes* excludes whole nodes from consideration (retry
        placement exclusion).  Raises :class:`SchedulingError` when the
        request can *never* be satisfied (larger than the pilot), so
        callers fail fast instead of queueing a unit forever.
        """
        self._check_width(ncores)
        if ncores > self._nfree:
            return None
        slots = self._pick(ncores, avoid_nodes)
        if slots is None:
            return None
        self._take(_segments(slots), ncores)
        return slots

    def alloc_many(self, ncores: int, k: int) -> list[list[int]]:
        """Place up to *k* requests of *ncores* slots that avoid no nodes.

        Returns exactly what *k* successive ``alloc(ncores)`` calls would
        return up to their first ``None``: a request that avoids nothing
        fits exactly when it is no wider than :attr:`largest_fit`, so the
        placements stop at the first that does not fit.  The slots of all
        placements leave the pool in one update, with :meth:`alloc`'s
        double-booking and offline checks.
        """
        self._check_width(ncores)
        if k < 1 or ncores > self.largest_fit:
            return []
        placements, runs = self._pick_many(ncores, k)
        self._take(runs, ncores * len(placements))
        return placements

    def _check_width(self, ncores: int) -> None:
        if ncores < 1:
            raise SchedulingError("must allocate at least one core")
        if ncores > self.total_cores:
            raise SchedulingError(
                f"unit wants {ncores} cores; pilot holds {self.total_cores}"
            )

    def _take(self, runs: list[tuple[int, int]], n: int) -> None:
        """Occupy the *n* pool slots of the sorted ``[start, end)`` *runs*."""
        free = self._free
        offline = self._offline
        for start, end in runs:
            for slot in range(start, end):
                if not free[slot]:
                    raise SchedulingError(f"slot {slot} double-booked (internal bug)")
                if offline[slot]:
                    raise SchedulingError(
                        f"slot {slot} allocated while offline (internal bug)"
                    )
                free[slot] = False
        self._nused += n
        self._pool_remove(runs, n)

    def dealloc(self, slots: list[int]) -> None:
        """Free *slots*; offline slots stay out of the pool until repair."""
        joining: list[int] = []
        for slot in slots:
            if self._free[slot]:
                raise SchedulingError(f"slot {slot} freed twice (internal bug)")
            self._free[slot] = True
            if not self._offline[slot]:
                joining.append(slot)
        self._nused -= len(slots)
        if joining:
            joining.sort()
            self._pool_add(joining)

    @abc.abstractmethod
    def _pick(
        self, ncores: int, avoid_nodes: set[int] | frozenset[int]
    ) -> list[int] | None:
        """Choose slots among the pool ones (enough are free by contract),
        in ascending order."""

    @abc.abstractmethod
    def _pick_many(
        self, ncores: int, k: int
    ) -> tuple[list[list[int]], list[tuple[int, int]]]:
        """Choose the placements of up to *k* successive ``alloc(ncores)``
        calls that avoid nothing (at least one fits by contract), and the
        sorted ``[start, end)`` runs of all their slots."""


class ContiguousSlotScheduler(CoreSlotScheduler):
    """First-fit contiguous block; may refuse due to fragmentation.

    The pool is indexed as a sorted list of maximal runs: ``_run_starts``
    (sorted starts) with ``_run_end[start] -> end`` and the reverse map
    ``_run_by_end[end] -> start`` for O(log n) merge-on-dealloc.
    ``_run_lens`` holds the run lengths in sorted order, so its last entry
    is :attr:`largest_fit`.
    """

    def __init__(self, total_cores: int, cores_per_node: int | None = None) -> None:
        super().__init__(total_cores, cores_per_node)
        self._run_starts: list[int] = [0]
        self._run_end: dict[int, int] = {0: total_cores}
        self._run_by_end: dict[int, int] = {total_cores: 0}
        self._run_lens: list[int] = [total_cores]

    @property
    def largest_fit(self) -> int:
        return self._run_lens[-1] if self._run_lens else 0

    # -- run index -----------------------------------------------------------

    def _insert_run(self, start: int, end: int) -> None:
        """Add pool run ``[start, end)``, merging with adjacent runs."""
        lens = self._run_lens
        left = self._run_by_end.pop(start, None)
        if left is not None:
            del self._run_end[left]
            del self._run_starts[bisect_left(self._run_starts, left)]
            del lens[bisect_left(lens, start - left)]
            start = left
        right_end = self._run_end.pop(end, None)
        if right_end is not None:
            del self._run_by_end[right_end]
            del self._run_starts[bisect_left(self._run_starts, end)]
            del lens[bisect_left(lens, right_end - end)]
            end = right_end
        insort(self._run_starts, start)
        self._run_end[start] = end
        self._run_by_end[end] = start
        insort(lens, end - start)

    def _remove_span(self, start: int, end: int) -> None:
        """Remove ``[start, end)`` (inside one run) from the run index."""
        lens = self._run_lens
        i = bisect_right(self._run_starts, start) - 1
        run_start = self._run_starts[i]
        run_end = self._run_end[run_start]
        del self._run_starts[i]
        del self._run_end[run_start]
        del self._run_by_end[run_end]
        del lens[bisect_left(lens, run_end - run_start)]
        if run_start < start:
            insort(self._run_starts, run_start)
            self._run_end[run_start] = start
            self._run_by_end[start] = run_start
            insort(lens, start - run_start)
        if end < run_end:
            insort(self._run_starts, end)
            self._run_end[end] = run_end
            self._run_by_end[run_end] = end
            insort(lens, run_end - end)

    def _index_add(self, runs: list[tuple[int, int]]) -> None:
        for start, end in runs:
            self._insert_run(start, end)

    def _index_remove(self, runs: list[tuple[int, int]]) -> None:
        for start, end in runs:
            self._remove_span(start, end)

    # -- placement -----------------------------------------------------------

    def _pick(
        self, ncores: int, avoid_nodes: set[int] | frozenset[int]
    ) -> list[int] | None:
        cpn = self.cores_per_node
        for start in self._run_starts:
            end = self._run_end[start]
            if not avoid_nodes:
                if end - start >= ncores:
                    return list(range(start, start + ncores))
                continue
            # Split the run at avoided-node boundaries; first fit wins.
            cursor = start
            while cursor < end:
                node = cursor // cpn
                if node in avoid_nodes:
                    cursor = (node + 1) * cpn
                    continue
                # Extend over consecutive non-avoided nodes.
                seg_end = min(end, (node + 1) * cpn)
                while seg_end < end and (seg_end // cpn) not in avoid_nodes:
                    seg_end = min(end, (seg_end // cpn + 1) * cpn)
                if seg_end - cursor >= ncores:
                    return list(range(cursor, cursor + ncores))
                cursor = seg_end
        return None

    def _pick_many(
        self, ncores: int, k: int
    ) -> tuple[list[list[int]], list[tuple[int, int]]]:
        # Successive first-fit allocs carve blocks off the front of the
        # first run that holds one until it no longer does, then move on.
        placements: list[list[int]] = []
        runs: list[tuple[int, int]] = []
        lens = self._run_lens
        fitting = len(lens) - bisect_left(lens, ncores)
        for start in self._run_starts:
            blocks = (self._run_end[start] - start) // ncores
            if not blocks:
                continue
            blocks = min(blocks, k - len(placements))
            stop = start + blocks * ncores
            placements += [
                list(range(first, first + ncores))
                for first in range(start, stop, ncores)
            ]
            runs.append((start, stop))
            fitting -= 1
            if len(placements) == k or not fitting:
                break
        return placements, runs


class ScatteredSlotScheduler(CoreSlotScheduler):
    """Lowest-numbered free cores, contiguous or not; never fragments.

    Placement walks the sorted non-empty-node list (node-major slot
    numbering makes node order equal global slot order) and scans only
    the nodes it takes slots from — O(placed + skipped nodes), not
    O(pilot size).
    """

    @property
    def largest_fit(self) -> int:
        return self._nfree

    def _pick(
        self, ncores: int, avoid_nodes: set[int] | frozenset[int]
    ) -> list[int] | None:
        picked: list[int] = []
        need = ncores
        free = self._free
        offline = self._offline
        for node in self._nonempty_nodes:
            if avoid_nodes and node in avoid_nodes:
                continue
            take = min(need, self._node_free[node])
            for slot in self.node_slots(node):
                if free[slot] and not offline[slot]:
                    picked.append(slot)
                    take -= 1
                    if take == 0:
                        break
            need = ncores - len(picked)
            if need == 0:
                return picked
        return None

    def _pick_many(
        self, ncores: int, k: int
    ) -> tuple[list[list[int]], list[tuple[int, int]]]:
        # Successive allocs take the lowest pool slots: together, the
        # first ``k * ncores`` of them, chunked by width.
        need = min(k, self._nfree // ncores) * ncores
        picked: list[int] = []
        free = self._free
        offline = self._offline
        for node in self._nonempty_nodes:
            slots = self.node_slots(node)
            pooled = self._node_free[node]
            take = min(need - len(picked), pooled)
            if pooled == len(slots):  # the whole node is in the pool
                picked += slots[:take]
            else:
                picked += [s for s in slots if free[s] and not offline[s]][:take]
            if len(picked) == need:
                break
        placements = [picked[i:i + ncores] for i in range(0, need, ncores)]
        return placements, _segments(picked)


def make_slot_scheduler(
    kind: str, total_cores: int, cores_per_node: int | None = None
) -> CoreSlotScheduler:
    """Factory: ``"contiguous"`` or ``"scattered"``."""
    if kind == "contiguous":
        return ContiguousSlotScheduler(total_cores, cores_per_node)
    if kind == "scattered":
        return ScatteredSlotScheduler(total_cores, cores_per_node)
    raise SchedulingError(f"unknown slot scheduler {kind!r}")
