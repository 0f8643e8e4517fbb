"""Differential test: indexed slot schedulers vs. the scan reference.

The indexed rewrite of :mod:`repro.pilot.agent.slots` must be *placement
identical* to the boolean-array implementation it replaced — same slots,
in the same order, for every alloc/dealloc/fail/repair/avoid sequence —
because placements feed the deterministic traces.  The pre-rewrite
implementation is kept here, verbatim in behavior, as the executable
specification; hypothesis drives both through random operation sequences
and compares every observable after every step, including each
scheduler's ``largest_fit`` bound against a brute-force scan.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import SchedulingError
from repro.pilot.agent.slots import (
    ContiguousSlotScheduler,
    ScatteredSlotScheduler,
)


# -- reference implementation (pre-index, O(cores) scans) ---------------------


class _ReferenceScheduler:
    """The original boolean-array scheduler, minus the abc scaffolding."""

    def __init__(self, total_cores, cores_per_node=None):
        self.total_cores = total_cores
        self.cores_per_node = cores_per_node or total_cores
        self._free = [True] * total_cores
        self._offline = [False] * total_cores
        self._nfree = total_cores

    @property
    def nnodes(self):
        return -(-self.total_cores // self.cores_per_node)

    def node_of(self, slot):
        return slot // self.cores_per_node

    def node_slots(self, node):
        start = node * self.cores_per_node
        return range(start, min(start + self.cores_per_node, self.total_cores))

    @property
    def free_cores(self):
        return self._nfree

    @property
    def used_cores(self):
        return sum(1 for free in self._free if not free)

    @property
    def offline_nodes(self):
        return {self.node_of(i) for i, off in enumerate(self._offline) if off}

    def eligible_cores(self, avoid_nodes=frozenset()):
        if not avoid_nodes:
            return self.total_cores
        return sum(
            1
            for i in range(self.total_cores)
            if self.node_of(i) not in avoid_nodes
        )

    def fail_node(self, node):
        for slot in self.node_slots(node):
            if not self._offline[slot]:
                self._offline[slot] = True
                if self._free[slot]:
                    self._nfree -= 1

    def repair_node(self, node):
        for slot in self.node_slots(node):
            if self._offline[slot]:
                self._offline[slot] = False
                if self._free[slot]:
                    self._nfree += 1

    def alloc(self, ncores, avoid_nodes=frozenset()):
        if ncores < 1:
            raise SchedulingError("must allocate at least one core")
        if ncores > self.total_cores:
            raise SchedulingError(
                f"unit wants {ncores} cores; pilot holds {self.total_cores}"
            )
        if ncores > self._nfree:
            return None
        slots = self._pick(ncores, avoid_nodes)
        if slots is None:
            return None
        for slot in slots:
            self._free[slot] = False
        self._nfree -= len(slots)
        return slots

    def dealloc(self, slots):
        for slot in slots:
            self._free[slot] = True
            if not self._offline[slot]:
                self._nfree += 1

    def _usable(self, slot, avoid_nodes):
        return (
            self._free[slot]
            and not self._offline[slot]
            and (not avoid_nodes or self.node_of(slot) not in avoid_nodes)
        )


class _RefContiguous(_ReferenceScheduler):
    @property
    def largest_fit(self):
        """The longest run of free, online slots."""
        longest = run = 0
        for i in range(self.total_cores):
            run = run + 1 if self._usable(i, frozenset()) else 0
            longest = max(longest, run)
        return longest

    def _pick(self, ncores, avoid_nodes):
        run_start = None
        run_len = 0
        for i in range(self.total_cores):
            if self._usable(i, avoid_nodes):
                if run_start is None:
                    run_start = i
                run_len += 1
                if run_len == ncores:
                    return list(range(run_start, run_start + ncores))
            else:
                run_start = None
                run_len = 0
        return None


class _RefScattered(_ReferenceScheduler):
    @property
    def largest_fit(self):
        return self.free_cores

    def _pick(self, ncores, avoid_nodes):
        slots = [
            i for i in range(self.total_cores) if self._usable(i, avoid_nodes)
        ][:ncores]
        return slots if len(slots) == ncores else None


_PAIRS = {
    "contiguous": (_RefContiguous, ContiguousSlotScheduler),
    "scattered": (_RefScattered, ScatteredSlotScheduler),
}


# -- random operation sequences ----------------------------------------------

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "dealloc", "fail", "repair"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=63),
    ),
    max_size=60,
)


def _interpret_and_compare(kind, total_cores, cores_per_node, ops):
    ref_cls, new_cls = _PAIRS[kind]
    ref = ref_cls(total_cores, cores_per_node)
    new = new_cls(total_cores, cores_per_node)
    outstanding = []  # placements live in both schedulers

    for op, a, b in ops:
        if op == "alloc":
            ncores = 1 + a % total_cores
            # b is a bitmask over the first few nodes.
            avoid = frozenset(
                node for node in range(min(ref.nnodes, 6)) if b >> node & 1
            )
            fits = ncores <= new.largest_fit
            got_ref = ref.alloc(ncores, avoid)
            got_new = new.alloc(ncores, avoid)
            assert got_ref == got_new, (
                f"alloc({ncores}, avoid={sorted(avoid)}) placed "
                f"{got_ref} (reference) vs {got_new} (indexed)"
            )
            if not avoid:
                # largest_fit is exact for requests that avoid nothing.
                assert (got_new is not None) == fits
            elif not fits:
                assert got_new is None
            if got_new is not None:
                outstanding.append(got_new)
        elif op == "dealloc" and outstanding:
            slots = outstanding.pop(a % len(outstanding))
            ref.dealloc(slots)
            new.dealloc(list(slots))
        elif op == "fail":
            node = a % ref.nnodes
            ref.fail_node(node)
            new.fail_node(node)
        elif op == "repair":
            node = a % ref.nnodes
            ref.repair_node(node)
            new.repair_node(node)

        assert new.free_cores == ref.free_cores
        assert new.used_cores == ref.used_cores
        assert new.offline_nodes == ref.offline_nodes
        assert new.largest_fit == ref.largest_fit

    for avoid in (frozenset(), frozenset({0}), frozenset(range(ref.nnodes))):
        assert new.eligible_cores(avoid) == ref.eligible_cores(avoid)


@pytest.mark.parametrize("kind", sorted(_PAIRS))
class TestDifferential:
    @settings(max_examples=80, deadline=None)
    @given(
        total_cores=st.integers(min_value=1, max_value=48),
        cores_per_node=st.one_of(
            st.none(), st.integers(min_value=1, max_value=17)
        ),
        ops=_OPS,
    )
    def test_random_sequences_place_identically(
        self, kind, total_cores, cores_per_node, ops
    ):
        _interpret_and_compare(kind, total_cores, cores_per_node, ops)

    def test_fragmentation_refusal_matches(self, kind):
        """A checkerboard of holes: contiguous refuses, scattered places."""
        ref_cls, new_cls = _PAIRS[kind]
        ref, new = ref_cls(16), new_cls(16)
        keep = []
        for _ in range(8):
            block_ref = ref.alloc(2)
            block_new = new.alloc(2)
            assert block_ref == block_new
            keep.append(block_new)
        for block in keep[::2]:
            ref.dealloc(block)
            new.dealloc(list(block))
        assert ref.alloc(4) == new.alloc(4)
        assert ref.alloc(2) == new.alloc(2)

    def test_fail_repair_while_occupied_matches(self, kind):
        ref_cls, new_cls = _PAIRS[kind]
        ref, new = ref_cls(12, 4), new_cls(12, 4)
        held_ref = ref.alloc(6)
        held_new = new.alloc(6)
        assert held_ref == held_new
        for node in (0, 1):
            ref.fail_node(node)
            new.fail_node(node)
        assert new.free_cores == ref.free_cores
        # Deallocating onto an offline node keeps slots out of the pool.
        ref.dealloc(held_ref)
        new.dealloc(list(held_new))
        assert new.free_cores == ref.free_cores
        assert ref.alloc(5) == new.alloc(5)
        for node in (1, 0):
            ref.repair_node(node)
            new.repair_node(node)
        assert new.free_cores == ref.free_cores
        assert ref.alloc(7) == new.alloc(7)


# -- alloc_many vs. successive single allocs -----------------------------------


def _index_state(sched):
    """Every pool index a scheduler keeps, as comparable values."""
    state = {
        "free": list(sched._free),
        "nfree": sched._nfree,
        "nused": sched._nused,
        "node_free": list(sched._node_free),
        "nonempty_nodes": list(sched._nonempty_nodes),
    }
    if isinstance(sched, ContiguousSlotScheduler):
        state.update(
            run_starts=list(sched._run_starts),
            run_end=dict(sched._run_end),
            run_by_end=dict(sched._run_by_end),
            run_lens=list(sched._run_lens),
        )
    return state


def _drive(sched, ops):
    """Apply a random alloc/dealloc/fail/repair sequence to *sched*."""
    held = []
    for op, a, b in ops:
        if op == "alloc":
            avoid = frozenset(
                node for node in range(min(sched.nnodes, 6)) if b >> node & 1
            )
            placed = sched.alloc(1 + a % sched.total_cores, avoid)
            if placed is not None:
                held.append(placed)
        elif op == "dealloc" and held:
            sched.dealloc(held.pop(a % len(held)))
        elif op == "fail":
            sched.fail_node(a % sched.nnodes)
        elif op == "repair":
            sched.repair_node(a % sched.nnodes)


@pytest.mark.parametrize("kind", sorted(_PAIRS))
class TestAllocMany:
    @settings(max_examples=120, deadline=None)
    @given(
        total_cores=st.integers(min_value=1, max_value=48),
        cores_per_node=st.one_of(
            st.none(), st.integers(min_value=1, max_value=17)
        ),
        ops=_OPS,
        width=st.integers(min_value=1, max_value=48),
        k=st.integers(min_value=1, max_value=60),
    )
    def test_places_like_successive_allocs(
        self, kind, total_cores, cores_per_node, ops, width, k
    ):
        """``alloc_many(w, k)`` equals *k* ``alloc(w)`` calls up to the
        first that fails, *k* above capacity included, and leaves every
        index as they do."""
        _, new_cls = _PAIRS[kind]
        many = new_cls(total_cores, cores_per_node)
        single = new_cls(total_cores, cores_per_node)
        _drive(many, ops)
        _drive(single, ops)
        width = 1 + (width - 1) % total_cores
        expected = []
        for _ in range(k):
            placed = single.alloc(width)
            if placed is None:
                break
            expected.append(placed)
        assert many.alloc_many(width, k) == expected
        assert many.free_cores == single.free_cores
        assert many.used_cores == single.used_cores
        assert many.largest_fit == single.largest_fit
        assert _index_state(many) == _index_state(single)

    def test_rejects_impossible_widths(self, kind):
        _, new_cls = _PAIRS[kind]
        sched = new_cls(8, 4)
        with pytest.raises(SchedulingError):
            sched.alloc_many(0, 3)
        with pytest.raises(SchedulingError):
            sched.alloc_many(9, 3)
        assert sched.alloc_many(8, 0) == []
        assert sched.free_cores == 8

    def test_raises_on_double_booked_slot(self, kind):
        """A pool slot marked occupied behind the indexes' back is an
        internal bug that ``alloc_many`` reports, as ``alloc`` does."""
        _, new_cls = _PAIRS[kind]
        sched = new_cls(8, 4)
        sched._free[1] = False
        with pytest.raises(SchedulingError, match="slot 1 double-booked"):
            sched.alloc_many(2, 3)

    def test_raises_on_offline_slot(self, kind):
        _, new_cls = _PAIRS[kind]
        sched = new_cls(8, 4)
        sched._offline[5] = True
        with pytest.raises(SchedulingError, match="slot 5 allocated while offline"):
            sched.alloc_many(1, 8)
