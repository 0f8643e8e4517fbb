"""Differential test: the agent's scheduling pass vs. the probe-every-unit scan.

The pass visits only the widths that fit the slot scheduler's
``largest_fit`` bound, merged into arrival order from one FIFO per
width, so it never probes a unit that cannot fit; and it runs each
waiting unit's unplaceable check only once.  Skipped probes are
event-silent, so the pass must be *decision identical* to the scan it
replaced: same units launched in the same order on the same slots, same
units failed as unplaceable, same queue order left behind; and no probe
that avoids no nodes may fail.
The pre-change pass is kept here as the executable specification;
hypothesis drives both through random sequences of arrivals (widths,
exclusion lists, some unplaceable), cancellations, scheduling passes,
holds and releases that fragment the pool, and node failures and
repairs.
"""

from __future__ import annotations

from collections import Counter, deque
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.pilot.agent.agent import Agent
from repro.pilot.agent.slots import make_slot_scheduler
from repro.pilot.description import ComputeUnitDescription
from repro.pilot.session import Session
from repro.pilot.unit import ComputeUnit

PILOT = "pilot.diff"


# -- reference passes (pre-change: probe every unit, check every pass) --------


class _Reference:
    """The wait queue and the scheduling pass as they were before the
    failure threshold: every queued unit is probed, and every unit that
    carries an exclusion list disables the O(1) short-circuits."""

    def __init__(self, slots, policy):
        self.slots = slots
        self.policy = policy
        #: ``(key, cores, avoid, has_exclusions)`` in queue order.
        self.waiting: deque = deque()

    def _min_waiting(self):
        return min(cores for _, cores, _, _ in self.waiting)

    def schedule(self):
        """One pass; returns ``(launched, unplaceable)``."""
        launched, unplaceable = [], []
        if not self.waiting:
            return launched, unplaceable
        slots = self.slots
        can_skip = not any(excluded for *_, excluded in self.waiting)
        if can_skip and slots.free_cores < self._min_waiting():
            return launched, unplaceable
        if self.policy == "fifo":
            while self.waiting:
                key, cores, avoid, _ = self.waiting[0]
                if avoid and slots.eligible_cores(avoid) < cores:
                    self.waiting.popleft()
                    unplaceable.append(key)
                    continue
                placed = slots.alloc(cores, avoid)
                if placed is None:
                    break
                self.waiting.popleft()
                launched.append((key, placed))
            return launched, unplaceable
        remaining: deque = deque()
        while self.waiting:
            item = self.waiting.popleft()
            key, cores, avoid, _ = item
            if avoid and slots.eligible_cores(avoid) < cores:
                unplaceable.append(key)
                continue
            placed = slots.alloc(cores, avoid)
            if placed is None:
                remaining.append(item)
                continue
            launched.append((key, placed))
            if (
                can_skip
                and (self.waiting or remaining)
                and slots.free_cores
                < min(c for _, c, _, _ in [*remaining, *self.waiting])
            ):
                break
        remaining.extend(self.waiting)
        self.waiting = remaining
        return launched, unplaceable


# -- the agent under test, cut loose from executor and failure hooks ----------


def _counting(slots):
    """Count every ``alloc`` and ``alloc_many`` call on *slots*, and
    (second count) the failed ones that avoided no nodes: an ``alloc``
    that returned ``None`` or an ``alloc_many`` that placed nothing."""
    calls = [0, 0]
    real, real_many = slots.alloc, slots.alloc_many

    def alloc(ncores, avoid_nodes=frozenset()):
        calls[0] += 1
        placed = real(ncores, avoid_nodes)
        if placed is None and not avoid_nodes:
            calls[1] += 1
        return placed

    def alloc_many(ncores, k):
        calls[0] += 1
        placed = real_many(ncores, k)
        if not placed:
            calls[1] += 1
        return placed

    slots.alloc, slots.alloc_many = alloc, alloc_many
    return calls


def _make_agent(session, kind, total_cores, cores_per_node, policy):
    agent = Agent(
        session, SimpleNamespace(uid=PILOT, cores=total_cores),
        policy=policy, slot_strategy=kind,
    )
    agent.slots = make_slot_scheduler(kind, total_cores, cores_per_node)
    agent._started = True
    record = SimpleNamespace(launched=[], unplaceable=[])
    agent.executor = SimpleNamespace(
        launch_units=lambda batch, _cb: record.launched.extend(batch),
        shutdown=lambda: None,
    )
    agent._fail = lambda units, _exc: record.unplaceable.extend(units)
    return agent, record


# -- random operation sequences ----------------------------------------------

_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["arrive", "arrive", "arrive", "pass", "pass", "hold",
             "release", "fail", "repair", "cancel"]
        ),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=255),
    ),
    max_size=70,
)


def _run_and_compare(kind, policy, total_cores, cores_per_node, ops):
    session = Session(mode="sim", platform="xsede.comet")
    try:
        agent, record = _make_agent(
            session, kind, total_cores, cores_per_node, policy
        )
        ref = _Reference(
            make_slot_scheduler(kind, total_cores, cores_per_node), policy
        )
        new_calls = _counting(agent.slots)
        ref_calls = _counting(ref.slots)
        nnodes = agent.slots.nnodes
        units: list[ComputeUnit] = []
        held: list[list[int]] = []  # placements live in both schedulers

        def one_pass():
            launched_before = len(record.launched)
            failed_before = len(record.unplaceable)
            misses_before = new_calls[1]
            agent._schedule_waiting()
            assert new_calls[1] == misses_before
            want_launched, want_unplaceable = ref.schedule()
            got_launched = [
                (units.index(u), list(u.slots))
                for u in record.launched[launched_before:]
            ]
            assert got_launched == want_launched
            got_unplaceable = [
                units.index(u) for u in record.unplaceable[failed_before:]
            ]
            assert got_unplaceable == want_unplaceable
            assert [units.index(u) for _, u, _, _ in agent._waiting] == [
                key for key, *_ in ref.waiting
            ]
            assert new_calls[0] <= ref_calls[0]
            held.extend(placed for _, placed in got_launched)

        for op, a, b in ops:
            if op == "arrive":
                cores = 1 + a % total_cores
                unit = ComputeUnit(
                    ComputeUnitDescription(
                        executable="t", cores=cores, mpi=cores > 1
                    ),
                    session,
                )
                # b's low bits pick excluded nodes on this pilot (some
                # sets leave too few eligible cores); bit 7 adds one on
                # another pilot, which excludes nothing here.
                avoid = frozenset(
                    node for node in range(min(nnodes, 6)) if b >> node & 1
                )
                for node in avoid:
                    unit.exclude_node(PILOT, node)
                if b & 128:
                    unit.exclude_node("pilot.other", 0)
                units.append(unit)
                agent._enqueue([unit])
                ref.waiting.append(
                    (len(units) - 1, cores, avoid, bool(avoid or b & 128))
                )
            elif op == "pass":
                one_pass()
            elif op == "hold":
                cores = 1 + a % total_cores
                placed = agent.slots.alloc(cores)
                assert ref.slots.alloc(cores) == placed
                if placed is not None:
                    held.append(placed)
            elif op == "release" and held:
                placed = held.pop(a % len(held))
                agent.slots.dealloc(list(placed))
                ref.slots.dealloc(list(placed))
            elif op == "cancel" and ref.waiting:
                key = ref.waiting[a % len(ref.waiting)][0]
                agent.cancel_unit(units[key])
                ref.waiting = deque(
                    item for item in ref.waiting if item[0] != key
                )
            elif op == "fail":
                agent.slots.fail_node(a % nnodes)
                ref.slots.fail_node(a % nnodes)
            elif op == "repair":
                agent.slots.repair_node(a % nnodes)
                ref.slots.repair_node(a % nnodes)
            assert agent.slots.free_cores == ref.slots.free_cores
        one_pass()

        queue = agent._waiting
        # The width multiset of the queue (formerly ``_waiting_sizes``).
        sizes = Counter(cores for _, cores, _, _ in ref.waiting)
        assert Counter(cores for _, _, cores, _ in queue) == sizes
        # Every FIFO holds its own width in arrival order, and the
        # sorted width list names exactly the non-empty FIFOs, so its
        # head is the narrowest unit a pass can place (formerly
        # ``_min_waiting``); units that failed their check sit apart.
        for width, fifo in queue.by_width.items():
            assert fifo and list(fifo) == sorted(fifo)
            assert {cores for _, _, cores, _ in fifo} == {width}
        assert queue.widths == sorted(queue.by_width)
        if policy == "backfill":
            assert not queue.doomed
            assert queue.widths[:1] == ([min(sizes)] if sizes else [])
        # The row map names every queued unit (formerly ``_waiting_rows``).
        assert set(queue.rows) == {u._i for _, u, _, _ in queue}
        assert sorted(
            [*queue.doomed, *(e for f in queue.by_width.values() for e in f)]
        ) == list(queue)
    finally:
        session.close()


@pytest.mark.parametrize("policy", ["backfill", "fifo"])
@pytest.mark.parametrize("kind", ["contiguous", "scattered"])
class TestDifferential:
    @settings(max_examples=80, deadline=None)
    @given(
        total_cores=st.integers(min_value=1, max_value=48),
        cores_per_node=st.one_of(
            st.none(), st.integers(min_value=1, max_value=17)
        ),
        ops=_OPS,
    )
    def test_random_states_schedule_identically(
        self, kind, policy, total_cores, cores_per_node, ops
    ):
        _run_and_compare(kind, policy, total_cores, cores_per_node, ops)

    def test_fragmented_pool_with_exclusions(self, kind, policy):
        """A checkerboard of 2-core holes, a wide unit that fails its
        probe, narrower units behind it, and an unplaceable unit."""
        ops = [("hold", 1, 0)] * 8  # eight 2-core blocks on 16 cores
        ops += [("release", 0, 0), ("release", 2, 0), ("release", 4, 0)]
        ops += [
            ("arrive", 3, 0),     # 4 cores: only fits when unfragmented
            ("arrive", 1, 0),     # 2 cores
            ("arrive", 7, 3),     # 8 cores avoiding nodes 0 and 1
            ("arrive", 0, 1),     # 1 core avoiding node 0
            ("arrive", 1, 128),   # 2 cores, excluded on another pilot
            ("pass", 0, 0),
            ("release", 0, 0),
            ("pass", 0, 0),
        ]
        _run_and_compare(kind, policy, 16, 4, ops)
