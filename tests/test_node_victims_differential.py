"""Differential test: node-failure victims from the occupancy index vs. a scan.

The agent keeps, per node, the in-flight units whose slots lie on it,
updated at launch and release, and a node failure kills exactly those.
The full scan it replaced read the slots of every executing unit; the
victims, and the order they are killed in, must be the same.
Hypothesis drives an agent through random arrivals (some spanning
nodes, some avoiding nodes so that scattered placements skip nodes),
scheduling passes, completions, node failures and repairs, under both
slot strategies, and compares the index with the scan after every step.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.pilot.agent.agent import Agent
from repro.pilot.agent.slots import make_slot_scheduler
from repro.pilot.description import ComputeUnitDescription
from repro.pilot.session import Session
from repro.pilot.unit import ComputeUnit

PILOT = "pilot.victims"


def _scan(agent, node):
    """The victims of *node* as the full scan found them."""
    cpn = agent.slots.cores_per_node
    return [
        unit for unit in agent._executing.values()
        if any(slot // cpn == node for slot in unit.slots)
    ]


def _make_agent(session, kind, total_cores, cores_per_node):
    agent = Agent(
        session, SimpleNamespace(uid=PILOT, cores=total_cores),
        slot_strategy=kind,
    )
    agent.slots = make_slot_scheduler(kind, total_cores, cores_per_node)
    agent._started = True
    killed: list[ComputeUnit] = []
    agent.executor = SimpleNamespace(
        launch_units=lambda batch, _cb: None,
        kill=killed.append,
        shutdown=lambda: None,
    )
    agent._fail = lambda units, _exc, **_release: None
    return agent, killed


_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["arrive", "arrive", "arrive", "pass", "finish", "fail", "repair"]
        ),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=63),
    ),
    max_size=60,
)


def _run_and_compare(kind, total_cores, cores_per_node, ops):
    session = Session(mode="sim", platform="xsede.comet")
    try:
        agent, killed = _make_agent(session, kind, total_cores, cores_per_node)
        nnodes = agent.slots.nnodes

        def check_index():
            for node in range(nnodes):
                assert list(agent._occupants[node].values()) == _scan(agent, node)

        for op, a, b in ops:
            if op == "arrive":
                cores = 1 + a % total_cores
                unit = ComputeUnit(
                    ComputeUnitDescription(
                        executable="t", cores=cores, mpi=cores > 1
                    ),
                    session,
                )
                for node in range(min(nnodes, 6)):
                    if b >> node & 1:
                        unit.exclude_node(PILOT, node)
                agent._enqueue([unit])
            elif op == "pass":
                agent._schedule_waiting()
            elif op == "finish" and agent._executing:
                units = list(agent._executing.values())
                agent._on_executed([units[a % len(units)]], RuntimeError("x"))
            elif op == "fail":
                node = a % nnodes
                want = _scan(agent, node)
                before = len(killed)
                agent._on_node_failure(node)
                assert killed[before:] == want
            elif op == "repair":
                agent._on_node_repair(a % nnodes)
            check_index()
    finally:
        session.close()


@pytest.mark.parametrize("kind", ["contiguous", "scattered"])
class TestVictims:
    @settings(max_examples=80, deadline=None)
    @given(
        total_cores=st.integers(min_value=1, max_value=40),
        cores_per_node=st.integers(min_value=1, max_value=9),
        ops=_OPS,
    )
    def test_random_runs_kill_the_scanned_victims(
        self, kind, total_cores, cores_per_node, ops
    ):
        _run_and_compare(kind, total_cores, cores_per_node, ops)

    def test_units_spanning_nodes(self, kind):
        """Units of 6 and 3 cores on 4-core nodes, one of them placed
        around a hole; failing each node kills the units across it in
        launch order."""
        ops = [
            ("arrive", 5, 0),   # 6 cores: nodes 0-1
            ("arrive", 2, 0),   # 3 cores: nodes 1-2
            ("arrive", 0, 0),   # 1 core
            ("pass", 0, 0),
            ("finish", 0, 0),   # the 6-core unit leaves a hole
            ("arrive", 6, 0),   # 7 cores: scattered fills the hole
            ("pass", 0, 0),
            ("fail", 1, 0),
            ("repair", 1, 0),
            ("pass", 0, 0),
            ("fail", 2, 0),
            ("fail", 0, 0),
        ]
        _run_and_compare(kind, 16, 4, ops)
