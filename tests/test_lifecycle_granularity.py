"""Differential test: batching the trace must not change what a run does.

There is one unit lifecycle, and every stage moves its whole list.  The
:class:`~repro.pilot.unit_store.UnitStore` writes each list as one
``units_*`` event that names its members.  Until batch events named
their members, a session could instead write one ``unit_*`` event per
unit; on every case here (EoP, SAL and bag patterns, without faults and
with node, pilot and task faults, three seeds) the batched trace's
projections (:mod:`tests.trace_projections`) were checked equal to that
per-unit trace's, and the per-unit run was pinned:

* :data:`PER_UNIT_RUNS` holds the digest of what each per-unit run
  decided (TTC, every unit's final state, attempt count and state
  timestamps, how often the fault machinery fired) and of its trace's
  projections.  Today's run must give the same digest.
* :data:`DES_EVENTS` holds the DES events each case stepped in both
  granularities, equal then because both moved lists whole.

The trace read as one batch of one per member (the trace a per-unit
writer would write, in the one format) must project the same too.
"""

from __future__ import annotations

from itertools import product
from types import SimpleNamespace

import pytest

from repro.core.patterns import (
    BagOfTasks,
    EnsembleOfPipelines,
    SimulationAnalysisLoop,
)
from repro.core.resource_handle import ResourceHandle
from repro.pilot.retry import RetryPolicy
from repro.pilot.unit import ComputeUnit
from repro.utils.ids import reset_id_counters
from tests.test_determinism import _sleep
from tests.trace_projections import digest, digests, one_per_unit, project

_RETRY = RetryPolicy(
    max_attempts=10, backoff_base=2.0, backoff_factor=2.0,
    backoff_cap=60.0, jitter=0.5, exclude_failed_nodes=False,
)


class _EoP(EnsembleOfPipelines):
    retry_policy = _RETRY

    def stage_1(self, instance):
        return _sleep(80)

    def stage_2(self, instance):
        return _sleep(40)


class _SAL(SimulationAnalysisLoop):
    retry_policy = _RETRY

    def simulation_stage(self, iteration, instance):
        return _sleep(60)

    def analysis_stage(self, iteration, instance):
        return _sleep(20)


class _Bag(BagOfTasks):
    retry_policy = _RETRY

    def task(self, instance):
        return _sleep(100)


PATTERNS = {
    "eop": lambda: _EoP(ensemble_size=24, pipeline_size=2),
    "sal": lambda: _SAL(iterations=2, simulation_instances=24),
    "bag": lambda: _Bag(size=60),
}

FAULTS = {
    "none": {},
    "node": dict(
        node_mtbf=80.0, node_repair_time=120.0,
        retry_policy=RetryPolicy(
            max_attempts=10, backoff_base=2.0, backoff_factor=2.0,
            backoff_cap=60.0, jitter=0.5, exclude_failed_nodes=True,
        ),
    ),
    "pilot": dict(pilot_mtbf=60.0, max_pilot_resubmits=20,
                  retry_policy=_RETRY),
    # Task faults are retried by the pattern (its class retry_policy).
    "task": dict(fault_rate=0.2),
}

#: The event a fault configuration must produce, so each case provably
#: exercises its failure domain.
_EXERCISED = {"node": "unit_node_kill", "pilot": "unit_pilot_kill",
              "task": "task_fault"}

_COUNTED = ("unit_requeue", "unit_node_kill", "unit_pilot_kill", "task_fault")

SEEDS = (1, 2, 3)

CASES = list(product(PATTERNS, FAULTS, SEEDS))

#: Per case (``pattern-faults-seed``): the :func:`_digest` of the
#: per-unit run, taken while sessions could still write one event per
#: unit (and equal to the batched run's then).
PER_UNIT_RUNS = {
    "eop-none-1": "7f4ceb12b6d3c6c7",
    "eop-none-2": "87dbedb03a2fe91e",
    "eop-none-3": "c406d07383817ed0",
    "eop-node-1": "bec45a57c7341f9a",
    "eop-node-2": "ec7632b1d4a12760",
    "eop-node-3": "1f5722b9c3077dcb",
    "eop-pilot-1": "22f0d9bf979cab71",
    "eop-pilot-2": "bf91ac19cf8fe179",
    "eop-pilot-3": "d963654c7aa77b5c",
    "eop-task-1": "2743244d7a980964",
    "eop-task-2": "727a5f187efc58bf",
    "eop-task-3": "32ba792ce070b1e5",
    "sal-none-1": "f8d7172d24adbf92",
    "sal-none-2": "6a8e8c13ccd26f2e",
    "sal-none-3": "59433a9a8c475523",
    "sal-node-1": "3a728c7c4fbcc01e",
    "sal-node-2": "6d5e9b033ae4d903",
    "sal-node-3": "778d5bbd81703643",
    "sal-pilot-1": "32754cd1978f7b38",
    "sal-pilot-2": "d4b969fc05cd041c",
    "sal-pilot-3": "dae33dc132734f37",
    "sal-task-1": "69cb6d409cfb34b6",
    "sal-task-2": "2a2abf69b0a5446c",
    "sal-task-3": "376bb77a28082f4a",
    "bag-none-1": "74ce08e9fbd0a8a6",
    "bag-none-2": "8367c1e4846cd430",
    "bag-none-3": "8e78775fed4ff786",
    "bag-node-1": "02d19db326151045",
    "bag-node-2": "68812077f65b351d",
    "bag-node-3": "d33fb7283cd49fe0",
    "bag-pilot-1": "4afa8f72dfe85caf",
    "bag-pilot-2": "aafacb74ae8f2835",
    "bag-pilot-3": "9acf0cbfd1445f37",
    "bag-task-1": "15d4f270ca07ae25",
    "bag-task-2": "432a42e50bb8193f",
    "bag-task-3": "24a06c57784c849b",
}

#: Per ``pattern-faults`` case at the first seed: the DES events both
#: granularities stepped.
DES_EVENTS = {
    "eop-none": 13,
    "eop-node": 627,
    "eop-pilot": 65,
    "eop-task": 119,
    "sal-none": 22,
    "sal-node": 559,
    "sal-pilot": 74,
    "sal-task": 92,
    "bag-none": 10,
    "bag-node": 603,
    "bag-pilot": 1201,
    "bag-task": 102,
}


def _outcome(pattern_name: str, faults: str, seed: int):
    reset_id_counters()
    handle = ResourceHandle(
        "xsede.comet", cores=48, walltime=900, mode="sim", seed=seed,
        **FAULTS[faults],
    )
    pattern = PATTERNS[pattern_name]()
    handle.allocate()
    try:
        handle.run(pattern)
        ttc = handle.session.now()
    finally:
        handle.deallocate()
    store = handle.session.unit_store
    units = {}
    for i in range(len(store)):
        unit = ComputeUnit._of(store, i)
        units[unit.uid] = (
            unit.state, unit.attempts, dict(unit.timestamps.items())
        )
    events = list(handle.profile)
    names = [ev.name for ev in events]
    counts = {name: names.count(name) for name in _COUNTED}
    return SimpleNamespace(
        ttc=ttc, units=units, counts=counts, names=names, events=events,
        pattern=pattern, des_events=handle.session.sim.events_processed,
        projection=project(events, pattern),
    )


def _digest(run) -> str:
    """One digest of what a run decided and of its trace's projections."""
    return digest({"ttc": run.ttc, "units": run.units, "counts": run.counts,
                   **digests(run.projection)})


@pytest.mark.parametrize("pattern_name,faults,seed", CASES)
def test_batched_run_matches_per_unit_run(pattern_name, faults, seed):
    run = _outcome(pattern_name, faults, seed)
    assert "units_state" in run.names
    if faults in _EXERCISED:
        assert run.counts[_EXERCISED[faults]] > 0
    assert _digest(run) == PER_UNIT_RUNS[f"{pattern_name}-{faults}-{seed}"]
    split = project(one_per_unit(run.events), run.pattern)
    for name, value in run.projection.items():
        assert split[name] == value, name


@pytest.mark.parametrize("pattern_name,faults", list(product(PATTERNS, FAULTS)))
def test_granularity_steps_the_same_des_events(pattern_name, faults):
    """Lists move whole, so a run steps the DES events pinned when both
    trace granularities stepped them, not one set per unit."""
    run = _outcome(pattern_name, faults, SEEDS[0])
    assert run.des_events == DES_EVENTS[f"{pattern_name}-{faults}"]
