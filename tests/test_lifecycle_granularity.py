"""Differential test: trace granularity must not change what a run does.

There is one unit lifecycle.  ``Session(bulk_lifecycle=True)`` only
changes how the :class:`~repro.pilot.unit_store.UnitStore` batches the
lists every stage passes (one batch per list instead of batches of one)
and names their events.  So a per-unit run and a batched run of the
same seeded workload must agree on everything the simulation decides:
TTC, every unit's final state, attempt count and state timestamps, and
how often the fault machinery fired — with node, pilot and task faults
as much as without any.
"""

from __future__ import annotations

from itertools import product

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


def _outcome(pattern_name: str, faults: str, seed: int, bulk: bool):
    reset_id_counters()
    handle = ResourceHandle(
        "xsede.comet", cores=48, walltime=900, mode="sim", seed=seed,
        bulk_lifecycle=bulk, **FAULTS[faults],
    )
    handle.allocate()
    try:
        handle.run(PATTERNS[pattern_name]())
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
    names = [ev.name for ev in handle.profile]
    counts = {name: names.count(name) for name in _COUNTED}
    return ttc, units, counts, names


@pytest.mark.parametrize("pattern_name,faults,seed", CASES)
def test_batched_run_matches_per_unit_run(pattern_name, faults, seed):
    ttc, units, counts, names = _outcome(pattern_name, faults, seed, False)
    b_ttc, b_units, b_counts, b_names = _outcome(
        pattern_name, faults, seed, True
    )
    assert "unit_state" in names and "unit_state" not in b_names
    assert "units_state" in b_names and "units_state" not in names
    if faults in _EXERCISED:
        assert counts[_EXERCISED[faults]] > 0
    assert b_ttc == ttc
    assert b_units.keys() == units.keys()
    for uid, outcome in units.items():
        assert b_units[uid] == outcome, uid
    assert b_counts == counts
