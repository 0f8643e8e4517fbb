"""Tests for multi-pilot execution (round-robin unit routing)."""

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.pilot import (
    ComputePilotDescription,
    ComputeUnitDescription,
    PilotManager,
    Session,
    UnitManager,
    UnitState,
)


def make_two_pilots(cores_a=8, cores_b=8):
    session = Session(mode="sim", platform="xsede.comet")
    pmgr = PilotManager(session)
    pilots = pmgr.submit_pilots(
        [
            ComputePilotDescription(resource="xsede.comet", cores=cores_a,
                                    runtime=600, mode="sim"),
            ComputePilotDescription(resource="xsede.comet", cores=cores_b,
                                    runtime=600, mode="sim"),
        ]
    )
    umgr = UnitManager(session)
    umgr.add_pilots(pilots)
    return session, pmgr, umgr, pilots


def test_units_round_robin_across_pilots():
    session, pmgr, umgr, pilots = make_two_pilots()
    units = umgr.submit_units(
        [ComputeUnitDescription(executable="t", modelled_duration=10.0)
         for _ in range(10)]
    )
    umgr.wait_units()
    assert all(u.state is UnitState.DONE for u in units)
    routed = {pilot.uid: 0 for pilot in pilots}
    for unit in units:
        routed[unit.pilot_uid] += 1
    assert routed[pilots[0].uid] == routed[pilots[1].uid] == 5
    pmgr.cancel_pilots()
    session.close()


def test_two_pilots_double_throughput():
    session, pmgr, umgr, pilots = make_two_pilots(cores_a=4, cores_b=4)
    units = umgr.submit_units(
        [ComputeUnitDescription(executable="t", modelled_duration=100.0)
         for _ in range(16)]
    )
    umgr.wait_units()
    # 16 x 100 s on 8 cores total -> 2 waves ~ 200 s (+ bootstrap).
    assert session.now() < 260.0
    pmgr.cancel_pilots()
    session.close()


def test_wide_units_skip_small_pilots():
    session, pmgr, umgr, pilots = make_two_pilots(cores_a=2, cores_b=16)
    units = umgr.submit_units(
        [ComputeUnitDescription(executable="t", cores=8, mpi=True,
                                modelled_duration=10.0)
         for _ in range(4)]
    )
    umgr.wait_units()
    assert all(u.pilot_uid == pilots[1].uid for u in units)
    pmgr.cancel_pilots()
    session.close()


def test_profile_export_round_trips(tmp_path):
    session, pmgr, umgr, pilots = make_two_pilots()
    umgr.submit_units(
        [ComputeUnitDescription(executable="t", modelled_duration=1.0)]
    )
    umgr.wait_units()
    pmgr.cancel_pilots()
    out = tmp_path / "trace.jsonl"
    count = session.prof.write_jsonl(out)
    lines = out.read_text().splitlines()
    assert len(lines) == count > 0
    records = [json.loads(line) for line in lines]
    assert all({"time", "name", "uid"} <= set(r) for r in records)
    times = [r["time"] for r in records]
    assert times == sorted(times)
    session.close()


# -- routing a list by width runs equals routing it unit by unit -------------


def _route_one_by_one(pilot_cores, rr, widths):
    """Reference round robin: one pilot pick per unit."""
    routing, n = {}, len(pilot_cores)
    for unit, width in enumerate(widths):
        for offset in range(n):
            k = (rr + offset) % n
            if pilot_cores[k] >= width:
                rr = (k + 1) % n
                routing.setdefault(k, []).append(unit)
                break
    return routing, rr


@settings(max_examples=150, deadline=None)
@given(
    pilot_cores=st.lists(st.integers(min_value=1, max_value=8),
                         min_size=1, max_size=5),
    submits=st.lists(st.lists(st.integers(min_value=1, max_value=8),
                              max_size=12), max_size=4),
)
def test_routing_by_runs_matches_unit_by_unit(pilot_cores, submits):
    """``UnitManager._route`` sends every unit to the pilot that one
    round-robin pick per unit would, first-used pilots first, and leaves
    the cursor where those picks leave it."""
    widest = max(pilot_cores)
    umgr = UnitManager.__new__(UnitManager)
    umgr.pilots = [SimpleNamespace(uid=f"pilot.{k}", cores=cores)
                   for k, cores in enumerate(pilot_cores)]
    umgr._rr_next = 0
    rr = 0
    for widths in submits:
        widths = [min(width, widest) for width in widths]
        units = list(range(len(widths)))
        want, rr = _route_one_by_one(pilot_cores, rr, widths)
        got = umgr._route(units, widths)
        assert list(got) == [f"pilot.{k}" for k in want]
        assert {uid: batch for uid, (_, batch) in got.items()} == {
            f"pilot.{k}": batch for k, batch in want.items()
        }
        assert umgr._rr_next == rr
