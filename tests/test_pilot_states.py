"""Tests for pilot/unit state models and entity state machines."""

import pytest

from repro.exceptions import BadParameter, StateTransitionError
from repro.pilot.description import (
    ComputePilotDescription,
    ComputeUnitDescription,
    StagingDirective,
)
from repro.pilot.session import Session
from repro.pilot.states import (
    PilotState,
    UnitState,
    validate_pilot_edge,
    validate_unit_edge,
)
from repro.pilot.unit import ComputeUnit


class TestStateTables:
    def test_happy_path_unit(self):
        order = [
            UnitState.NEW,
            UnitState.UMGR_SCHEDULING,
            UnitState.AGENT_STAGING_INPUT,
            UnitState.AGENT_SCHEDULING,
            UnitState.EXECUTING,
            UnitState.AGENT_STAGING_OUTPUT,
            UnitState.DONE,
        ]
        for current, target in zip(order, order[1:]):
            validate_unit_edge("u", current, target)

    def test_failure_reachable_from_every_non_final(self):
        for state in UnitState:
            if not state.is_final:
                validate_unit_edge("u", state, UnitState.FAILED)
                validate_unit_edge("u", state, UnitState.CANCELED)

    def test_no_skipping_states(self):
        with pytest.raises(StateTransitionError):
            validate_unit_edge("u", UnitState.NEW, UnitState.EXECUTING)
        with pytest.raises(StateTransitionError):
            validate_unit_edge("u", UnitState.EXECUTING, UnitState.DONE)

    def test_entity_callable_builds_the_name_only_on_an_illegal_edge(self):
        calls = []

        def name():
            calls.append(1)
            return "ComputeUnit u.1"

        validate_unit_edge(name, UnitState.NEW, UnitState.UMGR_SCHEDULING)
        assert calls == []
        with pytest.raises(
            StateTransitionError,
            match=r"^ComputeUnit u\.1: illegal state transition "
                  r"'NEW' -> 'EXECUTING'$",
        ):
            validate_unit_edge(name, UnitState.NEW, UnitState.EXECUTING)
        assert calls == [1]

    def test_final_states_are_terminal(self):
        for final in (UnitState.DONE, UnitState.FAILED, UnitState.CANCELED):
            for target in UnitState:
                if target != final:
                    with pytest.raises(StateTransitionError):
                        validate_unit_edge("u", final, target)

    def test_pilot_edges(self):
        validate_pilot_edge("p", PilotState.NEW, PilotState.PENDING)
        validate_pilot_edge("p", PilotState.PENDING, PilotState.ACTIVE)
        validate_pilot_edge("p", PilotState.ACTIVE, PilotState.DONE)
        with pytest.raises(StateTransitionError):
            validate_pilot_edge("p", PilotState.NEW, PilotState.ACTIVE)
        with pytest.raises(StateTransitionError):
            validate_pilot_edge("p", PilotState.DONE, PilotState.ACTIVE)


class TestDescriptions:
    def test_pilot_description_validation(self):
        ComputePilotDescription(resource="x", cores=1, runtime=1).validate()
        with pytest.raises(BadParameter):
            ComputePilotDescription(resource="x", cores=0, runtime=1).validate()
        with pytest.raises(BadParameter):
            ComputePilotDescription(resource="x", cores=1, runtime=0).validate()
        with pytest.raises(BadParameter):
            ComputePilotDescription(
                resource="x", cores=1, runtime=1, mode="cloud"
            ).validate()

    def test_unit_description_validation(self):
        ComputeUnitDescription(executable="x").validate()
        with pytest.raises(BadParameter):
            ComputeUnitDescription(executable="x", cores=0).validate()
        with pytest.raises(BadParameter):
            # multi-core without mpi flag is almost always a bug
            ComputeUnitDescription(executable="x", cores=4).validate()
        ComputeUnitDescription(executable="x", cores=4, mpi=True).validate()

    def test_staging_directive_validation(self):
        StagingDirective(source="a", target="b", action="link")
        with pytest.raises(BadParameter):
            StagingDirective(source="a", target="b", action="teleport")
        with pytest.raises(BadParameter):
            StagingDirective(source="a", target="b", nbytes=-1)

    def test_modelled_runtime_prefers_model(self):
        desc = ComputeUnitDescription(
            executable="x",
            modelled_duration=5.0,
            duration_model=lambda cores, platform: 100.0 / cores,
            cores=4,
            mpi=True,
        )
        assert desc.modelled_runtime(None) == pytest.approx(25.0)

    def test_modelled_runtime_constant_fallback(self):
        desc = ComputeUnitDescription(executable="x", modelled_duration=5.0)
        assert desc.modelled_runtime(None) == 5.0


class TestComputeUnitEntity:
    def make_unit(self):
        session = Session(mode="local")
        unit = ComputeUnit(ComputeUnitDescription(executable="x"), session)
        return session, unit

    def test_advance_records_timestamps_once(self):
        session, unit = self.make_unit()
        unit.advance(UnitState.UMGR_SCHEDULING)
        t = unit.timestamps["UMGR_SCHEDULING"]
        assert t >= unit.timestamps["NEW"]
        session.close()

    def test_illegal_advance_raises(self):
        session, unit = self.make_unit()
        with pytest.raises(StateTransitionError):
            unit.advance(UnitState.DONE)
        session.close()

    def test_callbacks_receive_transitions(self):
        session, unit = self.make_unit()
        seen = []
        unit.add_callback(lambda u, s: seen.append(s))
        unit.advance(UnitState.UMGR_SCHEDULING)
        unit.advance(UnitState.AGENT_STAGING_INPUT)
        assert seen == [UnitState.UMGR_SCHEDULING, UnitState.AGENT_STAGING_INPUT]
        session.close()

    def test_duration_helper(self):
        session, unit = self.make_unit()
        unit.advance(UnitState.UMGR_SCHEDULING)
        d = unit.duration(UnitState.NEW, UnitState.UMGR_SCHEDULING)
        assert d is not None and d >= 0
        assert unit.duration(UnitState.NEW, UnitState.DONE) is None
        session.close()

    def test_profiler_records_state_events(self):
        session, unit = self.make_unit()
        unit.advance(UnitState.UMGR_SCHEDULING)
        events = session.prof.events("units_state", unit.uid)
        assert [e.attrs["state"] for e in events] == ["UMGR_SCHEDULING"]
        session.close()
