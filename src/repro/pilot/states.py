"""State models of pilots and compute units.

The unit model follows RADICAL-Pilot's split between client-side (unit
manager) and agent-side states, because the paper's overhead decomposition
(Fig. 3) hangs durations off exactly these transitions.
"""

from __future__ import annotations

import enum
from typing import Callable

from repro.exceptions import StateTransitionError

__all__ = ["PilotState", "UnitState", "validate_pilot_edge", "validate_unit_edge"]


class PilotState(str, enum.Enum):
    """NEW -> PENDING -> ACTIVE -> {DONE, FAILED, CANCELED}.

    ``ACTIVE -> PENDING`` is the resubmission edge: a pilot whose container
    job died re-enters the batch queue (see
    :meth:`~repro.pilot.pilot_manager.PilotManager`) instead of dead-ending
    in FAILED while resubmission budget remains.
    """

    NEW = "NEW"
    PENDING = "PENDING"
    ACTIVE = "ACTIVE"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELED = "CANCELED"

    @property
    def is_final(self) -> bool:
        return self in (PilotState.DONE, PilotState.FAILED, PilotState.CANCELED)


_PILOT_EDGES: dict[PilotState, frozenset[PilotState]] = {
    PilotState.NEW: frozenset(
        {PilotState.PENDING, PilotState.FAILED, PilotState.CANCELED}
    ),
    PilotState.PENDING: frozenset(
        {PilotState.ACTIVE, PilotState.FAILED, PilotState.CANCELED}
    ),
    PilotState.ACTIVE: frozenset(
        {PilotState.PENDING, PilotState.DONE, PilotState.FAILED, PilotState.CANCELED}
    ),
    PilotState.DONE: frozenset(),
    PilotState.FAILED: frozenset(),
    PilotState.CANCELED: frozenset(),
}


class UnitState(str, enum.Enum):
    """Client-side then agent-side unit states.

    NEW -> UMGR_SCHEDULING -> AGENT_STAGING_INPUT -> AGENT_SCHEDULING
        -> EXECUTING -> AGENT_STAGING_OUTPUT -> DONE
    with FAILED/CANCELED reachable from every non-final state.

    Two *requeue* edges point backwards: a unit killed by a node or pilot
    failure while scheduled or executing returns to UMGR_SCHEDULING, so the
    unit manager can resubmit the same unit under its retry policy.
    """

    NEW = "NEW"
    UMGR_SCHEDULING = "UMGR_SCHEDULING"
    AGENT_STAGING_INPUT = "AGENT_STAGING_INPUT"
    AGENT_SCHEDULING = "AGENT_SCHEDULING"
    EXECUTING = "EXECUTING"
    AGENT_STAGING_OUTPUT = "AGENT_STAGING_OUTPUT"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELED = "CANCELED"

    @property
    def is_final(self) -> bool:
        return self in (UnitState.DONE, UnitState.FAILED, UnitState.CANCELED)


_UNIT_ORDER = [
    UnitState.NEW,
    UnitState.UMGR_SCHEDULING,
    UnitState.AGENT_STAGING_INPUT,
    UnitState.AGENT_SCHEDULING,
    UnitState.EXECUTING,
    UnitState.AGENT_STAGING_OUTPUT,
    UnitState.DONE,
]

_UNIT_EDGES: dict[UnitState, frozenset[UnitState]] = {
    state: frozenset(
        {_UNIT_ORDER[i + 1], UnitState.FAILED, UnitState.CANCELED}
    )
    for i, state in enumerate(_UNIT_ORDER[:-1])
}
_UNIT_EDGES[UnitState.DONE] = frozenset()
_UNIT_EDGES[UnitState.FAILED] = frozenset()
_UNIT_EDGES[UnitState.CANCELED] = frozenset()
# Requeue edges: node/pilot failure sends a scheduled or executing unit
# back to the unit manager for another attempt.
for _requeue_from in (UnitState.AGENT_SCHEDULING, UnitState.EXECUTING):
    _UNIT_EDGES[_requeue_from] = _UNIT_EDGES[_requeue_from] | {
        UnitState.UMGR_SCHEDULING
    }


def validate_pilot_edge(entity: str, current: PilotState, target: PilotState) -> None:
    if target not in _PILOT_EDGES[current]:
        raise StateTransitionError(entity, current.value, target.value)


def validate_unit_edge(
    entity: str | Callable[[], str], current: UnitState, target: UnitState
) -> None:
    """Raise :class:`StateTransitionError` unless *current* -> *target* is
    a legal unit edge.  *entity* names the unit in the error; pass a
    callable to build the name only when the edge is illegal."""
    if target not in _UNIT_EDGES[current]:
        if callable(entity):
            entity = entity()
        raise StateTransitionError(entity, current.value, target.value)
