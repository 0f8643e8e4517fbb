"""The compute pilot: a placeholder job holding cores for the agent."""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.pilot.description import ComputePilotDescription
from repro.pilot.states import PilotState, validate_pilot_edge
from repro.utils.ids import generate_id

__all__ = ["ComputePilot"]


class ComputePilot:
    """Runtime handle of one pilot (container job + agent)."""

    def __init__(self, description: ComputePilotDescription, session: Any) -> None:
        description.validate()
        self.uid = generate_id("pilot")
        self.description = description
        self.session = session
        self._state = PilotState.NEW
        self._lock = threading.RLock()
        self._callbacks: list[Callable[["ComputePilot", PilotState], Any]] = []
        self.timestamps: dict[str, float] = {"NEW": session.now()}
        self.agent: Any = None  # attached by the pilot manager at launch
        self.saga_job: Any = None
        #: Container-job resubmissions consumed (pilot-level fault tolerance).
        self.resubmits = 0

    @property
    def state(self) -> PilotState:
        return self._state

    @property
    def cores(self) -> int:
        return self.description.cores

    def advance(self, target: PilotState) -> None:
        with self._lock:
            validate_pilot_edge(f"ComputePilot {self.uid}", self._state, target)
            self._state = target
            self.timestamps[target.value] = self.session.now()
            callbacks = list(self._callbacks)
        self.session.prof.event("pilot_state", self.uid, state=target.value)
        for cb in callbacks:
            cb(self, target)
        self.session.notify()

    def add_callback(self, callback: Callable[["ComputePilot", PilotState], Any]) -> None:
        self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ComputePilot {self.uid} {self._state.value} "
            f"{self.description.resource} cores={self.cores}>"
        )
