"""Task-level fault injection for simulated runs.

The paper's §I motivates EnTK partly by "running large ensembles in a
fault-tolerant way"; together with pattern-level retries
(:attr:`~repro.core.execution_pattern.ExecutionPattern.retry_policy`)
this model lets the reproduction quantify that claim: each launched unit
fails, with probability ``rate``, partway through its modelled runtime
(mimicking a node crash or a killed process).

Faults draw from their own named random stream, so enabling them does not
perturb queue-wait or network draws of an otherwise identical run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.eventsim import RandomStreams
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["TaskFault", "NodeFailure", "PilotFailure", "FaultModel"]


class TaskFault(RuntimeError):
    """The injected failure carried by a faulted unit."""


class NodeFailure(RuntimeError):
    """Carried by a unit killed by a node crash (or placement exhaustion)."""


class PilotFailure(RuntimeError):
    """Carried by a unit killed by its pilot's container job dying."""


@dataclass
class FaultModel:
    """Bernoulli task faults with a uniform failure point.

    ``rate`` is the per-execution failure probability; a failing unit dies
    after ``U(0.1, 0.9)`` of its modelled runtime (it still occupied its
    cores for that long, which is what makes faults expensive).
    """

    rate: float = 0.0
    _rng: "np.random.Generator | None" = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ConfigurationError("fault rate must be in [0, 1)")

    def bind(self, streams: RandomStreams) -> "FaultModel":
        self._rng = streams.get("task_faults")
        return self

    @property
    def enabled(self) -> bool:
        return self.rate > 0.0

    def draw(self, runtime: float) -> float | None:
        """Return the failure time offset for one execution, or ``None``.

        ``runtime`` is the unit's modelled duration; the returned offset is
        when (relative to execution start) the fault strikes.
        """
        if not self.enabled:
            return None
        if self._rng is None:
            raise ConfigurationError("FaultModel.bind() was never called")
        if self._rng.random() >= self.rate:
            return None
        return float(runtime * self._rng.uniform(0.1, 0.9))
