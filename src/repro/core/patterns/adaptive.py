"""Adaptive Simulation-Analysis Loop (paper §V's planned enhancement).

The paper's roadmap: "Ensemble toolkit will progressively support more
adaptive scenarios, for example the ability to kill-replace tasks, vary the
number of tasks between stages, vary the workload in each task during
execution time."  This pattern delivers the decision-point API for the
first two mechanisms that operate at stage boundaries:

* after every analysis barrier the user's :meth:`adapt` hook inspects the
  completed analysis tasks and returns an :class:`AdaptDecision` that can
  **stop the loop early** (convergence) or **change the ensemble sizes** of
  the following iteration;
* together with :attr:`~repro.core.execution_pattern.ExecutionPattern.retry_policy`
  this covers kill-replace of failed members.

Example::

    class Converging(AdaptiveSimulationAnalysisLoop):
        def adapt(self, iteration, analysis_units):
            occupancy = analysis_units[0].result["occupancy"]
            if occupancy > 0.9:
                return AdaptDecision(proceed=False)       # converged
            return AdaptDecision(simulation_instances=self.simulation_instances * 2)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.patterns.simulation_analysis_loop import SimulationAnalysisLoop
from repro.exceptions import PatternError

if TYPE_CHECKING:  # pragma: no cover
    from repro.pilot.unit import ComputeUnit

__all__ = ["AdaptDecision", "AdaptiveSimulationAnalysisLoop"]


@dataclass(frozen=True)
class AdaptDecision:
    """What the loop should do after an analysis barrier.

    ``proceed=False`` ends the loop now (post_loop still runs).
    ``simulation_instances`` / ``analysis_instances`` resize the *next*
    iteration's stages (``None`` keeps the current size).
    """

    proceed: bool = True
    simulation_instances: int | None = None
    analysis_instances: int | None = None

    def validate(self) -> None:
        for field_name in ("simulation_instances", "analysis_instances"):
            value = getattr(self, field_name)
            if value is not None and (not isinstance(value, int) or value < 1):
                raise PatternError(
                    f"AdaptDecision.{field_name} must be a positive int or None, "
                    f"got {value!r}"
                )


class AdaptiveSimulationAnalysisLoop(SimulationAnalysisLoop):
    """SAL whose shape is decided at run time.

    ``iterations`` becomes an upper bound; :meth:`adapt` may stop earlier
    and may retarget the ensemble sizes between iterations.  Everything
    else (barriers, placeholders, staging) behaves exactly like
    :class:`SimulationAnalysisLoop`.
    """

    pattern_name = "adaptive-sal"

    def adapt(
        self, iteration: int, analysis_units: Sequence["ComputeUnit"]
    ) -> AdaptDecision:
        """Inspect iteration *iteration*'s analysis results; default: static."""
        return AdaptDecision()

    #: Record of applied decisions, for tests and provenance.
    @property
    def decisions(self) -> list[AdaptDecision]:
        if not hasattr(self, "_decisions"):
            self._decisions: list[AdaptDecision] = []
        return self._decisions
