"""The Simulation-Analysis Loop pattern (paper Fig. 2c).

A two-stage iterative pattern: every iteration runs ``N`` simulation
instances, synchronizes, then runs ``M`` analysis instances, synchronizes,
and loops.  Optional ``pre_loop`` / ``post_loop`` singleton stages bracket
the loop (the EnMD API the paper's experiments used had both).

Placeholders available in staging directives:

* ``$PRE_LOOP``                         — sandbox of the pre_loop task,
* ``$PREV_SIMULATION``                  — sandbox of the same-instance
  simulation of the current iteration (analysis stage),
* ``$PREV_ANALYSIS``                    — sandbox of the same-instance
  analysis of the previous iteration (simulation stage),
* ``$SIMULATION_<iter>_<instance>``     — any specific simulation,
* ``$ANALYSIS_<iter>_<instance>``       — any specific analysis,
* ``$SHARED``                           — the pilot-wide directory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.execution_pattern import ExecutionPattern
from repro.exceptions import PatternError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kernel_plugin import Kernel

__all__ = ["SimulationAnalysisLoop"]


class SimulationAnalysisLoop(ExecutionPattern):
    """Iterative simulate-then-analyze with global barriers.

    Parameters
    ----------
    iterations:
        Number of loop iterations (1-based).
    simulation_instances:
        Simulation ensemble size N per iteration.
    analysis_instances:
        Analysis ensemble size M per iteration (often 1: a serial, global
        analysis such as CoCo).
    """

    pattern_name = "sal"

    def __init__(
        self,
        iterations: int,
        simulation_instances: int,
        analysis_instances: int = 1,
    ) -> None:
        super().__init__()
        self.iterations = self._check_positive(iterations, "iterations")
        self.simulation_instances = self._check_positive(
            simulation_instances, "simulation_instances"
        )
        self.analysis_instances = self._check_positive(
            analysis_instances, "analysis_instances"
        )

    # -- user hooks ---------------------------------------------------------------

    def pre_loop(self) -> "Kernel | None":
        """Optional setup task executed once before iteration 1."""
        return None

    def simulation_stage(self, iteration: int, instance: int) -> "Kernel":
        raise PatternError(
            f"{type(self).__name__} must define simulation_stage(iteration, instance)"
        )

    def analysis_stage(self, iteration: int, instance: int) -> "Kernel":
        raise PatternError(
            f"{type(self).__name__} must define analysis_stage(iteration, instance)"
        )

    def post_loop(self) -> "Kernel | None":
        """Optional teardown task executed once after the last iteration."""
        return None

    # -- used by the driver ----------------------------------------------------------

    def get_simulation(self, iteration: int, instance: int) -> "Kernel":
        kernel = self.simulation_stage(iteration, instance)
        return self._require_kernel(
            kernel, "simulation_stage({}, {})", iteration, instance
        )

    def get_analysis(self, iteration: int, instance: int) -> "Kernel":
        kernel = self.analysis_stage(iteration, instance)
        return self._require_kernel(
            kernel, "analysis_stage({}, {})", iteration, instance
        )

    def validate(self) -> None:
        super().validate()
        if type(self).simulation_stage is SimulationAnalysisLoop.simulation_stage:
            raise PatternError(
                f"{type(self).__name__} must define simulation_stage()"
            )
        if type(self).analysis_stage is SimulationAnalysisLoop.analysis_stage:
            raise PatternError(f"{type(self).__name__} must define analysis_stage()")
