"""Driver for the adaptive Simulation-Analysis Loop."""

from __future__ import annotations

from repro.core.drivers.sal import SimulationAnalysisLoopDriver
from repro.utils.logger import get_logger

__all__ = ["AdaptiveSimulationAnalysisLoopDriver"]

log = get_logger("core.driver.adaptive")


class AdaptiveSimulationAnalysisLoopDriver(SimulationAnalysisLoopDriver):
    """SAL driver that consults the pattern's adapt() hook at each barrier."""

    def _after_analysis_barrier(self) -> None:
        pattern = self.pattern
        iteration = self._iteration
        store = self.session.unit_store
        rows = [u._i for u in self.units]
        analysis_units = [
            u
            for u, phase, it in zip(
                self.units, store.tag_values(rows, "phase"),
                store.tag_values(rows, "iteration"),
            )
            if phase == "ana" and it == iteration
        ]
        decision = pattern.adapt(iteration, analysis_units)
        decision.validate()
        pattern.decisions.append(decision)
        self.session.prof.event(
            "entk_adapt_decision",
            pattern.uid,
            iteration=iteration,
            proceed=decision.proceed,
            simulation_instances=decision.simulation_instances,
            analysis_instances=decision.analysis_instances,
        )
        if decision.simulation_instances is not None:
            log.info(
                "adapt: iteration %d resizes simulations %d -> %d",
                iteration,
                pattern.simulation_instances,
                decision.simulation_instances,
            )
            pattern.simulation_instances = decision.simulation_instances
        if decision.analysis_instances is not None:
            pattern.analysis_instances = decision.analysis_instances
        if not decision.proceed or iteration >= pattern.iterations:
            self._start_post_loop()
        else:
            self._start_iteration(iteration + 1)
