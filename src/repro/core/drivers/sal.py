"""Driver for the Simulation-Analysis Loop.

Ordering rules (paper Fig. 2c): within one iteration all N simulations run
(concurrently, resources permitting) and are *globally synchronized* before
the M analysis tasks start; the analyses synchronize before the next
iteration's simulations.  ``pre_loop`` runs before iteration 1 and
``post_loop`` after the final analysis barrier.

A failure anywhere aborts the remainder of the loop (collective properties
of the whole ensemble are computed, so partial iterations are worthless —
paper §I).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.drivers.base import PatternDriver, SubmitRequest
from repro.pilot.states import UnitState

if TYPE_CHECKING:  # pragma: no cover
    from repro.pilot.unit import ComputeUnit

__all__ = ["SimulationAnalysisLoopDriver"]


class SimulationAnalysisLoopDriver(PatternDriver):
    """Executes :class:`~repro.core.patterns.simulation_analysis_loop.SimulationAnalysisLoop`."""

    def __init__(self, pattern, handle) -> None:
        super().__init__(pattern, handle)
        self._phase = "init"  # init | pre_loop | sim | ana | post_loop | done
        self._iteration = 0
        self._outstanding = 0
        self._aborted = False
        #: placeholder map, grows as stages finish.
        self._tokens: dict[str, str] = {}
        #: per-iteration (simulation_instances, analysis_instances) — the
        #: sizes may change between iterations under adaptive execution.
        self._sizes: dict[int, tuple[int, int]] = {}

    # -- phase machine ---------------------------------------------------------------

    def start(self) -> None:
        pre = self.pattern.pre_loop()
        if pre is not None:
            self._phase = "pre_loop"
            self._outstanding = 1
            units = self.submit(
                [SubmitRequest(kernel=self.pattern._require_kernel(pre, "pre_loop()"),
                               tags={"phase": "pre_loop"},
                               placeholders=dict(self._tokens))]
            )
            self._tokens["PRE_LOOP"] = units[0].uid
        else:
            self._start_iteration(1)

    def _start_iteration(self, iteration: int) -> None:
        self._iteration = iteration
        self._phase = "sim"
        pattern = self.pattern
        self._sizes[iteration] = (
            pattern.simulation_instances,
            pattern.analysis_instances,
        )
        requests = []
        for instance in range(1, pattern.simulation_instances + 1):
            placeholders = dict(self._tokens)
            if iteration > 1:
                _, prev_analysis_count = self._sizes[iteration - 1]
                placeholders["PREV_ANALYSIS"] = self._tokens[
                    f"ANALYSIS_{iteration - 1}_{min(instance, prev_analysis_count)}"
                ]
            requests.append(
                SubmitRequest(
                    kernel=pattern.get_simulation(iteration, instance),
                    tags={"phase": "sim", "iteration": iteration,
                          "instance": instance},
                    placeholders=placeholders,
                )
            )
        self._outstanding = len(requests)
        units = self.submit(requests)
        for request, unit in zip(requests, units):
            token = f"SIMULATION_{iteration}_{request.tags['instance']}"
            self._tokens[token] = unit.uid

    def _start_analysis(self) -> None:
        self._phase = "ana"
        pattern = self.pattern
        iteration = self._iteration
        requests = []
        sim_count, _ = self._sizes[iteration]
        for instance in range(1, pattern.analysis_instances + 1):
            placeholders = dict(self._tokens)
            placeholders["PREV_SIMULATION"] = self._tokens[
                f"SIMULATION_{iteration}_{min(instance, sim_count)}"
            ]
            requests.append(
                SubmitRequest(
                    kernel=pattern.get_analysis(iteration, instance),
                    tags={"phase": "ana", "iteration": iteration,
                          "instance": instance},
                    placeholders=placeholders,
                )
            )
        self._outstanding = len(requests)
        units = self.submit(requests)
        for request, unit in zip(requests, units):
            token = f"ANALYSIS_{iteration}_{request.tags['instance']}"
            self._tokens[token] = unit.uid

    def _start_post_loop(self) -> None:
        post = self.pattern.post_loop()
        if post is None:
            self._phase = "done"
            return
        self._phase = "post_loop"
        self._outstanding = 1
        self.submit(
            [SubmitRequest(kernel=self.pattern._require_kernel(post, "post_loop()"),
                           tags={"phase": "post_loop"},
                           placeholders=dict(self._tokens))]
        )

    # -- events -----------------------------------------------------------------------

    def on_units_final(self, units: list["ComputeUnit"], state: UnitState) -> None:
        # Every unit of a batch belongs to the current phase: the next
        # phase starts only once this one's last unit is final.
        self._outstanding -= len(units)
        if state is not UnitState.DONE:
            self._aborted = True
        if self._outstanding:
            return
        if self._aborted:
            self._phase = "done"
            return
        if self._phase == "pre_loop":
            self._start_iteration(1)
        elif self._phase == "sim":
            self._start_analysis()
        elif self._phase == "ana":
            self._after_analysis_barrier()
        elif self._phase == "post_loop":
            self._phase = "done"

    def _after_analysis_barrier(self) -> None:
        """Decide what follows a completed analysis barrier.

        The static loop continues to the next iteration until
        ``pattern.iterations``; the adaptive driver overrides this.
        """
        if self._iteration < self.pattern.iterations:
            self._start_iteration(self._iteration + 1)
        else:
            self._start_post_loop()

    def on_unit_retried(self, old, new) -> None:
        tags = old.description.tags
        with self._lock:
            if tags.get("phase") == "pre_loop":
                self._tokens["PRE_LOOP"] = new.uid
            elif tags.get("phase") == "sim":
                self._tokens[
                    f"SIMULATION_{tags['iteration']}_{tags['instance']}"
                ] = new.uid
            elif tags.get("phase") == "ana":
                self._tokens[
                    f"ANALYSIS_{tags['iteration']}_{tags['instance']}"
                ] = new.uid

    @property
    def done(self) -> bool:
        return self._phase == "done"
