"""The Bag of Tasks unit pattern.

The simplest unit pattern (paper §III.B: "an execution pattern of a bag of
tasks would create a set of tasks that are independent of each other"):
``size`` tasks, no coupling, no ordering.  Implemented as a one-stage
ensemble of pipelines, which is exactly its semantics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.patterns.pipeline import EnsembleOfPipelines
from repro.exceptions import PatternError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kernel_plugin import Kernel

__all__ = ["BagOfTasks"]


class BagOfTasks(EnsembleOfPipelines):
    """``size`` independent tasks; define :meth:`task`."""

    pattern_name = "bot"

    def __init__(self, size: int) -> None:
        super().__init__(ensemble_size=size, pipeline_size=1)
        self.size = size

    def task(self, instance: int) -> "Kernel":
        """Return the kernel of task *instance* (1-based)."""
        raise PatternError(
            f"{type(self).__name__} must define task(instance)"
        )

    def stage(self, stage_number: int, instance: int) -> "Kernel":
        return self.task(instance)

    def validate(self) -> None:
        # The parent checks no stage_<k>: stage() is overridden here.
        super().validate()
        if type(self).task is BagOfTasks.task:
            raise PatternError(f"{type(self).__name__} must define task(instance)")
