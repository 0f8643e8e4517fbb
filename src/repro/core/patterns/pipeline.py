"""The Ensemble of Pipelines pattern (paper Fig. 2a).

``N`` independent pipelines, each a fixed sequence of ``M`` stages.  Stage
``k+1`` of a pipeline starts only after stage ``k`` of the *same* pipeline
ends; different pipelines never synchronize.

Users subclass and either define ``stage_1`` .. ``stage_M`` methods or
override the generic :meth:`stage`::

    class CharCount(EnsembleOfPipelines):
        def stage_1(self, instance):
            k = Kernel(name="misc.mkfile")
            k.arguments = ["--size=1000", "--filename=out.txt"]
            return k

        def stage_2(self, instance):
            k = Kernel(name="misc.ccount")
            k.arguments = ["--inputfile=out.txt", "--outputfile=counts.txt"]
            k.link_input_data = ["$STAGE_1/out.txt"]
            return k

Data placeholders available in staging directives:

* ``$STAGE_<k>``  — the sandbox of stage *k* of the same pipeline,
* ``$SHARED``     — the pilot-wide shared directory.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

from repro.core.execution_pattern import ExecutionPattern
from repro.core.kernel_plugin import Kernel
from repro.exceptions import PatternError

__all__ = ["EnsembleOfPipelines"]


class EnsembleOfPipelines(ExecutionPattern):
    """N independent M-stage pipelines.

    Parameters
    ----------
    ensemble_size:
        Number of pipelines N (1-based instance numbers).
    pipeline_size:
        Number of stages M in each pipeline.
    """

    pattern_name = "eop"

    def __init__(self, ensemble_size: int, pipeline_size: int = 1) -> None:
        super().__init__()
        self.ensemble_size = self._check_positive(ensemble_size, "ensemble_size")
        self.pipeline_size = self._check_positive(pipeline_size, "pipeline_size")
        #: stage number -> the callable that makes that stage's kernel
        #: for an instance, looked up once (see :meth:`get_stage`).
        self._stage_kernels: dict[int, Callable[[int], Kernel]] = {}

    # -- user hooks ---------------------------------------------------------------

    def stage(self, stage_number: int, instance: int) -> Kernel:
        """Return the kernel of stage *stage_number* for pipeline *instance*.

        The default dispatches to ``stage_<k>`` methods; override for fully
        programmatic stage definitions.
        """
        return self._stage_method(stage_number)(instance)

    def _stage_method(self, stage_number: int) -> Callable[[int], Kernel]:
        """The ``stage_<k>`` method of *stage_number*, or the one error a
        missing method raises wherever it is found missing."""
        method = getattr(self, f"stage_{stage_number}", None)
        if method is None:
            raise PatternError(
                f"{type(self).__name__} must define stage_{stage_number}() "
                f"or override stage() (pipeline_size={self.pipeline_size})"
            )
        return method

    # -- used by the driver ----------------------------------------------------------

    def get_stage(self, stage_number: int, instance: int) -> Kernel:
        """The kernel of stage *stage_number* for pipeline *instance*.

        The driver calls this once per task, so the stage's hook is
        looked up once per stage number: an overridden :meth:`stage`,
        else the ``stage_<k>`` method.
        """
        if not 1 <= instance <= self.ensemble_size:
            raise PatternError(
                f"instance {instance} out of range 1..{self.ensemble_size}"
            )
        make = self._stage_kernels.get(stage_number)
        if make is None:
            if not 1 <= stage_number <= self.pipeline_size:
                raise PatternError(
                    f"stage {stage_number} out of range 1..{self.pipeline_size}"
                )
            if type(self).stage is EnsembleOfPipelines.stage:
                make = self._stage_method(stage_number)
            else:
                make = partial(self.stage, stage_number)
            self._stage_kernels[stage_number] = make
        return self._require_kernel(
            make(instance), "stage_{}(instance={})", stage_number, instance
        )

    def validate(self) -> None:
        super().validate()
        # Fail fast on missing stage methods before anything is submitted.
        if type(self).stage is EnsembleOfPipelines.stage:
            for stage_number in range(1, self.pipeline_size + 1):
                self._stage_method(stage_number)
