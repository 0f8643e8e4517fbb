"""Base class of execution patterns (paper §III.B.1, §III.D).

An execution pattern is "a parametrized template that captures the execution
of the ensemble(s)": it fixes coordination and synchronization, while the
user supplies only the workload (kernels) of each stage.  Concrete patterns
live in :mod:`repro.core.patterns`; each has a matching *driver* in
:mod:`repro.core.drivers` that enforces its ordering rules on the pilot
runtime.
"""

from __future__ import annotations

from repro.core.kernel_plugin import Kernel
from repro.exceptions import PatternError
from repro.utils.ids import generate_id

__all__ = ["ExecutionPattern"]


class ExecutionPattern:
    """Common behaviour of all execution patterns.

    Subclasses declare ``pattern_name`` and implement stage methods returning
    :class:`~repro.core.kernel_plugin.Kernel` objects.  Instances are
    single-use: :meth:`ResourceHandle.run` consumes one pattern object and
    records results on it (``units``, ``failed_units``).
    """

    pattern_name: str = "base"

    #: Fault tolerance (paper §I lists fault-tolerant execution of large
    #: ensembles among the requirements scripting fails): the
    #: :class:`repro.pilot.retry.RetryPolicy` under which a failed task is
    #: resubmitted before its failure is surfaced to the pattern, as an
    #: attempt budget plus backoff between resubmissions.  ``None`` never
    #: retries; ``RetryPolicy(max_attempts=N + 1, backoff_base=0.0)``
    #: retries up to N times, immediately.
    retry_policy = None

    def __init__(self) -> None:
        self.uid = generate_id(f"pattern.{self.pattern_name}")
        #: Filled by the execution plugin after the run.
        self.units: list = []
        self.failed_units: list = []
        self.executed = False

    # -- hooks ------------------------------------------------------------------

    def validate(self) -> None:
        """Sanity-check the parametrization; override and call super()."""
        if self.executed:
            raise PatternError(
                f"pattern {self.uid} was already executed; create a new instance"
            )
        if hasattr(self, "max_task_retries"):
            raise PatternError(
                f"{type(self).__name__} sets max_task_retries, which no longer "
                "retries anything; for N retries set retry_policy = "
                "RetryPolicy(max_attempts=N + 1, backoff_base=0.0) "
                "(repro.pilot.retry.RetryPolicy)"
            )

    # -- helpers for subclasses ----------------------------------------------------

    @staticmethod
    def _require_kernel(obj, where: str, *args) -> Kernel:
        """*obj*, if it is a :class:`Kernel`; else a :class:`PatternError`
        naming the hook ``where.format(*args)`` that returned it (the name
        is formatted only then: this runs once per task)."""
        if isinstance(obj, Kernel):
            return obj
        raise PatternError(
            f"{where.format(*args)} must return a Kernel, got {type(obj).__name__}"
        )

    @staticmethod
    def _check_positive(value: int, what: str) -> int:
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise PatternError(f"{what} must be a positive integer, got {value!r}")
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.uid}>"
