"""Retry policies: bounded resubmission with exponential backoff.

One :class:`RetryPolicy` object serves two layers of the stack:

* the **runtime** layer — the unit manager requeues units killed by node
  or pilot failures (see :mod:`repro.cluster.faults`) until the policy's
  attempt budget is exhausted, optionally excluding the nodes that killed
  them before;
* the **pattern** layer — pattern drivers resubmit units whose *task*
  failed (:class:`~repro.pilot.faults.TaskFault`, payload exceptions),
  set as the pattern's ``retry_policy``.

Backoff against the scheduler follows the production shape (Balsam, most
batch-facing daemons): the *n*-th retry waits
``min(cap, base * factor**(n-1))`` seconds, optionally stretched by a
uniform jitter so synchronized failures do not resubmit in lockstep.
Jitter draws come from their own named random stream (``"retry_backoff"``),
so enabling it never perturbs other simulation draws.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How often, and how patiently, failed work is resubmitted.

    Parameters
    ----------
    max_attempts:
        Total execution attempts per unit (first try included); ``1``
        means "never retry".
    backoff_base:
        Delay before the first retry, seconds.  ``0`` retries immediately.
    backoff_factor:
        Multiplier applied per further retry (>= 1, so delays never shrink).
    backoff_cap:
        Upper bound on any single delay, seconds.
    jitter:
        Fractional jitter: the delay is stretched by ``U(1, 1 + jitter)``.
    exclude_failed_nodes:
        When a node failure kills a unit, never place that unit's retries
        on the same node again (per pilot).
    """

    max_attempts: int = 3
    backoff_base: float = 1.0
    backoff_factor: float = 2.0
    backoff_cap: float = 60.0
    jitter: float = 0.0
    exclude_failed_nodes: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ConfigurationError("backoff_base must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                "backoff_factor must be >= 1 (delays may never shrink)"
            )
        if self.backoff_cap < 0:
            raise ConfigurationError("backoff_cap must be non-negative")
        if self.jitter < 0:
            raise ConfigurationError("jitter must be non-negative")

    @property
    def retries(self) -> int:
        """Retries available beyond the first attempt."""
        return self.max_attempts - 1

    def should_retry(self, attempts_used: int) -> bool:
        """True while *attempts_used* executions leave budget for another."""
        return attempts_used < self.max_attempts

    def delay(self, attempt: int) -> float:
        """Deterministic backoff before retry *attempt* (1-based), seconds.

        Monotone non-decreasing in *attempt* and bounded by the cap.
        """
        if attempt < 1:
            raise ConfigurationError("retry attempt numbers are 1-based")
        return min(self.backoff_cap, self.backoff_base * self.backoff_factor ** (attempt - 1))

    def jittered_delay(self, attempt: int, rng=None) -> float:
        """The backoff delay with jitter applied (still bounded by the cap).

        *rng* is a numpy ``Generator``; with ``None`` (or zero jitter, or a
        zero base delay) no randomness is drawn, so disabled backoff cannot
        perturb any random stream.
        """
        base = self.delay(attempt)
        if base <= 0.0 or self.jitter <= 0.0 or rng is None:
            return base
        return min(self.backoff_cap, base * float(rng.uniform(1.0, 1.0 + self.jitter)))
