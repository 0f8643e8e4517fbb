"""The Ensemble Exchange pattern (paper Fig. 2b).

Interacting ensemble members alternate between two states: *simulating*
(independent) and *exchanging* (interacting with other members).  There is
no obligatory global barrier: members that are ready exchange among
themselves while others still simulate.

Two exchange disciplines are supported, both observed in the wild:

* ``"pairwise"`` (default) — replicas that finish a simulation burst enter a
  waiting pool; as soon as :meth:`select_pairs` can match two of them, an
  exchange task runs for that pair and both proceed to the next burst.  This
  is the temporally-unsynchronized pairwise REMD the paper describes.
* ``"global"`` — one exchange task per iteration over all members, started
  when every member finished the burst (RepEx-style synchronous exchange;
  this is what the paper's Fig. 5/6 Amber temperature-exchange runs used —
  their exchange time scales with the number of replicas and not with the
  core count, the signature of a serial global step).

Placeholders for staging: ``$PREV_STAGE`` (the member's previous task),
``$SHARED``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.execution_pattern import ExecutionPattern
from repro.exceptions import PatternError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kernel_plugin import Kernel

__all__ = ["EnsembleExchange"]


class EnsembleExchange(ExecutionPattern):
    """Simulate / exchange cycles over an ensemble of members.

    Parameters
    ----------
    ensemble_size:
        Number of ensemble members (replicas), 1-based instance numbers.
    iterations:
        Number of simulate+exchange cycles each member performs.
    exchange_mode:
        ``"pairwise"`` or ``"global"`` (see module docstring).
    """

    pattern_name = "ee"

    def __init__(
        self,
        ensemble_size: int,
        iterations: int = 1,
        exchange_mode: str = "pairwise",
    ) -> None:
        super().__init__()
        self.ensemble_size = self._check_positive(ensemble_size, "ensemble_size")
        self.iterations = self._check_positive(iterations, "iterations")
        if exchange_mode not in ("pairwise", "global"):
            raise PatternError(f"unknown exchange_mode {exchange_mode!r}")
        self.exchange_mode = exchange_mode

    # -- user hooks ---------------------------------------------------------------

    def simulation_stage(self, iteration: int, instance: int) -> "Kernel":
        raise PatternError(
            f"{type(self).__name__} must define simulation_stage(iteration, instance)"
        )

    def exchange_stage(self, iteration: int, instances: Sequence[int]) -> "Kernel":
        """Kernel performing the exchange among *instances*.

        In pairwise mode *instances* is a 2-tuple; in global mode it is the
        list of all members of that iteration.
        """
        raise PatternError(
            f"{type(self).__name__} must define exchange_stage(iteration, instances)"
        )

    def select_pairs(self, waiting: Sequence[int]) -> list[tuple[int, int]]:
        """Match waiting members into exchange pairs (pairwise mode).

        *waiting* holds the instance numbers currently in the pool, all at
        the same iteration, in ascending order.  The default greedily pairs
        temperature-ladder neighbours (consecutive instance numbers, e.g.
        2 with 3 if both wait) — override for other coupling topologies.
        Members left unmatched stay in the pool; if they can never match,
        the driver's quiescence rule lets them skip the exchange.
        """
        pairs = []
        by_index = sorted(waiting)
        i = 0
        while i + 1 < len(by_index):
            if by_index[i + 1] == by_index[i] + 1:
                pairs.append((by_index[i], by_index[i + 1]))
                i += 2
            else:
                i += 1
        return pairs

    # -- used by the driver ----------------------------------------------------------

    def get_simulation(self, iteration: int, instance: int) -> "Kernel":
        kernel = self.simulation_stage(iteration, instance)
        return self._require_kernel(
            kernel, "simulation_stage({}, {})", iteration, instance
        )

    def get_exchange(self, iteration: int, instances: Sequence[int]) -> "Kernel":
        kernel = self.exchange_stage(iteration, tuple(instances))
        return self._require_kernel(
            kernel, "exchange_stage({}, {})", iteration, tuple(instances)
        )

    def validate(self) -> None:
        super().validate()
        if type(self).simulation_stage is EnsembleExchange.simulation_stage:
            raise PatternError(f"{type(self).__name__} must define simulation_stage()")
        if type(self).exchange_stage is EnsembleExchange.exchange_stage:
            raise PatternError(f"{type(self).__name__} must define exchange_stage()")
