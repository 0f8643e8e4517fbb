"""Driver for Ensemble Exchange.

Pairwise mode (no global barrier): every member loops
``simulate -> wait in pool -> exchange(pair) -> simulate ...`` and the pool
is matched greedily whenever a member arrives.  Members that cannot find a
partner once everything else has drained (odd ensembles, failed partners)
*skip* that exchange rather than deadlock — the pattern promises pairwise
interaction when possible, not a barrier.

Global mode: one exchange task per iteration over all surviving members,
submitted when the last simulation of the iteration completes (RepEx-style;
its serial cost grows with the ensemble size, which is exactly the
behaviour in the paper's Fig. 5/6).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.drivers.base import PatternDriver, SubmitRequest
from repro.pilot.states import UnitState

if TYPE_CHECKING:  # pragma: no cover
    from repro.pilot.unit import ComputeUnit

__all__ = ["EnsembleExchangeDriver"]


class EnsembleExchangeDriver(PatternDriver):
    """Executes :class:`~repro.core.patterns.ensemble_exchange.EnsembleExchange`."""

    def __init__(self, pattern, handle) -> None:
        super().__init__(pattern, handle)
        self._live: set[int] = set()
        #: members waiting for an exchange partner, per iteration.
        self._pool: dict[int, list[int]] = {}
        #: members currently simulating or exchanging (instance -> phase).
        self._busy: dict[int, str] = {}
        #: last task uid per member (for $PREV_STAGE staging).
        self._prev: dict[int, str] = {}
        #: last *simulation* uid per member (for $PREV_SIMULATION staging).
        self._prev_sim: dict[int, str] = {}

    # -- submission helpers --------------------------------------------------------------

    def start(self) -> None:
        pattern = self.pattern
        self._live = set(range(1, pattern.ensemble_size + 1))
        requests = []
        for instance in sorted(self._live):
            requests.append(self._sim_request(1, instance))
        self._submit_sims(requests)

    def _sim_request(self, iteration: int, instance: int) -> SubmitRequest:
        placeholders = {}
        if instance in self._prev:
            placeholders["PREV_STAGE"] = self._prev[instance]
        if instance in self._prev_sim:
            placeholders["PREV_SIMULATION"] = self._prev_sim[instance]
        return SubmitRequest(
            kernel=self.pattern.get_simulation(iteration, instance),
            tags={"phase": "sim", "iteration": iteration, "instance": instance},
            placeholders=placeholders,
        )

    def _submit_sims(self, requests: list[SubmitRequest]) -> None:
        for request in requests:
            self._busy[request.tags["instance"]] = "sim"
        units = self.submit(requests)
        for request, unit in zip(requests, units):
            self._prev[request.tags["instance"]] = unit.uid
            self._prev_sim[request.tags["instance"]] = unit.uid

    def _submit_exchange(self, iteration: int, instances: tuple[int, ...]) -> None:
        kernel = self.pattern.get_exchange(iteration, instances)
        placeholders = {}
        for instance in instances:
            placeholders[f"REPLICA_{instance}"] = self._prev[instance]
        if len(instances) == 1 and instances[0] in self._prev:
            placeholders["PREV_STAGE"] = self._prev[instances[0]]
        for instance in instances:
            self._busy[instance] = "exchange"
        units = self.submit(
            [SubmitRequest(kernel=kernel,
                           tags={"phase": "exchange", "iteration": iteration,
                                 "instances": list(instances)},
                           placeholders=placeholders)]
        )
        for instance in instances:
            self._prev[instance] = units[0].uid

    # -- events ------------------------------------------------------------------------

    def on_units_final(self, units: list["ComputeUnit"], state: UnitState) -> None:
        # Unit by unit: each completion may free stragglers before the
        # next one is seen, as when completions arrived one at a time.
        store = self.session.unit_store
        rows = [unit._i for unit in units]
        done = state is UnitState.DONE
        for phase, iteration, instance, members in zip(
            store.tag_values(rows, "phase"),
            store.tag_values(rows, "iteration"),
            store.tag_values(rows, "instance"),
            store.tag_values(rows, "instances"),
        ):
            if phase == "sim":
                self._on_sim_final(instance, iteration, done)
            else:
                self._on_exchange_final(members, iteration, done)
            self._resolve_stragglers()

    def _on_sim_final(self, instance: int, iteration: int, done: bool) -> None:
        self._busy.pop(instance, None)
        if not done:
            self._live.discard(instance)
            return
        if self.pattern.exchange_mode == "global":
            pool = self._pool.setdefault(iteration, [])
            pool.append(instance)
            # Cheap count check first; the set comparison only runs once per
            # iteration, keeping this O(n) per completion at 2560 replicas.
            if len(pool) == len(self._live) and set(pool) == self._live:
                self._pool[iteration] = []
                self._submit_exchange(iteration, tuple(sorted(pool)))
            return
        # pairwise
        pool = self._pool.setdefault(iteration, [])
        pool.append(instance)
        self._match_pairs(iteration)

    def _match_pairs(self, iteration: int) -> None:
        pool = self._pool.get(iteration, [])
        if len(pool) < 2:
            return
        pairs = self.pattern.select_pairs(sorted(pool))
        for a, b in pairs:
            if a in pool and b in pool and a != b:
                pool.remove(a)
                pool.remove(b)
                self._submit_exchange(iteration, (a, b))

    def _on_exchange_final(
        self, instances: list[int], iteration: int, done: bool
    ) -> None:
        for instance in instances:
            self._busy.pop(instance, None)
            if not done:
                self._live.discard(instance)
                continue
            self._advance_member(instance, iteration)

    def _advance_member(self, instance: int, iteration: int) -> None:
        if instance not in self._live:
            return
        if iteration >= self.pattern.iterations:
            with self._lock:
                self._live.discard(instance)
            return
        request = self._sim_request(iteration + 1, instance)
        self._busy[instance] = "sim"

        def record(units, i=instance) -> None:
            self._prev[i] = self._prev_sim[i] = units[0].uid

        self.queue_submission([request], on_submitted=record)

    def _resolve_stragglers(self) -> None:
        """Skip exchanges that can never be matched (quiescence rule).

        When nothing is simulating or exchanging and the pools still hold
        members, no partner can ever arrive for them: let them skip the
        exchange and continue.  In global mode quiescence with a non-empty
        pool means some members failed mid-iteration; the survivors
        exchange among themselves.
        """
        with self._lock:
            if self._busy:
                return
            stragglers = [
                (iteration, instance)
                for iteration, pool in self._pool.items()
                for instance in pool
                if instance in self._live
            ]
            for iteration, pool in list(self._pool.items()):
                self._pool[iteration] = []
        if not stragglers:
            return
        if self.pattern.exchange_mode == "global":
            by_iteration: dict[int, list[int]] = {}
            for iteration, instance in stragglers:
                by_iteration.setdefault(iteration, []).append(instance)
            for iteration, instances in by_iteration.items():
                self._submit_exchange(iteration, tuple(sorted(instances)))
        else:
            for iteration, instance in stragglers:
                self._advance_member(instance, iteration)

    def on_unit_retried(self, old, new) -> None:
        tags = old.description.tags
        with self._lock:
            if tags.get("phase") == "sim":
                instance = tags["instance"]
                if self._prev.get(instance) == old.uid:
                    self._prev[instance] = new.uid
                if self._prev_sim.get(instance) == old.uid:
                    self._prev_sim[instance] = new.uid
            else:
                for instance in tags.get("instances", []):
                    if self._prev.get(instance) == old.uid:
                        self._prev[instance] = new.uid

    @property
    def done(self) -> bool:
        with self._lock:
            return not self._live
