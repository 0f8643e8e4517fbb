"""Driver for Ensemble of Pipelines (and Bag of Tasks).

Ordering rule: stage ``k+1`` of pipeline *p* is submitted from the final
callback of stage ``k`` of the same pipeline.  Pipelines never synchronize
with each other; the initial stage of every pipeline is submitted as one
bulk batch (this is what makes the pattern overhead one batch's worth, as
the paper's Fig. 3 assumes).

A failed stage aborts only its own pipeline; the pattern completes when
every pipeline has either finished its last stage or aborted, then reports
the failures.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Mapping
from typing import TYPE_CHECKING

from repro.core.drivers.base import PatternDriver, SubmitRequest
from repro.pilot.states import UnitState

if TYPE_CHECKING:  # pragma: no cover
    from repro.pilot.unit import ComputeUnit

__all__ = ["EnsembleOfPipelinesDriver"]

#: Shared read-only placeholder map for pipelines with no recorded
#: sandboxes yet (staging resolution only ever reads these maps).
_NO_PLACEHOLDERS: Mapping[str, str] = {}


class _StageSandboxes(Mapping):
    """The ``STAGE_k`` placeholders of one pipeline: the uid of its
    stage-``k`` unit, formatted from the unit's store row on lookup."""

    __slots__ = ("_driver", "_instance")

    def __init__(self, driver: "EnsembleOfPipelinesDriver", instance: int) -> None:
        self._driver = driver
        self._instance = instance

    def __getitem__(self, token: str) -> str:
        rows = self._driver._sandboxes.get(token)
        row = -1 if rows is None else rows[self._instance - 1]
        if row < 0:
            raise KeyError(token)
        return self._driver.session.unit_store.uid(row)

    def __iter__(self) -> Iterator[str]:
        for token, rows in self._driver._sandboxes.items():
            if rows[self._instance - 1] >= 0:
                yield token

    def __len__(self) -> int:
        return sum(1 for _ in self)


class EnsembleOfPipelinesDriver(PatternDriver):
    """Executes :class:`~repro.core.patterns.pipeline.EnsembleOfPipelines`."""

    def __init__(self, pattern, handle) -> None:
        super().__init__(pattern, handle)
        #: pipelines still making progress (instance numbers).
        self._live: set[int] = set()
        #: Store rows of the stage sandboxes: {"STAGE_k": rows}, where
        #: ``rows[instance - 1]`` is the row of that pipeline's unit of
        #: stage k (-1 until it exists).  Uids are formatted only when a
        #: placeholder is resolved (:class:`_StageSandboxes`).  A stage's
        #: column is created on first use: a single-stage pattern (every
        #: bag of tasks) records nothing, and no final stage is recorded
        #: because no later stage can reference its sandbox.
        self._sandboxes: dict[str, array] = {}

    def _record_sandboxes(self, units: list["ComputeUnit"]) -> None:
        """Record the rows of *units* as their pipelines' stage sandboxes."""
        store = self.session.unit_store
        rows = [unit._i for unit in units]
        last = self.pattern.pipeline_size
        columns = self._sandboxes
        for row, instance, stage in zip(
            rows, store.tag_values(rows, "instance"),
            store.tag_values(rows, "stage"),
        ):
            if stage >= last:
                continue
            token = f"STAGE_{stage}"
            column = columns.get(token)
            if column is None:
                column = columns[token] = (
                    array("q", [-1]) * self.pattern.ensemble_size
                )
            column[instance - 1] = row

    def _placeholders(self, instance: int) -> Mapping[str, str]:
        if not self._sandboxes:
            return _NO_PLACEHOLDERS
        return _StageSandboxes(self, instance)

    def start(self) -> None:
        pattern = self.pattern
        instances = range(1, pattern.ensemble_size + 1)
        self._live = set(instances)
        requests = [
            SubmitRequest(
                kernel=pattern.get_stage(1, instance),
                tags={"stage": 1, "instance": instance},
                placeholders=_NO_PLACEHOLDERS,
            )
            for instance in instances
        ]
        units = self.submit(requests)
        if pattern.pipeline_size > 1:
            self._record_sandboxes(units)

    def on_units_final(self, units: list["ComputeUnit"], state: UnitState) -> None:
        store = self.session.unit_store
        rows = [unit._i for unit in units]
        instances = store.tag_values(rows, "instance")
        last = self.pattern.pipeline_size
        if state is not UnitState.DONE or last == 1:
            # A failed stage, or a pipeline's only stage, ends it.
            self._live.difference_update(instances)
            return
        requests = []
        record = False
        for instance, stage in zip(instances, store.tag_values(rows, "stage")):
            if stage >= last:
                self._live.discard(instance)
                continue
            next_stage = stage + 1
            record = record or next_stage < last
            requests.append(SubmitRequest(
                kernel=self.pattern.get_stage(next_stage, instance),
                tags={"stage": next_stage, "instance": instance},
                placeholders=self._placeholders(instance),
            ))
        if requests:
            self.queue_submission(
                requests, on_submitted=self._record_sandboxes if record else None
            )

    def on_unit_retried(self, old, new) -> None:
        self._record_sandboxes([new])

    @property
    def done(self) -> bool:
        with self._lock:
            return not self._live
