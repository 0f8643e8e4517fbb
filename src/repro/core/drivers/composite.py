"""Driver for concurrent pattern composition.

Each constituent pattern keeps its own (unmodified) driver; this driver
only starts them together and waits for all of them.  Constituents submit
into the same unit manager, so the pilot's agent interleaves their tasks —
genuine concurrency, not round-robin of whole patterns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.drivers.base import PatternDriver
from repro.core.drivers.registry import get_driver_class
from repro.exceptions import PatternError
from repro.pilot.states import UnitState

if TYPE_CHECKING:  # pragma: no cover
    from repro.pilot.unit import ComputeUnit

__all__ = ["ConcurrentPatternsDriver"]


class ConcurrentPatternsDriver(PatternDriver):
    """Runs all child drivers concurrently to completion."""

    def __init__(self, pattern, handle) -> None:
        super().__init__(pattern, handle)
        self._children: list[PatternDriver] = []
        for child in pattern.patterns:
            driver = get_driver_class(child)(child, handle)
            driver.parent = self
            self._children.append(driver)

    def start(self) -> None:
        prof = self.session.prof
        for child_driver in self._children:
            child = child_driver.pattern
            child.validate()
            prof.event("entk_pattern_start", child.uid,
                       pattern=child.pattern_name, parent=self.pattern.uid)
            with child_driver._lock:
                child_driver.start()

    def on_units_final(self, units: list["ComputeUnit"], state: UnitState) -> None:
        # Children receive their own callbacks; the session wakes the
        # composite's drive loop after every batch that ends, so `done`
        # is re-evaluated.
        pass

    @property
    def done(self) -> bool:
        return all(child.done for child in self._children)

    def run(self) -> None:
        prof = self.session.prof
        self.pattern.validate()
        prof.event("entk_pattern_start", self.pattern.uid,
                   pattern=self.pattern.pattern_name)
        self.start()
        self._drive_until(lambda: self.done)
        prof.event("entk_pattern_stop", self.pattern.uid)

        failed = []
        for child_driver in self._children:
            child = child_driver.pattern
            prof.event("entk_pattern_stop", child.uid)
            child.units = list(child_driver.units)
            child.failed_units = list(child_driver.failed_units)
            child.executed = True
            failed.extend(child_driver.failed_units)
        self.pattern.units = [
            unit for child in self._children for unit in child.units
        ]
        self.pattern.failed_units = failed
        self.pattern.executed = True
        self._raise_internal_error()
        if failed:
            raise PatternError(
                f"pattern {self.pattern.uid}: {len(failed)} task(s) failed "
                "across concurrent constituents"
            )
