"""Common machinery of pattern drivers."""

from __future__ import annotations

import abc
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.exceptions import PatternError
from repro.pilot.description import ComputeUnitDescription
from repro.pilot.states import UnitState
from repro.utils.logger import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.execution_pattern import ExecutionPattern
    from repro.core.kernel_plugin import Kernel
    from repro.core.resource_handle import ResourceHandle
    from repro.pilot.unit import ComputeUnit

__all__ = ["PatternDriver", "SubmitRequest"]

log = get_logger("core.driver")


@dataclass(slots=True)
class SubmitRequest:
    """One kernel to submit, with its pattern context.

    ``placeholders`` maps staging tokens (without the leading ``$``) to the
    uid of the unit whose sandbox they refer to; ``tags`` is free-form
    metadata recorded on the unit (pattern entity, stage, iteration, ...).
    :meth:`PatternDriver.submit` adds the ``pattern`` key to ``tags``
    when the kernel carries no tags of its own.
    """

    kernel: "Kernel"
    tags: dict[str, Any] = field(default_factory=dict)
    placeholders: Mapping[str, str] = field(default_factory=dict)


class PatternDriver(abc.ABC):
    """Drives one pattern instance to completion on a resource handle.

    Units move in lists at both ends.  The driver submits a list of
    :class:`SubmitRequest` at a time (:meth:`submit`, or
    :meth:`queue_submission` for successors), and it learns of
    completions a batch at a time: :meth:`on_units_final` gets every
    unit that reached one final state together.  A subclass reads the
    batch's tags from the unit store's columns
    (``UnitStore.tag_values``), not through a view per unit.
    """

    def __init__(self, pattern: "ExecutionPattern", handle: "ResourceHandle") -> None:
        self.pattern = pattern
        self.handle = handle
        self.session = handle.session
        self.umgr = handle.umgr
        self.overheads = handle.overheads
        self._lock = threading.RLock()
        self.units: list["ComputeUnit"] = []
        self.failed_units: list["ComputeUnit"] = []
        #: The composite driver running this one, if any (see :attr:`root`).
        self.parent: PatternDriver | None = None
        #: The first driver-callback error of this driver's whole tree;
        #: set on the :attr:`root` only.
        self._internal_error: BaseException | None = None
        self._pending: list[tuple[SubmitRequest, Any]] = []
        self._flush_scheduled = False
        #: retry bookkeeping: lineage root uid -> attempts used.
        self._retries: dict[str, int] = {}
        #: kernel signature -> its shared bound description (see _bind).
        self._bound: dict[tuple, ComputeUnitDescription] = {}

    # -- subclass contract -----------------------------------------------------------

    @abc.abstractmethod
    def start(self) -> None:
        """Submit the pattern's initial batch(es)."""

    @abc.abstractmethod
    def on_units_final(self, units: list["ComputeUnit"], state: UnitState) -> None:
        """React to a completion batch: *units* reached the final *state*
        together (submit successors...).

        A unit appears in exactly one call, and a FAILED unit that the
        retry policy resubmits in none (its replacement carries the
        pattern forward).  Read per-unit tags for the whole batch with
        ``UnitStore.tag_values``; submit successors with
        :meth:`queue_submission`, one list per batch where the pattern's
        order allows it."""

    @property
    @abc.abstractmethod
    def done(self) -> bool:
        """True when no further progress is possible or needed."""

    # -- execution -------------------------------------------------------------------

    @property
    def root(self) -> "PatternDriver":
        """The outermost driver of this one's composite tree: the one
        place a driver error goes, and which every drive loop checks."""
        driver = self
        while driver.parent is not None:
            driver = driver.parent
        return driver

    def run(self) -> None:
        """Execute the pattern; raises :class:`PatternError` on task failure."""
        prof = self.session.prof
        self.pattern.validate()
        prof.event("entk_pattern_start", self.pattern.uid,
                   pattern=self.pattern.pattern_name)
        # Hold the driver lock across start(): unit-final callbacks (which
        # also take the lock) must not run before the initial batch's
        # bookkeeping (e.g. placeholder uid maps) is complete.
        with self._lock:
            self.start()
        self._drive_until(lambda: self.done)
        prof.event("entk_pattern_stop", self.pattern.uid)
        self.pattern.units = list(self.units)
        self.pattern.failed_units = list(self.failed_units)
        self.pattern.executed = True
        self._raise_internal_error()
        if self.failed_units:
            details = "; ".join(
                f"{u.uid} ({u.description.name}): {u.exception!r}"
                for u in self.failed_units[:5]
            )
            raise PatternError(
                f"pattern {self.pattern.uid}: {len(self.failed_units)} "
                f"task(s) failed: {details}"
            )

    def _drive_until(self, condition) -> None:
        """Wait until *condition()* holds or a callback of any driver in
        this one's tree failed (see :attr:`root`).

        The session wakes the wait after every batch of units that ends
        (see ``Session.wait_until``)."""
        root = self.root
        self.session.wait_until(
            lambda: condition() or root._internal_error is not None,
            drained=lambda: PatternError(
                f"pattern {self.pattern.uid} deadlocked: simulation "
                "drained with work outstanding"
            ),
        )

    def _raise_internal_error(self) -> None:
        """Re-raise the first driver-callback error of this driver's tree."""
        error = self.root._internal_error
        if error is not None:
            raise error

    # -- submission helper ------------------------------------------------------------

    def submit(self, requests: list[SubmitRequest]) -> list["ComputeUnit"]:
        """Bind kernels, resolve placeholders, submit as one batch.

        Under simulation the EnTK pattern overhead (task creation +
        submission marshalling) is charged on the virtual clock *before*
        the units reach the runtime, which is when the real toolkit pays
        it.  Returns the created units (in request order) immediately; the
        agent sees them after the charged delay.
        """
        if not requests:
            return []
        prof = self.session.prof
        with self.session.tracer.span(
            "driver.submit", self.pattern.uid, n=len(requests)
        ):
            prof.event(
                "entk_stage_create_start", self.pattern.uid, n=len(requests)
            )
            descriptions, tags = [], []
            pattern = self.pattern.uid
            for request in requests:
                # Read the slots, not the properties, so that resolving
                # creates no empty staging list (see Kernel).
                kernel = request.kernel
                if kernel._link_input_data:
                    kernel.link_input_data = [
                        self._resolve(entry, request.placeholders)
                        for entry in kernel._link_input_data
                    ]
                if kernel._copy_input_data:
                    kernel.copy_input_data = [
                        self._resolve(entry, request.placeholders)
                        for entry in kernel._copy_input_data
                    ]
                description = self._bind(kernel)
                descriptions.append(description)
                if description.tags:
                    unit_tags = {**description.tags, **request.tags,
                                 "pattern": pattern}
                else:
                    unit_tags = request.tags
                    unit_tags["pattern"] = pattern
                tags.append(unit_tags)
            prof.event("entk_stage_create_stop", self.pattern.uid, n=len(requests))

            # Under simulation, EnTK's client-side cost (task creation +
            # submission marshalling, proportional to the task count) delays
            # delivery of the batch to the agent; units are created
            # synchronously so callers can wire placeholders immediately.
            overhead = 0.0
            if self.session.is_simulated:
                overhead = self.overheads.pattern_overhead(len(requests))
                prof.event("entk_pattern_overhead", self.pattern.uid,
                           seconds=overhead, n=len(requests))
            units = self.umgr.submit_units(
                descriptions, callback=self._unit_event, extra_delay=overhead,
                tags=tags,
            )
            with self._lock:
                self.units.extend(units)
        return units

    def _bind(self, kernel: "Kernel") -> ComputeUnitDescription:
        """Bind *kernel*, once per distinct :meth:`Kernel.signature`.

        Every kernel of a signature gets the same
        :meth:`~ComputeUnitDescription.shareable` description object;
        each unit's tags go to the unit store beside it (see
        :meth:`submit`).  The resource is fixed for the driver's
        lifetime, so it is not part of the key.
        """
        key = kernel.signature()
        try:
            description = self._bound.get(key)
        except TypeError:  # an unhashable value in the key: no caching
            key = description = None
        if description is None:
            description = kernel.bind(
                self.handle.resource, self.handle.platform
            ).shareable()
            if key is not None:
                self._bound[key] = description
        return description

    def queue_submission(
        self, requests: list[SubmitRequest], on_submitted=None
    ) -> None:
        """Submit *requests*, coalescing same-instant lists into one batch.

        Pattern progress often releases many successor tasks at the same
        (virtual) moment — e.g. all pipelines finishing a lock-step stage.
        The real toolkit submits those as one bulk operation; submitting
        192 one-task batches instead would charge 192 batch costs.  Under
        simulation, lists queued within one event timestamp are flushed
        together by a zero-delay, low-priority event; locally the list is
        submitted at once (real measured costs are per call anyway).

        ``on_submitted(units)`` is invoked once with the list's created
        units, in request order, before any of them can start executing,
        so callers can record placeholder mappings.
        """
        if not requests:
            return
        if not self.session.is_simulated:
            units = self.submit(requests)
            if on_submitted is not None:
                on_submitted(units)
            return
        self._pending.append((requests, on_submitted))
        if not self._flush_scheduled:
            self._flush_scheduled = True
            # priority=10: run after all same-time unit-final events so the
            # whole cohort lands in one batch.
            self.session.sim.schedule(
                0.0, self._flush_pending, priority=10,
                label=f"flush:{self.pattern.uid}",
            )

    def _flush_pending(self) -> None:
        with self._lock:
            self._flush_scheduled = False
            batch = self._pending
            self._pending = []
            if not batch:
                return
            units = self.submit([r for queued, _ in batch for r in queued])
            start = 0
            for queued, on_submitted in batch:
                end = start + len(queued)
                if on_submitted is not None:
                    on_submitted(units[start:end])
                start = end

    @staticmethod
    def _resolve(entry: str, placeholders: dict[str, str]) -> str:
        """Rewrite ``$TOKEN/...`` staging sources to ``$UNIT_<uid>/...``."""
        if not entry.startswith("$"):
            return entry
        head, sep, rest = entry.partition("/")
        token = head[1:]
        if token in ("SHARED", "PILOT_SANDBOX") or token.startswith("UNIT_"):
            return entry
        if token not in placeholders:
            raise PatternError(
                f"staging placeholder ${token} is not defined here "
                f"(known: {sorted(placeholders) or 'none'})"
            )
        return f"$UNIT_{placeholders[token]}{sep}{rest}"

    # -- fault tolerance ---------------------------------------------------------------

    def _try_retry(self, unit: "ComputeUnit") -> bool:
        """Resubmit a failed unit if the pattern's retry budget allows.

        The retry is a fresh compute unit with the same shared description
        and tags (plus the retry keys), so the pattern's ordering logic
        sees it exactly as it saw the original.  Drivers that keep uid-keyed
        placeholder maps are told to rebind via :meth:`on_unit_retried`.
        The policy's exponential backoff is charged as extra delivery delay
        on the virtual clock.
        """
        policy = self.pattern.retry_policy
        if policy is None:
            return False
        tags = unit.description.tags
        root = tags.get("__retry_root", unit.uid)
        with self._lock:
            used = self._retries.get(root, 0)
            # attempts consumed so far = the original + `used` retries.
            if not policy.should_retry(used + 1):
                return False
            self._retries[root] = used + 1
        delay = self.session.retry_delay(policy, used + 1)
        self.session.prof.event(
            "entk_task_retry", unit.uid, attempt=used + 1, root=root,
            delay=delay,
        )
        log.info("retrying failed unit %s (attempt %d/%d, backoff %.1fs)",
                 unit.uid, used + 1, policy.retries, delay)
        # Hold the driver lock across submit + bookkeeping: the replacement
        # may finish on another worker thread immediately, and its final
        # callback (which also takes this lock) must observe the unit list
        # and the rebound placeholder maps.
        with self._lock:
            replacement = self.umgr.submit_units(
                [self.session.unit_store.shared_description(unit._i)],
                callback=self._unit_event, extra_delay=delay,
                tags=[{**tags, "__retry_root": root,
                       "__retry_attempt": used + 1}],
            )[0]
            self.units.append(replacement)
            self.on_unit_retried(unit, replacement)
        return True

    def on_unit_retried(self, old: "ComputeUnit", new: "ComputeUnit") -> None:
        """Rebind uid-keyed driver state after a retry (override as needed)."""

    # -- unit events --------------------------------------------------------------------

    def _unit_event(self, units: list["ComputeUnit"], state: UnitState) -> None:
        """Completion hook of a batch of this driver's units: a FAILED
        batch first retries, in list order, each unit the retry policy
        allows; the rest are recorded and handed to
        :meth:`on_units_final` in one call.  The unit store wakes the
        drive loop once the batch's callbacks have run."""
        try:
            # Serialize all driver logic: callbacks may arrive concurrently
            # from executor worker threads in local mode.  The lock is
            # reentrant, so synchronous failure paths inside submit() that
            # re-enter this handler on the same thread are safe.
            with self._lock:
                if state is UnitState.FAILED:
                    # A retried unit's replacement carries the pattern forward.
                    units = [unit for unit in units if not self._try_retry(unit)]
                if state is not UnitState.DONE:
                    self.failed_units.extend(units)
                if units:
                    self.on_units_final(units, state)
        except BaseException as exc:  # noqa: BLE001 - surface via run()
            log.exception("driver callback failed for %d %s unit(s)",
                          len(units), state.value)
            root = self.root
            with root._lock:
                if root._internal_error is None:
                    root._internal_error = exc
