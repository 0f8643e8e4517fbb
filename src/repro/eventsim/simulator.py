"""The discrete-event simulator core."""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.exceptions import SimulationError
from repro.utils.logger import get_logger
from repro.utils.timing import VirtualClock

__all__ = ["Event", "Simulator"]

log = get_logger("eventsim")

#: Event lifecycle markers (kept as plain ints for speed).
_PENDING, _EXECUTED, _CANCELLED = 0, 1, 2

#: Purge the cancelled bookkeeping once this many tombstones accumulate
#: *and* they outnumber the live events (see :meth:`Simulator._purge`).
_PURGE_THRESHOLD = 512


class Event:
    """A scheduled callback.

    Ordering on the heap is by ``(time, priority, seq)``; *priority*
    breaks same-time ties deterministically (lower runs first) and *seq*
    preserves insertion order among equal priorities.  The heap stores
    keyed tuples — events themselves are never compared, so scheduling
    pays no dataclass ``__lt__`` overhead.
    """

    __slots__ = ("time", "priority", "seq", "callback", "label", "_status")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], Any],
        label: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.label = label
        self._status = _PENDING

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = ("pending", "executed", "cancelled")[self._status]
        return (
            f"<Event t={self.time} prio={self.priority} seq={self.seq} "
            f"label={self.label!r} {status}>"
        )


class Simulator:
    """A deterministic event-driven virtual-time executor.

    >>> sim = Simulator()
    >>> out = []
    >>> _ = sim.schedule(2.0, lambda: out.append("b"))
    >>> _ = sim.schedule(1.0, lambda: out.append("a"))
    >>> sim.run()
    >>> out, sim.now
    (['a', 'b'], 2.0)
    """

    def __init__(self, start: float = 0.0) -> None:
        self.clock = VirtualClock(start)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._cancelled: set[int] = set()
        self._events_processed = 0
        self._running = False

    # -- introspection -----------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.clock.now()

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still on the heap (including cancelled ones)."""
        return len(self._heap) - len(self._cancelled)

    # -- scheduling --------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[[], Any],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule *callback* to run ``delay`` seconds from now.

        Returns the :class:`Event`, which can be passed to :meth:`cancel`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.clock.now() + delay
        seq = next(self._seq)
        event = Event(time, priority, seq, callback, label)
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    def schedule_at(
        self,
        timestamp: float,
        callback: Callable[[], Any],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule *callback* at absolute virtual time *timestamp*."""
        return self.schedule(
            timestamp - self.now, callback, priority=priority, label=label
        )

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (lazy removal; cheap).

        Cancelling an event that already ran — or was already cancelled —
        is a no-op: only genuinely pending events leave a tombstone in the
        cancelled set, so the set cannot accumulate stale seqs (they used
        to leak forever when callers cancelled completed events).
        """
        if event._status != _PENDING:
            return
        event._status = _CANCELLED
        self._cancelled.add(event.seq)
        if len(self._cancelled) > _PURGE_THRESHOLD:
            self._purge()

    def _purge(self) -> None:
        """Rebuild the heap without cancelled entries when they dominate.

        Cancellation is lazy (tombstones skipped at pop time), which is
        O(1) — but a workload that schedules and cancels heavily (e.g.
        fault-injection kills) can leave the heap mostly dead weight.
        Rebuilding is O(live) and resets the tombstone set.
        """
        if len(self._cancelled) * 2 < len(self._heap):
            return
        self._heap = [
            entry for entry in self._heap if entry[3]._status == _PENDING
        ]
        heapq.heapify(self._heap)
        self._cancelled.clear()

    # -- execution ---------------------------------------------------------

    def step(self) -> Event | None:
        """Execute the next pending event; return it, or ``None`` if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if event._status != _PENDING:
                self._cancelled.discard(event.seq)
                continue
            event._status = _EXECUTED
            self.clock.advance_to(event.time)
            self._events_processed += 1
            event.callback()
            return event
        return None

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the heap drains, *until* is reached, or *max_events*.

        ``until`` is inclusive: an event stamped exactly at ``until`` runs.
        Guards against re-entrant calls (an event callback calling ``run``
        would corrupt the clock invariants).
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        executed = 0
        try:
            while self._heap:
                if max_events is not None and executed >= max_events:
                    return
                # Peek past cancelled events to honour `until` correctly.
                while self._heap and self._heap[0][3]._status != _PENDING:
                    self._cancelled.discard(heapq.heappop(self._heap)[2])
                if not self._heap:
                    break
                if until is not None and self._heap[0][0] > until:
                    self.clock.advance_to(until)
                    return
                if self.step() is not None:
                    executed += 1
            # Heap drained: still honour the requested horizon, so callers
            # can charge pure time costs with no events pending.
            if until is not None and until > self.now:
                self.clock.advance_to(until)
        finally:
            self._running = False
