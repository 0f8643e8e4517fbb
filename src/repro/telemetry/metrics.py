"""Metrics time series on the session clock.

A :class:`MetricsRegistry` records counters (monotonic increments),
gauges (set to a value) and samples (observations of a distribution),
each timestamped by the injected clock — the virtual clock under
simulation, so metric timelines are bit-identical across same-seed
runs.

When constructed with an ``emit`` callable (the session wires in
``Profiler.event``), every recorded point is appended to the flat
trace as a ``metric`` event (``uid`` = metric name, ``value`` = point
value).  The trace is the only place points live: a live registry
keeps O(1) running aggregates per series (count, min, max, sum, last),
and every point read goes through :meth:`MetricsRegistry.from_events`,
which rebuilds resident series from a trace or a spool file.

``from_events`` also derives gauges from the lifecycle events instead
of reading recorded points, folded in time order.  Each lifecycle batch
event moves its ``n`` members and the total ``cores``/``slots`` it
carries at once; no batch is decoded per member:

* ``units.<STATE>`` (units currently in each lifecycle state): ``+n``
  to ``units.NEW`` per ``units_new`` event, and ``-n`` to
  ``units.<prev>``, ``+n`` to ``units.<state>`` per ``units_state``
  event.  Only when every state event carries ``prev``, so a trace
  written before state events carried ``prev`` reads exactly as it was
  recorded.
* ``agent.<pilot>.queue_depth``, ``cores_held`` and ``cores_busy``
  from the events that carry ``pilot``: a ``units_slots`` event moves
  ``n`` units out of the queue and holds ``slots`` cores; a state event
  entering ``AGENT_SCHEDULING`` queues ``n`` units, one entering
  ``EXECUTING`` makes its ``cores`` busy, one leaving ``EXECUTING``
  releases its ``cores`` (busy and held), and any other one leaving
  ``AGENT_SCHEDULING`` releases its ``cores`` if it carries them (a
  unit killed while launching), else leaves the queue.

A gauge is derived only when the trace has no recorded points of that
name, so a trace from before the agent stopped recording its gauges
reads as recorded.

No pilot-layer imports here (the session imports us).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterable

from repro.telemetry.sink import NEW, SLOTS, STATE, ProfileEvent, member_count

__all__ = ["MetricSeries", "MetricsRegistry"]


@dataclass(slots=True)
class MetricSeries:
    """One named time series: running aggregates plus, when resident
    (rebuilt by :meth:`MetricsRegistry.from_events`), the (time, value)
    points in record order."""

    name: str
    kind: str  # "counter" | "gauge" | "sample"
    points: list[tuple[float, float]] = field(default_factory=list)
    #: Whether :attr:`points` is populated; aggregates are always kept.
    resident: bool = True
    #: Whether :meth:`MetricsRegistry.from_events` derived the series
    #: from lifecycle events instead of reading recorded points.
    derived: bool = False
    count: int = 0
    vmin: float = 0.0
    vmax: float = 0.0
    total: float = 0.0
    _last: float = 0.0

    def _push(self, time: float, value: float) -> None:
        if self.count == 0:
            self.vmin = self.vmax = value
        else:
            if value < self.vmin:
                self.vmin = value
            if value > self.vmax:
                self.vmax = value
        self.count += 1
        self.total += value
        self._last = value
        if self.resident:
            self.points.append((time, value))

    def __len__(self) -> int:
        return self.count

    @property
    def last(self) -> float:
        return self._last

    def values(self) -> list[float]:
        """Recorded values in order (resident series only)."""
        self._require_points()
        return [value for _, value in self.points]

    def value_at(self, time: float) -> float:
        """The most recent value at or before *time* (0.0 before any);
        resident series only."""
        self._require_points()
        current = 0.0
        for t, value in self.points:
            if t > time:
                break
            current = value
        return current

    def stats(self) -> dict[str, float]:
        """min/max/mean/count over recorded values (empty series → zeros).

        Computed from the running aggregates, so it works identically
        on live and rebuilt series.
        """
        if not self.count:
            return {"count": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": float(self.count),
            "min": self.vmin,
            "max": self.vmax,
            "mean": self.total / self.count,
        }

    def _require_points(self) -> None:
        if not self.resident and self.count:
            raise RuntimeError(
                f"metric series {self.name!r} keeps running aggregates "
                "only; read its points from the trace with "
                "MetricsRegistry.from_events"
            )


class MetricsRegistry:
    """Counters, gauges and samples stamped by the session clock.

    ``clock`` is a zero-argument callable returning the current time
    (``Session`` passes its clock's ``now``); ``emit``, when given, is
    called as ``emit("metric", name, value=...)`` for every point so the
    series ride inside the profiler trace.  Recorded series keep running
    aggregates only (see :class:`MetricSeries`).
    """

    def __init__(
        self,
        clock: Callable[[], float],
        emit: Callable[..., Any] | None = None,
    ) -> None:
        self._clock = clock
        self._emit = emit
        self._series: dict[str, MetricSeries] = {}
        # Local-mode units advance from executor worker threads; the
        # read-modify-write in count()/adjust() needs the same guard
        # the profiler's append has.
        self._lock = threading.Lock()

    def _record(self, name: str, kind: str, value: float, delta: bool) -> None:
        with self._lock:
            series = self._series.get(name)
            if series is None:
                series = MetricSeries(name=name, kind=kind, resident=False)
                self._series[name] = series
            if delta and series.count:
                value += series.last
            value = float(value)
            series._push(self._clock(), value)
        if self._emit is not None:
            self._emit("metric", name, value=value, kind=kind)

    def count(self, name: str, delta: float = 1.0) -> None:
        """Increment counter *name* by *delta*; records the new total."""
        self._record(name, "counter", delta, delta=True)

    def gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value*."""
        self._record(name, "gauge", value, delta=False)

    def adjust(self, name: str, delta: float) -> None:
        """Adjust gauge *name* by *delta* from its last value."""
        self._record(name, "gauge", delta, delta=True)

    def sample(self, name: str, value: float) -> None:
        """Record one observation of distribution *name*."""
        self._record(name, "sample", value, delta=False)

    # -- queries -----------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._series)

    def series(self, name: str) -> MetricSeries:
        """The series for *name* (an empty gauge series if never recorded)."""
        return self._series.get(name, MetricSeries(name=name, kind="gauge"))

    def __contains__(self, name: str) -> bool:
        return name in self._series

    # -- reconstruction from a trace --------------------------------------

    @classmethod
    def from_events(
        cls, events: Iterable[ProfileEvent]
    ) -> "MetricsRegistry":
        """Rebuild a registry with resident points from a trace.

        Takes :class:`~repro.telemetry.sink.ProfileEvent`s: a profiler's
        own, or a JSONL dump (a spool file included) loaded with
        :func:`~repro.telemetry.sink.read_events`.  Recorded ``metric``
        events become series in trace order; the ``units.<STATE>`` and
        ``agent.<pilot>.*`` gauges are derived from lifecycle events
        (see the module docstring).  The returned
        registry's clock is frozen (recording into it stamps time 0.0);
        it is meant for querying only.
        """
        registry = cls(lambda: 0.0)
        recorded = registry._series
        moves: list[tuple[float, str, int]] = []  # (time, gauge, delta)
        agent_moves: list[tuple[float, str, int]] = []
        derivable = True
        for event in events:
            name, uid, attrs = event.name, event.uid, event.attrs
            time = event.time
            if name == "metric":
                series = recorded.get(uid)
                if series is None:
                    kind = str(attrs.get("kind", "gauge"))
                    series = recorded[uid] = MetricSeries(name=uid, kind=kind)
                series._push(time, float(attrs.get("value", 0.0)))
            elif name == NEW:
                moves.append((time, "units.NEW", member_count(event)))
            elif name == STATE:
                n = member_count(event)
                prev, state = attrs.get("prev"), attrs.get("state")
                derivable = derivable and prev is not None
                moves.append((time, f"units.{prev}", -n))
                moves.append((time, f"units.{state}", n))
                pilot = attrs.get("pilot")
                if pilot is not None:
                    _agent_moves(agent_moves, time, f"agent.{pilot}.", n,
                                 prev, state, attrs.get("cores"))
            elif name == SLOTS:
                gauge = f"agent.{attrs.get('pilot')}."
                agent_moves.append(
                    (time, gauge + "queue_depth", -member_count(event))
                )
                agent_moves.append(
                    (time, gauge + "cores_held", int(attrs.get("slots", 0)))
                )
        derived = _fold(agent_moves)
        if derivable:
            derived.update(_fold(moves))
        for name, series in derived.items():
            recorded.setdefault(name, series)
        return registry


def _agent_moves(
    moves: list[tuple[float, str, int]], time: float, gauge: str, n: int,
    prev: Any, state: Any, cores: Any,
) -> None:
    """Append the agent-gauge moves of one state event that carries
    ``pilot`` (*gauge* is the ``agent.<pilot>.`` prefix)."""
    if state == "AGENT_SCHEDULING":
        moves.append((time, gauge + "queue_depth", n))
    elif state == "EXECUTING":
        moves.append((time, gauge + "cores_busy", int(cores)))
    elif prev == "EXECUTING":
        moves.append((time, gauge + "cores_busy", -int(cores)))
        moves.append((time, gauge + "cores_held", -int(cores)))
    elif prev == "AGENT_SCHEDULING":
        if cores is None:
            moves.append((time, gauge + "queue_depth", -n))
        else:
            moves.append((time, gauge + "cores_held", -int(cores)))


def _fold(moves: list[tuple[float, str, int]]) -> dict[str, MetricSeries]:
    """Fold (time, gauge, delta) moves into gauge series, in time order."""
    gauges: dict[str, MetricSeries] = {}
    moves.sort(key=itemgetter(0))  # stable: ties keep trace order
    for time, name, delta in moves:
        series = gauges.get(name)
        if series is None:
            series = gauges[name] = MetricSeries(name=name, kind="gauge",
                                                 derived=True)
        series._push(time, series.last + delta)
    return gauges
