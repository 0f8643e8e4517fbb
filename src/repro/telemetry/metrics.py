"""Metric points in the trace, and the series read back from it.

The session's :class:`MetricsRegistry` is write-only: :meth:`~
MetricsRegistry.sample` appends one ``metric`` event to the flat trace
(``uid`` = metric name, ``value`` = point value, ``kind``) through the
``emit`` callable the session wires in (``Profiler.event``), stamped by
the session clock, and keeps nothing.  Points, and the aggregates over
them, are read only with :meth:`MetricsRegistry.from_events`, which
builds a registry of series from a trace or a spool file.

``from_events`` also derives gauges from the lifecycle events, folded
in time order.  Each lifecycle batch event moves its ``n`` members and
the total ``cores``/``slots`` it carries at once; no batch is decoded
per member:

* ``units.<STATE>`` (units currently in each lifecycle state): ``+n``
  to ``units.NEW`` per ``units_new`` event, and ``-n`` to
  ``units.<prev>``, ``+n`` to ``units.<state>`` per ``units_state``
  event.  A state event without ``prev`` is rejected with
  ``ValueError``.
* ``agent.<pilot>.queue_depth``, ``cores_held`` and ``cores_busy``
  from the events that carry ``pilot``: a ``units_slots`` event moves
  ``n`` units out of the queue and holds ``slots`` cores; a state event
  entering ``AGENT_SCHEDULING`` queues ``n`` units, one entering
  ``EXECUTING`` makes its ``cores`` busy, one leaving ``EXECUTING``
  releases its ``cores`` (busy and held), and any other one leaving
  ``AGENT_SCHEDULING`` releases its ``cores`` if it carries them (a
  unit killed while launching), else leaves the queue.

A derived gauge replaces any recorded series of the same name.

No pilot-layer imports here (the session imports us).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterable

from repro.telemetry.sink import NEW, SLOTS, STATE, ProfileEvent, member_count

__all__ = ["MetricSeries", "MetricsRegistry"]


@dataclass(slots=True)
class MetricSeries:
    """One named time series: its (time, value) points in trace order."""

    name: str
    kind: str  # "counter" | "gauge" | "sample"
    points: list[tuple[float, float]] = field(default_factory=list)
    #: Whether :meth:`MetricsRegistry.from_events` derived the series
    #: from lifecycle events instead of reading recorded points.
    derived: bool = False

    def __len__(self) -> int:
        return len(self.points)

    @property
    def last(self) -> float:
        return self.points[-1][1] if self.points else 0.0

    @property
    def vmin(self) -> float:
        return min(self.values(), default=0.0)

    @property
    def vmax(self) -> float:
        return max(self.values(), default=0.0)

    def values(self) -> list[float]:
        """The point values in order."""
        return [value for _, value in self.points]

    def value_at(self, time: float) -> float:
        """The most recent value at or before *time* (0.0 before any)."""
        current = 0.0
        for t, value in self.points:
            if t > time:
                break
            current = value
        return current

    def stats(self) -> dict[str, float]:
        """min/max/mean/count over the values (empty series → zeros)."""
        values = self.values()
        if not values:
            return {"count": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        total = 0.0
        for value in values:  # not sum(): it compensates on Python 3.12+
            total += value
        return {
            "count": float(len(values)),
            "min": min(values),
            "max": max(values),
            "mean": total / len(values),
        }


class MetricsRegistry:
    """Writes metric points into the trace; reads series back from one.

    ``emit`` is called as ``emit("metric", name, value=..., kind=...)``
    for every point (``Session`` passes its profiler's ``event``).  A
    registry keeps no series of its own: only one built by
    :meth:`from_events` holds any, and it records nothing.
    """

    def __init__(self, emit: Callable[..., Any] | None = None) -> None:
        self._emit = emit
        self._series: dict[str, MetricSeries] = {}

    def _record(self, name: str, kind: str, value: float) -> None:
        if self._emit is None:
            raise TypeError("a registry read from a trace records nothing")
        self._emit("metric", name, value=float(value), kind=kind)

    def sample(self, name: str, value: float) -> None:
        """Record one observation of distribution *name*."""
        self._record(name, "sample", value)

    # -- queries -----------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._series)

    def series(self, name: str) -> MetricSeries:
        """The series for *name* (an empty gauge series if never recorded)."""
        return self._series.get(name, MetricSeries(name=name, kind="gauge"))

    def __contains__(self, name: str) -> bool:
        return name in self._series

    # -- reading a trace ----------------------------------------------------

    @classmethod
    def from_events(
        cls, events: Iterable[ProfileEvent]
    ) -> "MetricsRegistry":
        """The series of a trace.

        Takes :class:`~repro.telemetry.sink.ProfileEvent`s: a profiler's
        own, or a JSONL dump (a spool file included) loaded with
        :func:`~repro.telemetry.sink.read_events`.  Recorded ``metric``
        events become series in trace order; the ``units.<STATE>`` and
        ``agent.<pilot>.*`` gauges are derived from lifecycle events
        (see the module docstring).  Raises ``ValueError`` on a
        ``units_state`` event without ``prev``.
        """
        registry = cls()
        series_of = registry._series
        moves: list[tuple[float, str, int]] = []  # (time, gauge, delta)
        for event in events:
            name, uid, attrs = event.name, event.uid, event.attrs
            time = event.time
            if name == "metric":
                series = series_of.get(uid)
                if series is None:
                    kind = str(attrs.get("kind", "gauge"))
                    series = series_of[uid] = MetricSeries(name=uid, kind=kind)
                series.points.append((time, float(attrs.get("value", 0.0))))
            elif name == NEW:
                moves.append((time, "units.NEW", member_count(event)))
            elif name == STATE:
                n = member_count(event)
                prev, state = attrs.get("prev"), attrs.get("state")
                if prev is None:
                    raise ValueError(
                        f"units_state event of {uid} at t={time} has no "
                        "'prev': not a trace this runtime writes"
                    )
                moves.append((time, f"units.{prev}", -n))
                moves.append((time, f"units.{state}", n))
                pilot = attrs.get("pilot")
                if pilot is not None:
                    _agent_moves(moves, time, f"agent.{pilot}.", n,
                                 prev, state, attrs.get("cores"))
            elif name == SLOTS:
                gauge = f"agent.{attrs.get('pilot')}."
                moves.append((time, gauge + "queue_depth", -member_count(event)))
                moves.append((time, gauge + "cores_held",
                              int(attrs.get("slots", 0))))
        series_of.update(_fold(moves))
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
        series.points.append((time, series.last + delta))
    return gauges
