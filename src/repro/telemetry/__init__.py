"""Causal telemetry over the runtime's flat event trace.

The pilot layer records a flat, append-only list of profile events
(:mod:`repro.pilot.profiler`).  This package turns that list into
*observability*:

* :mod:`repro.telemetry.span` — the causal span model: a :class:`Span`
  tree (session → pattern → unit lifecycle → agent phases) reconstructed
  from the flat trace by :class:`SpanBuilder`, plus a :class:`Tracer`
  context manager for explicit instrumentation.
* :mod:`repro.telemetry.metrics` — metric points written into the trace
  on the session clock (:class:`MetricsRegistry`, which keeps nothing),
  and the series read back from a trace, the derived ``units.*`` and
  ``agent.*`` gauges among them.
* :mod:`repro.telemetry.analysis` — critical-path extraction over the
  span tree and reconciliation against the paper's
  :class:`~repro.core.profiler.OverheadBreakdown`.
* :mod:`repro.telemetry.export` — Chrome trace-event JSON export,
  loadable in Perfetto / ``about://tracing``.
* :mod:`repro.telemetry.sink` — append-only event sinks: the resident
  :class:`MemorySink` (default) and the spillable :class:`SpoolSink`
  that streams events to an NDJSON spool file and keeps none in memory
  (the 10^6-unit scale envelope).

Every reader here takes :class:`ProfileEvent`s and reads a whole trace:
a profiler's sink, or a JSONL file loaded with
:func:`~repro.telemetry.sink.read_events`.

Everything here is *derived* from the trace after the fact (or emitted
as extra trace events that charge no virtual time), so telemetry can
never perturb scheduling decisions — and, like the trace itself, it is
bit-deterministic under a seed.

None of these modules imports the pilot layer at runtime, so the
session can own a :class:`Tracer` and a :class:`MetricsRegistry`
without an import cycle.
"""

from repro.telemetry.analysis import (
    CriticalPath,
    PathSegment,
    critical_path,
    reconcile_with_breakdown,
)
from repro.telemetry.export import chrome_trace, write_chrome_trace
from repro.telemetry.metrics import MetricsRegistry, MetricSeries
from repro.telemetry.sink import (
    EventSink,
    MemorySink,
    ProfileEvent,
    SpoolSink,
    revive,
)
from repro.telemetry.span import Span, SpanBuilder, SpanTree, Tracer, component_of

__all__ = [
    "EventSink",
    "MemorySink",
    "ProfileEvent",
    "SpoolSink",
    "revive",
    "Span",
    "SpanBuilder",
    "SpanTree",
    "Tracer",
    "component_of",
    "MetricsRegistry",
    "MetricSeries",
    "CriticalPath",
    "PathSegment",
    "critical_path",
    "reconcile_with_breakdown",
    "chrome_trace",
    "write_chrome_trace",
]
