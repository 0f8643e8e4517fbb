"""``python -m repro trace`` — inspect a JSONL trace dump.

Operates on the files written by ``Profiler.write_jsonl`` (and the
harness's ``--trace-out``).  Subcommands:

``summarize PATH``       event/span/metric overview of one trace:
                         lifecycle events per unit, spans by name (every
                         unit's phase spans among them), each metric
                         series marked ``recorded`` or ``derived``
``export PATH -o OUT``   render Chrome trace-event JSON for Perfetto
``critical-path PATH``   the blocking-activity tiling of the TTC window

Exit codes follow ``repro lint``: 0 success, 2 usage error (missing or
malformed trace file, or a state event without ``prev``).  A reader
that closes the pipe early (``| head``) ends the command quietly with
status 0.  A trace whose last line was cut off mid-write still loads:
the torn line is dropped with a note on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

from repro.telemetry.analysis import critical_path
from repro.telemetry.export import write_chrome_trace
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.sink import (
    LIFECYCLE_EVENTS,
    ProfileEvent,
    member_count,
    read_events,
    unit_count,
)
from repro.telemetry.span import SpanBuilder, component_of

__all__ = ["add_trace_arguments", "run_trace"]


def add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(
        dest="trace_command", required=True, metavar="subcommand",
        title="subcommands",
    )

    summarize = sub.add_parser(
        "summarize", help="event/span/metric overview of one trace"
    )
    summarize.add_argument("trace", help="JSONL trace file "
                                         "(Profiler.write_jsonl output)")

    export = sub.add_parser(
        "export",
        help="render Chrome trace-event JSON (Perfetto / about://tracing)",
    )
    export.add_argument("trace", help="JSONL trace file")
    export.add_argument("-o", "--output", required=True,
                        help="output .json path")

    cpath = sub.add_parser(
        "critical-path",
        help="blocking-activity tiling of the pattern's TTC window",
    )
    cpath.add_argument("trace", help="JSONL trace file")
    cpath.add_argument("--pattern", default=None,
                       help="pattern uid (default: innermost pattern span)")


def _load(path_str: str) -> list[ProfileEvent]:
    path = Path(path_str)
    if not path.is_file():
        raise ValueError(f"no such trace file: {path}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        events = read_events(path)
    for warning in caught:
        print(f"repro trace: warning: {warning.message}", file=sys.stderr)
    if not events:
        raise ValueError(f"empty trace file: {path}")
    return events


def _cmd_summarize(args: argparse.Namespace) -> int:
    events = _load(args.trace)
    tree = SpanBuilder().add_events(events).build()
    # Read first, so that a trace it rejects prints nothing.
    registry = MetricsRegistry.from_events(events)

    units = unit_count(events)
    print(f"trace    : {args.trace}")
    print(f"events   : {len(events)}")
    if units:
        # Per unit: the lifecycle events that name it, each batch read
        # once per member.
        records = sum(member_count(ev) for ev in events
                      if ev.name in LIFECYCLE_EVENTS)
        print(f"units    : {units} ({records / units:.2f} lifecycle "
              f"events/unit)")
    print(f"spans    : {len(tree)}")
    print(f"window   : [{tree.root.t_start:.3f}, {tree.root.t_end:.3f}] s "
          f"({tree.root.duration:.3f} s)")

    counts: dict[str, int] = {}
    seconds: dict[str, float] = {}
    for span in tree:
        counts[span.name] = counts.get(span.name, 0) + 1
        seconds[span.name] = seconds.get(span.name, 0.0) + span.duration
    print("\nspans by name (count, total seconds, component):")
    for name in sorted(counts):
        sample = next(s for s in tree if s.name == name)
        print(f"  {name:<28} {counts[name]:>6}  {seconds[name]:>12.3f}  "
              f"{component_of(sample)}")

    names = registry.names()
    if names:
        print("\nmetric series (source):")
        for name in names:
            source = "derived" if registry.series(name).derived else "recorded"
            print(f"  {name:<32} {source}")
        print("\nmetrics (points, min, max, mean of recorded values):")
        for name in names:
            stats = registry.series(name).stats()
            print(f"  {name:<32} {int(stats['count']):>6}  "
                  f"{stats['min']:>10.3f} {stats['max']:>10.3f} "
                  f"{stats['mean']:>10.3f}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    events = _load(args.trace)
    write_chrome_trace(events, args.output)
    print(f"wrote {args.output} — open in https://ui.perfetto.dev")
    return 0


def _cmd_critical_path(args: argparse.Namespace) -> int:
    events = _load(args.trace)
    tree = SpanBuilder().add_events(events).build()
    path = critical_path(tree, pattern_uid=args.pattern)

    print(f"window  : [{path.t_start:.3f}, {path.t_end:.3f}] s  "
          f"ref={path.ref or '-'}")
    print(f"total   : {path.total:.3f} s over {len(path.segments)} segment(s)")
    print("\ncomponent totals:")
    for component, total in sorted(path.by_component().items()):
        share = total / path.total if path.total else 0.0
        print(f"  {component:<10} {total:>12.3f} s  {share:>6.1%}")
    print("\nsegments:")
    for segment in path.segments:
        print(f"  [{segment.t_start:>12.3f}, {segment.t_end:>12.3f}] "
              f"{segment.duration:>10.3f} s  {segment.component:<10} "
              f"{segment.name}")
    return 0


def run_trace(args: argparse.Namespace) -> int:
    handlers = {
        "summarize": _cmd_summarize,
        "export": _cmd_export,
        "critical-path": _cmd_critical_path,
    }
    try:
        status = handlers[args.trace_command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except ValueError as exc:
        print(f"repro trace: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader stopped early (``| head``), as it may.  Point stdout
        # at devnull so the interpreter's flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return status
