"""Unit tests for the telemetry subsystem on synthetic traces."""

import json
import random
from collections import Counter

import pytest

from repro.core.kernel_plugin import Kernel
from repro.core.patterns import BagOfTasks, PatternSequence
from repro.pilot.profiler import Profiler
from repro.telemetry import (
    MetricsRegistry,
    SpanBuilder,
    Tracer,
    chrome_trace,
    component_of,
    critical_path,
    write_chrome_trace,
)
from repro.telemetry.sink import ProfileEvent, revive
from repro.utils.ids import reset_id_counters


def revived(rows) -> list[ProfileEvent]:
    """Hand-written ``{"time", "name", "uid", **attrs}`` rows as the
    events a trace reader takes."""
    return [revive(dict(row)) for row in rows]


def synthetic_trace() -> list[dict]:
    """A hand-written EoP-shaped trace: one pattern, one pilot, two units."""
    events = [
        {"time": 0.0, "name": "session_start", "uid": "sess", "mode": "sim"},
        {"time": 0.1, "name": "entk_init_start", "uid": "sess"},
        {"time": 0.6, "name": "entk_init_stop", "uid": "sess"},
        {"time": 0.6, "name": "entk_alloc_start", "uid": "sess"},
        {"time": 0.7, "name": "pilot_submit", "uid": "pilot.1", "cores": 8},
        {"time": 1.5, "name": "agent_start", "uid": "pilot.1"},
        {"time": 2.0, "name": "entk_alloc_stop", "uid": "sess"},
        {"time": 2.0, "name": "entk_pattern_start", "uid": "p1"},
        {"time": 2.0, "name": "entk_stage_create_start", "uid": "p1", "n": 2},
        {"time": 2.2, "name": "entk_stage_create_stop", "uid": "p1", "n": 2},
        {"time": 2.2, "name": "entk_pattern_overhead", "uid": "p1",
         "seconds": 0.8, "n": 2},
        {"time": 2.2, "name": "unit_new", "uid": "u1", "pattern": "p1"},
        {"time": 2.25, "name": "unit_new", "uid": "u2", "pattern": "p1"},
        {"time": 2.3, "name": "unit_state", "uid": "u1",
         "state": "UMGR_SCHEDULING"},
        {"time": 2.35, "name": "unit_state", "uid": "u2",
         "state": "UMGR_SCHEDULING"},
        {"time": 4.0, "name": "unit_state", "uid": "u1",
         "state": "AGENT_STAGING_INPUT"},
        {"time": 4.1, "name": "unit_state", "uid": "u2",
         "state": "AGENT_STAGING_INPUT"},
        {"time": 5.0, "name": "unit_state", "uid": "u1",
         "state": "AGENT_SCHEDULING"},
        {"time": 5.1, "name": "unit_state", "uid": "u2",
         "state": "AGENT_SCHEDULING"},
        {"time": 6.0, "name": "unit_state", "uid": "u1", "state": "EXECUTING"},
        {"time": 6.1, "name": "unit_state", "uid": "u2", "state": "EXECUTING"},
        {"time": 46.0, "name": "unit_state", "uid": "u1",
         "state": "AGENT_STAGING_OUTPUT"},
        {"time": 46.5, "name": "unit_state", "uid": "u2",
         "state": "AGENT_STAGING_OUTPUT"},
        {"time": 47.0, "name": "unit_state", "uid": "u1", "state": "DONE"},
        {"time": 47.5, "name": "unit_state", "uid": "u2", "state": "DONE"},
        {"time": 48.0, "name": "entk_pattern_stop", "uid": "p1"},
        {"time": 50.0, "name": "agent_stop", "uid": "pilot.1"},
        {"time": 50.0, "name": "entk_cancel_start", "uid": "sess"},
        {"time": 51.0, "name": "entk_cancel_stop", "uid": "sess"},
        {"time": 52.0, "name": "session_close", "uid": "sess"},
        # One explicit span attached to a unit by ref.
        {"time": 5.0, "name": "span_open", "uid": "span.000000",
         "span": "agent.stage_in", "ref": "u1", "parent": ""},
        {"time": 5.9, "name": "span_close", "uid": "span.000000"},
    ]
    return events


class TestSpanBuilder:
    def test_tree_shape(self):
        tree = SpanBuilder().add_events(revived(synthetic_trace())).build()
        root = tree.root
        assert root.name == "session"
        assert root.t_start == 0.0 and root.t_end == 52.0

        (pattern,) = tree.find(name="pattern")
        assert pattern.ref == "p1"
        assert (pattern.t_start, pattern.t_end) == (2.0, 48.0)
        assert pattern.parent == root.uid

        u1 = tree.spans["unit:u1"]
        assert u1.parent == pattern.uid
        assert u1.t_start == 2.2 and u1.t_end == 47.0

        executing = tree.spans["unit:u1:3"]
        assert executing.name == "unit:EXECUTING"
        assert (executing.t_start, executing.t_end) == (6.0, 46.0)
        assert component_of(executing) == "execution"

        init = tree.find(name="entk_init")[0]
        assert component_of(init) == "core"
        charge = tree.find(name="entk_pattern_overhead")[0]
        assert charge.t_end == pytest.approx(3.0)
        assert component_of(charge) == "pattern"
        assert charge.parent == pattern.uid

        pilot = tree.spans["pilot:pilot.1"]
        assert (pilot.t_start, pilot.t_end) == (0.7, 50.0)
        startup = tree.find(name="pilot_startup")[0]
        assert (startup.t_start, startup.t_end) == (0.7, 1.5)
        assert startup.parent == pilot.uid

        explicit = tree.spans["span.000000"]
        assert explicit.name == "agent.stage_in"
        assert explicit.parent == "unit:u1"
        assert (explicit.t_start, explicit.t_end) == (5.0, 5.9)

    def test_out_of_order_events_build_identical_tree(self):
        events = revived(synthetic_trace())
        shuffled = list(events)
        random.Random(1234).shuffle(shuffled)

        def shape(tree):
            return sorted(
                (s.uid, s.name, s.t_start, s.t_end, s.parent, s.ref)
                for s in tree
            )

        in_order = SpanBuilder().add_events(events).build()
        scrambled = SpanBuilder().add_events(shuffled).build()
        assert shape(in_order) == shape(scrambled)

    def test_stage_create_spans_numbered_per_pattern(self):
        """Interleaved stage-create pairs of two patterns are numbered per
        pattern uid, in order of their start times."""
        rows = [{"time": 0.0, "name": "session_start", "uid": "s"}]
        for uid in ("p1", "p2"):
            rows.append({"time": 0.0, "name": "entk_pattern_start", "uid": uid})
            rows.append({"time": 9.0, "name": "entk_pattern_stop", "uid": uid})
        for name, uid, time in [
            ("start", "p1", 1.0), ("start", "p2", 1.5), ("stop", "p1", 2.0),
            ("stop", "p2", 2.5), ("start", "p1", 3.0), ("start", "p2", 3.5),
            ("stop", "p1", 4.0), ("stop", "p2", 4.5), ("start", "p2", 5.0),
            ("stop", "p2", 6.0),
        ]:
            rows.append({"time": time, "name": f"entk_stage_create_{name}",
                         "uid": uid})
        tree = SpanBuilder().add_events(revived(rows)).build()
        creates = {s.uid: (s.t_start, s.t_end, s.parent)
                   for s in tree.find(name="entk_stage_create")}
        assert creates == {
            "entk_stage_create:p1:0": (1.0, 2.0, "pattern:p1"),
            "entk_stage_create:p1:1": (3.0, 4.0, "pattern:p1"),
            "entk_stage_create:p2:0": (1.5, 2.5, "pattern:p2"),
            "entk_stage_create:p2:1": (3.5, 4.5, "pattern:p2"),
            "entk_stage_create:p2:2": (5.0, 6.0, "pattern:p2"),
        }

    def test_empty_trace_raises(self):
        with pytest.raises(ValueError):
            SpanBuilder().build()

    def test_unclosed_spans_end_at_trace_end(self):
        events = [
            {"time": 0.0, "name": "session_start", "uid": "s"},
            {"time": 1.0, "name": "span_open", "uid": "span.000001",
             "span": "dangling", "ref": "", "parent": ""},
            {"time": 5.0, "name": "session_close", "uid": "s"},
        ]
        tree = SpanBuilder().add_events(revived(events)).build()
        dangling = tree.spans["span.000001"]
        assert dangling.t_end == 5.0
        assert dangling.parent == tree.root.uid


class SleepBag(BagOfTasks):
    def task(self, instance):
        kernel = Kernel(name="misc.sleep")
        kernel.arguments = ["--duration=10"]
        return kernel


class TestSpanTreeQueries:
    """``SpanTree.leaves()`` and ``SpanTree.pattern()``: the two tree
    queries the critical path reads."""

    def test_sequence_trace(self, sim_handle_factory):
        reset_id_counters()
        handle = sim_handle_factory(seed=1)
        first, second = SleepBag(size=2), SleepBag(size=3)
        sequence = PatternSequence([first, second])
        handle.run(sequence)
        tree = SpanBuilder().add_events(handle.profile).build()

        outer = tree.pattern(sequence.uid)
        assert {s.ref: s.parent for s in tree.find(name="pattern")} == {
            sequence.uid: tree.root.uid,
            first.uid: outer.uid,
            second.uid: outer.uid,
        }
        # The first pattern without a pattern child, not the sequence.
        assert tree.pattern().ref == first.uid

        leaves = tree.leaves()
        assert len(leaves) == len({s.uid for s in leaves}) == 50
        names = Counter(s.name for s in leaves)
        assert names == {
            "agent.stage_in": 5, "agent.stage_out": 5, "exec.launch": 5,
            "unit:UMGR_SCHEDULING": 5, "unit:AGENT_STAGING_INPUT": 5,
            "unit:AGENT_SCHEDULING": 5, "unit:EXECUTING": 5,
            "unit:AGENT_STAGING_OUTPUT": 5, "entk_init": 1, "entk_alloc": 1,
            "entk_stage_create": 2,
            "entk_pattern_overhead": 2, "pilot_startup": 1, "pmgr.submit": 1,
            "umgr.submit": 2,
        }
        assert len(tree) == 62  # the other 12 have children

    def test_startup_of_an_unsubmitted_pilot_hangs_off_the_root(self):
        """A ``pilot_startup`` span whose ``pilot:`` span is missing (no
        ``pilot_submit`` in the trace) is the root's child and a leaf."""
        tree = SpanBuilder().add_events(revived([
            {"time": 0.0, "name": "session_start", "uid": "s"},
            {"time": 1.0, "name": "pilot_resubmit", "uid": "pilot.1"},
            {"time": 3.0, "name": "agent_start", "uid": "pilot.1"},
            {"time": 5.0, "name": "session_close", "uid": "s"},
        ])).build()
        (startup,) = tree.find(name="pilot_startup")
        assert startup.parent == "pilot:pilot.1"
        assert "pilot:pilot.1" not in tree.spans
        assert [s.uid for s in tree.leaves()] == [startup.uid]
        assert tree.pattern() is None

    def test_self_parented_span_hangs_off_the_root(self):
        tree = SpanBuilder().add_events(revived([
            {"time": 0.0, "name": "session_start", "uid": "s"},
            {"time": 1.0, "name": "span_open", "uid": "span.000001",
             "span": "loop", "ref": "", "parent": "span.000001"},
            {"time": 2.0, "name": "span_close", "uid": "span.000001"},
            {"time": 5.0, "name": "session_close", "uid": "s"},
        ])).build()
        assert tree.spans["span.000001"].parent == "span.000001"
        assert [s.uid for s in tree.leaves()] == ["span.000001"]


class TestTracer:
    def test_nesting_records_parents(self):
        reset_id_counters()
        prof = Profiler(lambda: 0.0)
        tracer = Tracer(prof)
        with tracer.span("outer", "a") as outer_uid:
            with tracer.span("inner", "b"):
                pass
        opens = prof.events("span_open")
        assert opens[0].attrs["parent"] == ""
        assert opens[1].attrs["parent"] == outer_uid
        assert len(prof.events("span_close")) == 2

    def test_begin_end_does_not_occupy_stack(self):
        reset_id_counters()
        prof = Profiler(lambda: 0.0)
        tracer = Tracer(prof)
        with tracer.span("outer", "a") as outer_uid:
            async_uid = tracer.begin("async", "x")
            with tracer.span("sibling", "y"):
                pass
        tracer.end(async_uid)
        opens = {ev.attrs["span"]: ev.attrs["parent"]
                 for ev in prof.events("span_open")}
        assert opens["async"] == outer_uid
        assert opens["sibling"] == outer_uid  # not parented to "async"


class TestMetrics:
    def test_counter_gauge_sample(self):
        clock = {"t": 0.0}
        prof = Profiler(lambda: clock["t"])
        live = MetricsRegistry(lambda: clock["t"], emit=prof.event)
        for record in (
            lambda: live.count("submitted"),
            lambda: live.count("submitted", 2),
            lambda: live.gauge("depth", 5),
            lambda: live.adjust("depth", -2),
            lambda: live.sample("wait", 7.5),
        ):
            record()
            clock["t"] += 1.0
        registry = MetricsRegistry.from_events(list(prof))

        for reg in (live, registry):
            assert reg.names() == ["depth", "submitted", "wait"]
            assert reg.series("submitted").last == 3.0
            assert reg.series("depth").last == 3.0
            assert reg.series("wait").stats()["mean"] == 7.5
            assert "nope" not in reg
        assert registry.series("depth").value_at(2.0) == 5.0
        assert registry.series("nope").points == []

    def test_emit_and_rebuild_roundtrip(self):
        prof = Profiler(lambda: 42.0)
        registry = MetricsRegistry(lambda: 42.0, emit=prof.event)
        registry.gauge("depth", 3)
        registry.count("done")
        rebuilt = MetricsRegistry.from_events(list(prof))
        assert rebuilt.names() == ["depth", "done"]
        assert rebuilt.series("depth").points == [(42.0, 3.0)]
        assert rebuilt.series("done").kind == "counter"


class TestCriticalPath:
    def test_tiles_cover_window_exactly(self):
        tree = SpanBuilder().add_events(revived(synthetic_trace())).build()
        path = critical_path(tree)
        assert path.ref == "p1"
        assert path.total == pytest.approx(46.0)  # pattern window 2.0..48.0
        assert sum(seg.duration for seg in path.segments) == pytest.approx(
            path.total
        )
        # Segments tile: contiguous, no overlap.
        for left, right in zip(path.segments, path.segments[1:]):
            assert left.t_end == pytest.approx(right.t_start)

        totals = path.by_component()
        # Units execute 6.0..46.5 (union of both units).
        assert totals["execution"] == pytest.approx(40.5)
        # stage_create 0.2s + charged 0.8s, disjoint from execution.
        assert totals["pattern"] == pytest.approx(1.0)
        assert totals["runtime"] == pytest.approx(46.0 - 40.5 - 1.0)

    def test_execution_has_priority_over_pattern(self):
        events = [
            {"time": 0.0, "name": "session_start", "uid": "s"},
            {"time": 1.0, "name": "entk_pattern_start", "uid": "p"},
            # Charge overlapping execution: execution wins the overlap.
            {"time": 2.0, "name": "entk_pattern_overhead", "uid": "p",
             "seconds": 4.0},
            {"time": 0.0, "name": "unit_new", "uid": "u", "pattern": "p"},
            {"time": 3.0, "name": "unit_state", "uid": "u",
             "state": "EXECUTING"},
            {"time": 9.0, "name": "unit_state", "uid": "u", "state": "DONE"},
            {"time": 11.0, "name": "entk_pattern_stop", "uid": "p"},
            {"time": 11.0, "name": "session_close", "uid": "s"},
        ]
        tree = SpanBuilder().add_events(revived(events)).build()
        totals = critical_path(tree).by_component()
        assert totals["execution"] == pytest.approx(6.0)   # 3..9
        assert totals["pattern"] == pytest.approx(1.0)     # 2..3 only
        assert totals["runtime"] == pytest.approx(3.0)     # 1..2 and 9..11


class TestChromeExport:
    def test_document_structure(self):
        doc = chrome_trace(revived(synthetic_trace()))
        assert set(doc) == {"displayTimeUnit", "traceEvents"}
        phases = {ev["ph"] for ev in doc["traceEvents"]}
        assert phases == {"M", "X"}
        spans = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        executing = min(
            (ev for ev in spans if ev["name"] == "unit:EXECUTING"),
            key=lambda ev: ev["ts"],
        )
        assert executing["cat"] == "execution"
        assert executing["ts"] == pytest.approx(6.0e6)
        assert executing["dur"] == pytest.approx(40.0e6)
        # Entity tracks get thread-name metadata.
        names = {
            ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        assert {"client", "pilot pilot.1", "unit u1", "unit u2"} <= names

    def test_metrics_and_faults_become_counters_and_instants(self):
        events = synthetic_trace() + [
            {"time": 10.0, "name": "metric", "uid": "depth", "value": 4.0,
             "kind": "gauge"},
            {"time": 20.0, "name": "node_fail", "uid": "pilot.1", "node": 0},
        ]
        doc = chrome_trace(revived(events))
        counters = [ev for ev in doc["traceEvents"] if ev["ph"] == "C"]
        assert counters[0]["name"] == "depth"
        assert counters[0]["args"]["value"] == 4.0
        instants = [ev for ev in doc["traceEvents"] if ev["ph"] == "i"]
        assert instants[0]["name"] == "node_fail pilot.1"

    def test_write_is_byte_deterministic(self, tmp_path):
        events = revived(synthetic_trace())
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_chrome_trace(events, first)
        write_chrome_trace(list(reversed(events)), second)
        assert first.read_bytes() == second.read_bytes()
        assert json.loads(first.read_text())["traceEvents"]


class TestTraceCli:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with path.open("w") as stream:
            for event in synthetic_trace():
                stream.write(json.dumps(event) + "\n")
        return path

    def test_summarize(self, trace_file, capsys):
        from repro.__main__ import main

        assert main(["trace", "summarize", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "unit:EXECUTING" in out
        assert "spans" in out

    def test_export(self, trace_file, tmp_path, capsys):
        from repro.__main__ import main

        out_path = tmp_path / "chrome.json"
        assert main(["trace", "export", str(trace_file),
                     "-o", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]

    def test_critical_path(self, trace_file, capsys):
        from repro.__main__ import main

        assert main(["trace", "critical-path", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "execution" in out
        assert "ref=p1" in out

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        from repro.__main__ import main

        missing = tmp_path / "nope.jsonl"
        assert main(["trace", "summarize", str(missing)]) == 2
        assert "no such trace file" in capsys.readouterr().err
