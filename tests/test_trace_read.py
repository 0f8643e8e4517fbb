"""The analysis read path: the spool reader, the trace index, one read.

``read_events`` decodes a spool a block of lines per ``json.loads`` and
keeps every complete event of a spool whose last line was torn
mid-write; ``TraceIndex`` answers the profiler's queries from one read
of the sink; ``breakdown_from_profile`` (fault summary included) reads
the sink exactly once per call and keeps nothing afterwards.
"""

import json
import random

import pytest

from repro.analytics.faults import fault_recovery_summary
from repro.core.patterns import BagOfTasks
from repro.core.profiler import breakdown_from_profile
from repro.core.resource_handle import ResourceHandle
from repro.pilot.profiler import Profiler
from repro.pilot.retry import RetryPolicy
from repro.telemetry import MetricsRegistry, SpanBuilder
from repro.telemetry import sink as sink_module
from repro.telemetry.sink import (
    EventSink,
    ProfileEvent,
    SpoolSink,
    member_uids,
    read_events,
    revive,
)
from repro.utils.ids import reset_id_counters
from tests.test_determinism import _sleep
from tests.test_telemetry import synthetic_trace

BLOCK = sink_module._BLOCK_LINES


def _events(n):
    return [ProfileEvent(i * 0.5, f"ev{i % 3}", f"u{i % 7}", {"i": i})
            for i in range(n)]


def _write_spool(path, n):
    """Spool *n* events through a real sink; returns them."""
    sink = SpoolSink(path)
    for ev in _events(n):
        sink.append(ev)
    sink.close()
    return _events(n)


def _lines(path):
    return path.read_text().splitlines(keepends=True)


def _unencodable():
    """A value JSON cannot encode, written through ``default=str``."""
    from pathlib import PurePosixPath

    return PurePosixPath("/sim/unit.000001")


class TestReadEvents:
    def test_multi_block_spool_reads_back_exactly(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        written = _write_spool(path, 2 * BLOCK + 17)
        assert read_events(path) == written

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        written = _write_spool(path, BLOCK + 40)
        lines = _lines(path)
        lines.insert(BLOCK + 3, "\n")
        lines.insert(5, "   \n")
        lines.insert(0, "\n")
        path.write_text("".join(lines))
        assert read_events(path) == written

    def test_torn_last_line_keeps_complete_events_and_warns_once(
        self, tmp_path
    ):
        """A spool cut off mid-append reads back up to its last complete
        line, with one warning that counts what was recovered."""
        path = tmp_path / "trace.jsonl"
        written = _write_spool(path, BLOCK + 300)
        intact = path.read_text()
        path.write_text(intact[: len(intact) - 9])  # hand-truncate
        with pytest.warns(RuntimeWarning) as record:
            events = read_events(path)
        assert events == written[:-1]
        assert len(record) == 1
        message = str(record[0].message)
        assert f"recovered {len(written) - 1} complete events" in message
        assert f":{len(written)}:" in message  # names the torn line

    def test_torn_tail_then_blank_lines_is_still_a_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        written = _write_spool(path, 10)
        intact = path.read_text()
        path.write_text(intact[: len(intact) - 5] + "\n\n")
        with pytest.warns(RuntimeWarning, match="recovered 9 complete"):
            assert read_events(path) == written[:-1]

    @pytest.mark.parametrize("bad", [2, BLOCK - 1, BLOCK + 1])
    def test_bad_line_before_the_end_raises(self, tmp_path, bad):
        path = tmp_path / "trace.jsonl"
        _write_spool(path, BLOCK + 50)
        lines = _lines(path)
        lines[bad - 1] = lines[bad - 1][:10] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f":{bad}: bad JSONL"):
            read_events(path)

    def test_two_rows_on_one_line_is_an_error(self, tmp_path):
        """The block decode falls back to line by line when a block does
        not give one row per line, so this stays an error."""
        path = tmp_path / "trace.jsonl"
        _write_spool(path, 20)
        lines = _lines(path)
        lines[3] = lines[3].rstrip("\n") + "," + lines[4]
        del lines[4]  # 19 lines that decode to 20 rows
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=":4: bad JSONL"):
            read_events(path)

    def test_encoder_writes_json_dumps_bytes(self):
        rows = [ev.row() for ev in _events(40)] + [
            {"time": 1e-7, "name": "x", "uid": "", "path": _unencodable(),
             "ratio": float("nan"), "text": "\u00e9\n\"", "n": None},
        ]
        for row in rows:
            assert sink_module.encode_row(row) == json.dumps(row, default=str)

    def test_spool_sink_reads_through_the_reader(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = SpoolSink(path)
        written = _events(30)
        for ev in written:
            sink.append(ev)
        sink.flush()
        with path.open("a") as stream:
            stream.write('{"time": 99.0, "na')
        with pytest.warns(RuntimeWarning, match="recovered 30 complete"):
            assert sink.events() == written
        sink.close()


class TestTraceCliTornSpool:
    def _trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with path.open("w") as stream:
            for event in synthetic_trace():
                stream.write(json.dumps(event) + "\n")
        return path

    def test_torn_spool_summarizes_with_a_note(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._trace(tmp_path)
        with path.open("a") as stream:
            stream.write('{"time": 60.0, "name": "unit_st')
        assert main(["trace", "summarize", str(path)]) == 0
        captured = capsys.readouterr()
        assert f"events   : {len(synthetic_trace())}" in captured.out
        assert "torn last line dropped" in captured.err
        assert f"recovered {len(synthetic_trace())} complete" in captured.err

    def test_spool_torn_inside_a_batch_event(self, tmp_path, capsys):
        """A run's spool cut mid-way through the ``units_state`` line that
        starts a launch group: the legal prefix reads back with one
        warning, and the span tree and ``summarize`` close the launches
        of that line's units at the end of the trace."""
        from repro.__main__ import main
        from tests.test_determinism import TwoStageEoP

        reset_id_counters()
        handle = ResourceHandle("xsede.comet", cores=16, walltime=600,
                                mode="sim", spool_dir=tmp_path / "spool")
        handle.allocate()
        try:
            handle.run(TwoStageEoP(ensemble_size=16, pipeline_size=2))
        finally:
            handle.deallocate()
        spool = handle.session.spool_path
        lines = _lines(spool)
        cut = next(i for i, line in enumerate(lines)
                   if json.loads(line)["name"] == "units_state"
                   and json.loads(line)["state"] == "EXECUTING")
        torn = tmp_path / "torn.jsonl"
        torn.write_text("".join(lines[:cut]) + lines[cut][:len(lines[cut]) // 2])
        with pytest.warns(RuntimeWarning, match=f"recovered {cut} complete"):
            events = read_events(torn)
        assert events == read_events(spool)[:cut]

        launching = member_uids(revive(json.loads(lines[cut])))
        t_end = events[-1].time
        tree = SpanBuilder().add_events(events).build()
        launches = {s.ref: s for s in tree if s.name == "exec.launch"}
        assert launching and set(launching) <= set(launches)
        assert all(launches[uid].t_end == t_end for uid in launching)

        assert main(["trace", "summarize", str(torn)]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "torn last line dropped" in captured.err
        (line,) = [line for line in captured.out.splitlines()
                   if line.split()[:1] == ["exec.launch"]]
        assert int(line.split()[1]) == len(launches)

    def test_bad_line_mid_file_is_a_usage_error(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._trace(tmp_path)
        lines = _lines(path)
        lines[2] = "{ not json\n"
        path.write_text("".join(lines))
        assert main(["trace", "summarize", str(path)]) == 2
        assert ":3: bad JSONL" in capsys.readouterr().err


class TestTraceIndex:
    @pytest.fixture()
    def profiler(self):
        rng = random.Random(5)
        prof = Profiler(lambda: rng.random() * 100.0)
        for _ in range(400):
            prof.event(rng.choice("abcde"), rng.choice(["", "x", "y", "z"]),
                       n=rng.randrange(9))
        return prof

    def test_answers_every_profiler_query_alike(self, profiler):
        index = profiler.index()
        assert len(index) == len(profiler)
        assert list(index) == list(profiler)
        assert index.index() is index
        for name in [None, *"abcdef"]:
            for uid in [None, "", "x", "y", "z", "w"]:
                assert index.events(name, uid) == profiler.events(name, uid)
                if name is None:
                    continue
                assert index.first(name, uid) == profiler.first(name, uid)
                assert index.last(name, uid) == profiler.last(name, uid)
                for end in "abcdef":
                    assert (index.span(name, end, uid)
                            == profiler.span(name, end, uid))

    def test_select_merges_names_in_recording_order(self, profiler):
        index = profiler.index()
        assert index.select("d", "a", "f") == [
            ev for ev in profiler if ev.name in ("a", "d")
        ]
        assert index.select("c") == profiler.events("c")

    def test_index_is_a_snapshot(self, profiler):
        index = profiler.index()
        profiler.event("late", "x")
        assert index.events("late") == []
        assert len(index) == len(profiler) - 1


class _CountingSink(EventSink):
    """Delegates to a real sink and counts ``events()`` reads."""

    __slots__ = ("inner", "reads")

    def __init__(self, inner):
        self.inner = inner
        self.reads = 0

    def append(self, ev):
        self.inner.append(ev)

    def events(self):
        self.reads += 1
        return self.inner.events()

    def __len__(self):
        return len(self.inner)


class _FaultedBag(BagOfTasks):
    retry_policy = RetryPolicy(max_attempts=8, backoff_base=2.0,
                               exclude_failed_nodes=False)

    def task(self, instance):
        return _sleep(100)


def test_spool_file_is_write_jsonl_of_the_same_profiler(tmp_path):
    """Both writers encode each row with ``sink.encode_row``."""
    reset_id_counters()
    handle = ResourceHandle(
        "xsede.comet", cores=32, walltime=600, mode="sim", seed=11,
        fault_rate=0.2, node_mtbf=120.0, node_repair_time=120.0,
        retry_policy=_FaultedBag.retry_policy, spool_dir=tmp_path / "spool",
    )
    handle.allocate()
    try:
        handle.run(_FaultedBag(size=48))
    finally:
        handle.deallocate()
    assert {"task_fault", "unit_node_kill"} <= {
        ev.name for ev in handle.profile
    }
    dump = tmp_path / "dump.jsonl"
    assert handle.profile.write_jsonl(dump) == len(handle.profile)
    assert dump.read_bytes() == handle.session.spool_path.read_bytes()


class TestOneReadPerAnalysis:
    @pytest.fixture(params=["memory", "spool"])
    def run(self, request, tmp_path):
        reset_id_counters()
        spool = {"spool_dir": tmp_path} if request.param == "spool" else {}
        handle = ResourceHandle(
            "xsede.comet", cores=32, walltime=600, mode="sim", seed=11,
            fault_rate=0.2, node_mtbf=120.0, node_repair_time=120.0,
            retry_policy=_FaultedBag.retry_policy, **spool,
        )
        handle.allocate()
        pattern = _FaultedBag(size=48)
        try:
            handle.run(pattern)
        finally:
            handle.deallocate()
        counting = _CountingSink(handle.profile.sink)
        return handle, pattern, counting, Profiler(lambda: 0.0, counting)

    def test_breakdown_with_fault_summary_reads_once(self, run):
        handle, pattern, counting, prof = run
        breakdown = breakdown_from_profile(prof, pattern)
        assert counting.reads == 1
        assert breakdown.fault_overhead > 0  # the fault summary ran
        assert breakdown == breakdown_from_profile(handle.profile, pattern)

    def test_fault_summary_reads_once(self, run):
        _, _, counting, prof = run
        summary = fault_recovery_summary(prof)
        assert counting.reads == 1
        assert summary.task_faults > 0 and summary.node_failures > 0

    def test_full_figure_analysis_reads_three_times(self, run):
        """Breakdown, span tree and metric series: one read each."""
        _, pattern, counting, prof = run
        breakdown_from_profile(prof, pattern)
        SpanBuilder().add_events(prof).build()
        MetricsRegistry.from_events(prof)
        assert counting.reads == 3

    def test_no_index_outlives_a_call(self, run):
        """A second call reads the sink again and sees later events."""
        _, pattern, counting, prof = run
        first = breakdown_from_profile(prof, pattern)
        counting.append(ProfileEvent(0.0, "entk_init_start", "late"))
        counting.append(ProfileEvent(5.0, "entk_init_stop", "late"))
        second = breakdown_from_profile(prof, pattern)
        assert counting.reads == 2
        assert second.core_overhead == pytest.approx(first.core_overhead + 5.0)
