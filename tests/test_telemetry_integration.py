"""Acceptance regressions for telemetry on real simulated runs.

ISSUE 3 acceptance criteria, verified end to end:

- exporting a Fig. 3-style EoP run yields valid Chrome trace-event JSON
  whose critical-path duration equals the run's TTC within 1e-6 s and
  whose per-component sums reconcile with ``OverheadBreakdown``;
- two same-seed runs produce byte-identical trace exports, with fault
  injection off and on;
- the harness ``trace_out`` hook and the ``repro trace`` CLI work on
  real dumps;
- ``repro lint`` reports zero findings over ``src/repro/telemetry``.
"""

import json
from pathlib import Path

import pytest

from repro.core.kernel_plugin import Kernel
from repro.core.patterns import EnsembleOfPipelines
from repro.core.profiler import breakdown_from_profile
from repro.core.resource_handle import ResourceHandle
from repro.pilot.retry import RetryPolicy
from repro.telemetry import (
    SpanBuilder,
    chrome_trace,
    critical_path,
    reconcile_with_breakdown,
    write_chrome_trace,
)
from repro.telemetry.sink import LIFECYCLE_EVENTS, member_count, unit_count
from repro.utils.ids import reset_id_counters


def _sleep(duration):
    kernel = Kernel(name="misc.sleep")
    kernel.arguments = [f"--duration={duration}"]
    return kernel


class TwoStageEoP(EnsembleOfPipelines):
    def stage_1(self, instance):
        return _sleep(40)

    def stage_2(self, instance):
        return _sleep(20)


FAULT_KWARGS = dict(
    node_mtbf=120.0,
    node_repair_time=120.0,
    retry_policy=RetryPolicy(
        max_attempts=8, backoff_base=2.0, backoff_factor=2.0,
        backoff_cap=60.0, jitter=0.5, exclude_failed_nodes=False,
    ),
)


def run_eop(seed=42, cores=16, size=16, **handle_kwargs):
    """One Fig. 3-style EoP run; returns (pattern, profiler)."""
    reset_id_counters()
    pattern = TwoStageEoP(ensemble_size=size, pipeline_size=2)
    handle = ResourceHandle(
        "xsede.comet", cores=cores, walltime=600, mode="sim",
        seed=seed, **handle_kwargs,
    )
    handle.allocate()
    try:
        handle.run(pattern)
    finally:
        handle.deallocate()
    return pattern, handle.profile


@pytest.fixture(scope="module")
def eop_run():
    return run_eop()


class TestCriticalPathReconciliation:
    def test_critical_path_equals_ttc(self, eop_run):
        pattern, profile = eop_run
        breakdown = breakdown_from_profile(profile, pattern)
        tree = SpanBuilder().add_events(list(profile)).build()
        path = critical_path(tree, pattern.uid)
        assert path.total == pytest.approx(breakdown.ttc, abs=1e-6)

    def test_components_reconcile_with_breakdown(self, eop_run):
        pattern, profile = eop_run
        breakdown = breakdown_from_profile(profile, pattern)
        tree = SpanBuilder().add_events(list(profile)).build()
        path = critical_path(tree, pattern.uid)
        deltas = reconcile_with_breakdown(path, breakdown)
        for component, delta in deltas.items():
            assert abs(delta) < 1e-6, (component, delta)

    def test_path_tiles_without_gaps_or_overlap(self, eop_run):
        _, profile = eop_run
        path = critical_path(SpanBuilder().add_events(list(profile)).build())
        assert path.segments, "critical path must not be empty"
        assert path.segments[0].t_start == pytest.approx(path.t_start)
        assert path.segments[-1].t_end == pytest.approx(path.t_end)
        for left, right in zip(path.segments, path.segments[1:]):
            assert left.t_end == pytest.approx(right.t_start)

    def test_chrome_export_is_valid_trace_event_json(self, eop_run, tmp_path):
        _, profile = eop_run
        out = tmp_path / "eop.trace.json"
        write_chrome_trace(list(profile), out)
        doc = json.loads(out.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        for ev in doc["traceEvents"]:
            assert ev["ph"] in {"M", "X", "C", "i"}
            assert ev["pid"] == 1
        spans = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert all(ev["dur"] >= 0 for ev in spans)
        cats = {ev["cat"] for ev in spans}
        assert "execution" in cats


class TestByteIdenticalExports:
    def _export_bytes(self, tmp_path, tag, **kwargs):
        _, profile = run_eop(**kwargs)
        path = tmp_path / f"{tag}.json"
        write_chrome_trace(list(profile), path)
        return path.read_bytes()

    def test_same_seed_same_bytes_no_faults(self, tmp_path):
        first = self._export_bytes(tmp_path, "a", seed=42)
        second = self._export_bytes(tmp_path, "b", seed=42)
        assert first == second

    def test_same_seed_same_bytes_with_faults(self, tmp_path):
        kwargs = dict(FAULT_KWARGS, seed=7, size=48, cores=32)
        first = self._export_bytes(tmp_path, "a", **kwargs)
        second = self._export_bytes(tmp_path, "b", **kwargs)
        assert first == second
        doc = json.loads(first)
        assert any(
            ev["ph"] == "i" and ev["name"].startswith("node_fail")
            for ev in doc["traceEvents"]
        ), "fixture must actually exercise the fault machinery"

    def test_different_seed_different_bytes_with_faults(self, tmp_path):
        kwargs = dict(FAULT_KWARGS, size=48, cores=32)
        first = self._export_bytes(tmp_path, "a", seed=7, **kwargs)
        second = self._export_bytes(tmp_path, "b", seed=8, **kwargs)
        assert first != second


class TestMetricsOnRealRuns:
    def test_unit_state_and_agent_metrics_recorded(self, eop_run):
        from repro.telemetry import MetricsRegistry

        _, profile = eop_run
        registry = MetricsRegistry.from_events(list(profile))
        names = registry.names()
        assert "units.NEW" in names
        assert "units.DONE" in names
        assert registry.series("units.DONE").last == 32.0
        pilots = {ev.uid for ev in profile if ev.name == "agent_start"}
        assert len(pilots) == 1
        (pilot,) = pilots
        for gauge in ("queue_depth", "cores_held", "cores_busy"):
            series = registry.series(f"agent.{pilot}.{gauge}")
            assert len(series) and series.last == 0.0, gauge
        assert registry.series(f"agent.{pilot}.cores_busy").vmax == 16.0
        assert not any(ev.name == "metric" and ev.uid.startswith("agent.")
                       for ev in profile)
        assert "pilot.queue_wait" in names

    def test_units_done_counts_up_to_ensemble_size(self, eop_run):
        from repro.telemetry import MetricsRegistry

        _, profile = eop_run
        series = MetricsRegistry.from_events(list(profile))
        values = series.series("units.DONE").values()
        assert values == sorted(values)
        assert values[-1] == 32.0


class TestHarnessTraceOut:
    def test_run_on_sim_dumps_chrome_trace(self, tmp_path):
        from repro.experiments.harness import run_on_sim

        reset_id_counters()
        pattern = TwoStageEoP(ensemble_size=4, pipeline_size=2)
        run_on_sim(pattern, "xsede.comet", cores=4, seed=0,
                   trace_out=tmp_path)
        dumps = list(Path(tmp_path).glob("*.trace.json"))
        assert len(dumps) == 1
        assert dumps[0].name == f"{pattern.uid}.trace.json"
        doc = json.loads(dumps[0].read_text())
        assert doc["traceEvents"]

    def test_module_level_hook(self, tmp_path):
        from repro.experiments import harness

        reset_id_counters()
        pattern = TwoStageEoP(ensemble_size=4, pipeline_size=2)
        harness.set_trace_out(tmp_path)
        try:
            harness.run_on_sim(pattern, "xsede.comet", cores=4, seed=0)
        finally:
            harness.set_trace_out(None)
        assert list(Path(tmp_path).glob("*.trace.json"))


class TestTraceCliOnRealDump:
    @pytest.fixture()
    def dump(self, tmp_path, eop_run):
        _, profile = eop_run
        path = tmp_path / "run.jsonl"
        with path.open("w") as stream:
            for ev in profile:
                record = {"time": ev.time, "name": ev.name, "uid": ev.uid}
                record.update(ev.attrs)
                stream.write(json.dumps(record) + "\n")
        return path

    def test_summarize_and_critical_path(self, dump, capsys):
        from repro.__main__ import main

        assert main(["trace", "summarize", str(dump)]) == 0
        assert "unit:EXECUTING" in capsys.readouterr().out
        assert main(["trace", "critical-path", str(dump)]) == 0
        assert "execution" in capsys.readouterr().out

    def test_summarize_counts_events_per_unit_and_marks_sources(
        self, dump, eop_run, capsys
    ):
        from repro.__main__ import main

        _, profile = eop_run
        events = list(profile)
        units = unit_count(events)
        records = sum(member_count(ev) for ev in events
                      if ev.name in LIFECYCLE_EVENTS)
        assert main(["trace", "summarize", str(dump)]) == 0
        out = capsys.readouterr().out
        assert (f"units    : {units} ({records / units:.2f} lifecycle "
                f"events/unit)" in out.splitlines())
        sources = out[out.index("metric series (source):"):
                      out.index("\nmetrics (")].splitlines()[1:]
        sources = dict(line.split() for line in sources if line)
        assert sources.pop("pilot.queue_wait") == "recorded"
        assert any(name.endswith(".cores_busy") for name in sources)
        assert set(sources.values()) == {"derived"}

    def test_export_matches_direct_api(self, dump, tmp_path, eop_run, capsys):
        from repro.__main__ import main

        _, profile = eop_run
        via_cli = tmp_path / "cli.json"
        via_api = tmp_path / "api.json"
        assert main(["trace", "export", str(dump), "-o", str(via_cli)]) == 0
        capsys.readouterr()
        write_chrome_trace(list(profile), via_api)
        assert via_cli.read_bytes() == via_api.read_bytes()


class TestLintCleanOverTelemetry:
    def test_zero_findings(self):
        from repro.lint.config import LintConfig
        from repro.lint.engine import lint_paths

        root = Path(__file__).resolve().parents[1]
        config = LintConfig(root=root)
        result = lint_paths([root / "src" / "repro" / "telemetry"], config)
        assert result.files_scanned >= 5
        assert result.findings == []
