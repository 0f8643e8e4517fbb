"""Tests of the benchmark itself, at the tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload goes once through the one command with ``--trace 0`` and
once with ``--trace 1``; every metric named in ``BENCHMARK.json`` must be
printed with its unit, and the output checks must pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_depend_only_on_seed():
    for name in workloads.WORKLOADS:
        assert workloads.inputs(name, 7) == workloads.inputs(name, 7)
    assert workloads.inputs("sched_faults", 7) != workloads.inputs("sched_faults", 8)


def test_every_toolkit_module_maps_to_one_layer():
    assert layers.import_table_modules()
    assert layers.table_errors(sys.modules) == []
    assert layers.layer_of("repro.pilot.agent.slots") == "slots"
    assert layers.layer_of("repro.pilot.pilot_manager") == "pilot"
    assert layers.layer_of("repro.lint.engine") is None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", str(workloads.PINNED_SEED),
                "--seconds", "1", "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    assert any(line.split()[:2] == ["unit_fail_frac", "0"] for line in lines)


def test_fails_without_the_toolkit_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sched_faults",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
