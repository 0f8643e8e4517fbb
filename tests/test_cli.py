"""Tests for the ``python -m repro`` command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main


def test_platforms_lists_paper_machines(capsys):
    assert main(["platforms"]) == 0
    out = capsys.readouterr().out
    for name in ("xsede.comet", "xsede.stampede", "xsede.supermic"):
        assert name in out


def test_kernels_lists_builtins(capsys):
    assert main(["kernels"]) == 0
    out = capsys.readouterr().out
    assert "md.amber" in out
    assert "exchange.temperature" in out


def test_figure_small_run(capsys):
    assert main(["figure", "fig9", "--small"]) == 0
    out = capsys.readouterr().out
    assert "fig9" in out
    assert "[OK " in out
    assert "FAIL" not in out


def _files(directory: Path) -> dict[str, bytes]:
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def test_parallel_figure_writes_the_serial_runs_files(tmp_path):
    """Each sweep point writes one spool and one Chrome trace, with the
    same names and bytes whether the points run serially or in two
    worker processes (a shell run, as a user starts it)."""
    root = Path(__file__).resolve().parent.parent
    files = {}
    for parallel in ("0", "2"):
        spool, traces = tmp_path / f"spool{parallel}", tmp_path / f"trace{parallel}"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "figure", "fig5", "--small",
             "--parallel", parallel, "--spool", str(spool),
             "--trace-out", str(traces)],
            cwd=root, env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True, timeout=300,
        )
        assert (done.returncode, done.stderr) == (0, "")
        files[parallel] = (_files(spool), _files(traces))
    spools, traces = files["0"]
    assert len(spools) == len(traces) == 4  # one per core count
    assert all(name.endswith(".trace.jsonl") for name in spools)
    assert all(name.endswith(".trace.json") for name in traces)
    assert files["2"] == files["0"]


def test_figure_unknown_name(capsys):
    assert main(["figure", "fig42"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_ablation_run(capsys):
    assert main(["ablation", "scheduler_policy"]) == 0
    assert "backfill" in capsys.readouterr().out


def test_ablation_unknown(capsys):
    assert main(["ablation", "does_not_exist"]) == 2


def test_plan_outputs_resource(capsys):
    assert main(
        ["plan", "--ntasks", "128", "--seconds", "100",
         "--resources", "xsede.comet"]
    ) == 0
    out = capsys.readouterr().out
    assert "resource : xsede.comet" in out
    assert "core-hours" in out


def test_plan_cost_objective(capsys):
    assert main(
        ["plan", "--ntasks", "128", "--seconds", "100",
         "--objective", "cost", "--resources", "xsede.comet"]
    ) == 0


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])
