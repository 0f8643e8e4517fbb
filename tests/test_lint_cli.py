"""CLI tests for ``python -m repro lint``, including the acceptance criteria:
the shipped tree exits 0; a seeded wall-clock call or illegal state
transition exits non-zero.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.__main__ import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def _write(path, source):
    path.write_text(textwrap.dedent(source))
    return path


# -- acceptance: the shipped tree is clean ------------------------------------


def test_shipped_tree_lints_clean(capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint", "src/repro"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_ci_invocation_src_and_tests_clean(capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint", "src", "tests", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["new"] == 0
    assert payload["findings"] == []


# -- acceptance: seeded violations fail the build -----------------------------


def test_seeded_wall_clock_call_fails(tmp_path, capsys):
    bad = _write(
        tmp_path / "bad.py",
        """
        import time
        def stamp():
            return time.time()
        """,
    )
    assert main(["lint", str(bad), "--no-config"]) == 1
    assert "DET001" in capsys.readouterr().out


def test_seeded_illegal_transition_fails(tmp_path, capsys):
    bad = _write(
        tmp_path / "bad.py",
        """
        from repro.pilot.states import PilotState
        def finish(pilot):
            pilot.advance(PilotState.DONE)
            pilot.advance(PilotState.ACTIVE)
        """,
    )
    assert main(["lint", str(bad), "--no-config"]) == 1
    out = capsys.readouterr().out
    assert "SM002" in out and "DONE -> ACTIVE" in out


# -- report formats -----------------------------------------------------------


def test_json_report_shape(tmp_path, capsys):
    bad = _write(tmp_path / "bad.py", "import time\nx = time.time()\n")
    assert main(["lint", str(bad), "--no-config", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"] == {"new": 1, "noqa_suppressed": 0}
    finding = payload["findings"][0]
    assert finding["rule_id"] == "DET001"
    assert finding["line"] == 2
    assert finding["file"].endswith("bad.py")


def test_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "DC001", "SM002", "EVT001"):
        assert rule_id in out


# -- selection / suppression flags --------------------------------------------


def test_select_limits_rules(tmp_path, capsys):
    bad = _write(tmp_path / "bad.py", "import time\nx = time.time()\n")
    assert main(["lint", str(bad), "--no-config", "--select", "SM"]) == 0


def test_noqa_is_the_only_way_to_accept_a_finding(tmp_path, capsys):
    bad = _write(tmp_path / "bad.py", "import time\nx = time.time()\n")
    assert main(["lint", str(bad), "--no-config"]) == 1
    _write(bad, "import time\nx = time.time()  # repro: noqa[DET001]\n")
    assert main(["lint", str(bad), "--no-config"]) == 0
    assert "(1 noqa-suppressed)" in capsys.readouterr().out
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", str(bad), "--no-config", "--write-baseline"])
    assert excinfo.value.code == 2


# -- errors -------------------------------------------------------------------


def test_missing_path_is_usage_error(capsys):
    assert main(["lint", "does/not/exist.py", "--no-config"]) == 2
    assert "no such path" in capsys.readouterr().err


# -- config integration -------------------------------------------------------


def test_config_paths_are_used(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    src = tmp_path / "src"
    src.mkdir()
    _write(src / "mod.py", "import time\nx = time.time()\n")
    (tmp_path / "pyproject.toml").write_text(
        '[tool.repro.lint]\npaths = ["src"]\n'
    )
    assert main(["lint"]) == 1
    assert "src/mod.py:2:" in capsys.readouterr().out


def test_unknown_config_key_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "mod.py", "import time\nx = time.time()\n")
    (tmp_path / "pyproject.toml").write_text(
        '[tool.repro.lint]\nselct = ["SM"]\n'
    )
    assert main(["lint", "mod.py"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown key(s): selct" in captured.err


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for command in ("platforms", "kernels", "figure", "ablation", "lint", "plan"):
        assert command in out
