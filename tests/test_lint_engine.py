"""Engine-level tests: discovery and config parsing."""

from __future__ import annotations

import sys
import textwrap

import pytest

from repro.lint import LintConfig, lint_paths, rule_catalogue
from repro.lint.config import _fallback_parse, find_pyproject, load_config
from repro.lint.engine import iter_python_files


def _write(path, source):
    path.write_text(textwrap.dedent(source))
    return path


# -- file discovery -----------------------------------------------------------


def test_iter_python_files_is_sorted_and_deduplicated(tmp_path):
    (tmp_path / "b.py").write_text("")
    (tmp_path / "a.py").write_text("")
    sub = tmp_path / "pkg"
    sub.mkdir()
    (sub / "c.py").write_text("")
    (sub / "notes.txt").write_text("")
    files = iter_python_files([tmp_path, sub, sub / "c.py"], [], tmp_path)
    assert [f.name for f in files] == ["a.py", "b.py", "c.py"]


def test_iter_python_files_honours_exclude(tmp_path):
    (tmp_path / "keep.py").write_text("")
    skip = tmp_path / "skip"
    skip.mkdir()
    (skip / "gone.py").write_text("")
    files = iter_python_files([tmp_path], ["skip"], tmp_path)
    assert [f.name for f in files] == ["keep.py"]


def test_unparsable_file_becomes_lint001_finding(tmp_path):
    _write(tmp_path / "broken.py", "def oops(:\n")
    result = lint_paths([tmp_path], LintConfig(root=tmp_path))
    assert [f.rule_id for f in result.findings] == ["LINT001"]
    assert result.files_scanned == 0


# -- config -------------------------------------------------------------------

_SECTION = """
[project]
name = "whatever"

[tool.repro.lint]
paths = ["src/pkg"]
select = ["DET", "SM002"]
exclude = ["src/pkg/vendored"]
"""


def test_load_config_reads_section(tmp_path):
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(_SECTION)
    config = load_config(pyproject)
    assert config.paths == ["src/pkg"]
    assert config.select == ["DET", "SM002"]
    assert config.exclude == ["src/pkg/vendored"]
    assert config.root == tmp_path


def test_load_config_defaults_when_section_absent(tmp_path):
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text("[project]\nname = 'x'\n")
    config = load_config(pyproject)
    assert config.select is None and config.exclude == []


def test_load_config_rejects_bad_types(tmp_path):
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text("[tool.repro.lint]\nselect = 'DET'\n")
    with pytest.raises(ValueError, match="select"):
        load_config(pyproject)


@pytest.mark.parametrize("parser", ["tomllib", "fallback"])
@pytest.mark.parametrize("line", ['selct = ["SM"]', 'baseline = "x.json"'])
def test_load_config_rejects_unknown_keys(tmp_path, monkeypatch, parser,
                                          line):
    """A misspelt or leftover key is an error naming it and the known
    keys, whichever parser reads the section."""
    if parser == "fallback":
        monkeypatch.setitem(sys.modules, "tomllib", None)  # import fails
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(f"[tool.repro.lint]\n{line}\n")
    key = line.split(" =")[0]
    with pytest.raises(ValueError) as excinfo:
        load_config(pyproject)
    assert str(excinfo.value) == (
        f"[tool.repro.lint] unknown key(s): {key} "
        "(known: paths, select, exclude)"
    )


def test_fallback_parser_matches_tomllib_subset():
    # The 3.10 path (no tomllib in the CI image) must agree with tomllib.
    parsed = _fallback_parse(_SECTION)
    assert parsed == {
        "paths": ["src/pkg"],
        "select": ["DET", "SM002"],
        "exclude": ["src/pkg/vendored"],
    }


def test_fallback_parser_ignores_other_sections_and_comments():
    parsed = _fallback_parse(
        "[tool.other]\npaths = [\"nope\"]\n"
        "[tool.repro.lint]\n# a comment\nselect = \"DET\"  # trailing\n"
        "[tool.more]\nselect = \"nope\"\n"
    )
    assert parsed == {"select": "DET"}


def test_find_pyproject_walks_upward(tmp_path):
    (tmp_path / "pyproject.toml").write_text("")
    nested = tmp_path / "a" / "b"
    nested.mkdir(parents=True)
    assert find_pyproject(nested) == tmp_path / "pyproject.toml"


# -- registry -----------------------------------------------------------------


def test_rule_catalogue_covers_all_families():
    ids = [rule_id for rule_id, _ in rule_catalogue()]
    assert ids == sorted(ids)
    for family in ("DET", "DC", "SM", "EVT"):
        assert any(rule_id.startswith(family) for rule_id in ids)
    assert all(summary for _, summary in rule_catalogue())
