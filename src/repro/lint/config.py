"""Lint configuration, from ``[tool.repro.lint]`` in ``pyproject.toml``.

Recognised keys::

    [tool.repro.lint]
    paths    = ["src/repro"]           # default scan roots
    select   = ["DET", "DC", "SM", "EVT"]  # rule ids or family prefixes
    exclude  = ["src/repro.egg-info"]  # path prefixes to skip

Any other key in the section is an error (``ValueError``, which
``repro lint`` reports as a usage error), so a misspelt key cannot
silently leave every rule selected.

Python 3.11+ parses with :mod:`tomllib`; on 3.10 (no tomllib, and the CI
image does not ship ``tomli``) a minimal single-section fallback parser
handles exactly the subset above — quoted strings and flat string arrays.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["LintConfig", "load_config", "find_pyproject"]

_SECTION = ("tool", "repro", "lint")
_KEYS = ("paths", "select", "exclude")


@dataclass
class LintConfig:
    paths: list[str] = field(default_factory=lambda: ["src"])
    select: list[str] | None = None
    exclude: list[str] = field(default_factory=list)
    #: Directory paths are relative to (pyproject's directory).
    root: Path = field(default_factory=Path.cwd)


def find_pyproject(start: Path) -> Path | None:
    """Nearest ``pyproject.toml`` at or above *start*."""
    for directory in [start, *start.parents]:
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def load_config(pyproject: Path | None) -> LintConfig:
    """Config from *pyproject* (or defaults when ``None``/section absent)."""
    if pyproject is None or not pyproject.is_file():
        return LintConfig()
    section = _read_section(pyproject)
    config = LintConfig(root=pyproject.parent)
    if not section:
        return config
    unknown = sorted(set(section) - set(_KEYS))
    if unknown:
        raise ValueError(
            f"[tool.repro.lint] unknown key(s): {', '.join(unknown)} "
            f"(known: {', '.join(_KEYS)})"
        )
    if "paths" in section:
        config.paths = _string_list(section["paths"], "paths")
    if "select" in section:
        config.select = _string_list(section["select"], "select")
    if "exclude" in section:
        config.exclude = _string_list(section["exclude"], "exclude")
    return config


def _string_list(value: object, key: str) -> list[str]:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ValueError(f"[tool.repro.lint] {key} must be a list of strings")
    return list(value)


def _read_section(pyproject: Path) -> dict:
    text = pyproject.read_text()
    try:
        import tomllib
    except ImportError:  # Python 3.10: minimal fallback, see module docstring
        return _fallback_parse(text)
    data = tomllib.loads(text)
    for part in _SECTION:
        data = data.get(part, {})
        if not isinstance(data, dict):
            return {}
    return data


_KEY_RE = re.compile(r"^\s*([A-Za-z_][\w-]*)\s*=\s*(.+?)\s*$")


def _fallback_parse(text: str) -> dict:
    """Parse only ``[tool.repro.lint]`` from *text*: strings + string arrays."""
    section: dict = {}
    in_section = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip() if not raw.strip().startswith("#") else ""
        if not line:
            continue
        if line.startswith("["):
            in_section = line == "[%s]" % ".".join(_SECTION)
            continue
        if not in_section:
            continue
        match = _KEY_RE.match(line)
        if not match:
            continue
        key, value = match.groups()
        if value.startswith("[") and value.endswith("]"):
            section[key] = re.findall(r'"([^"]*)"', value)
        elif value.startswith('"') and value.endswith('"'):
            section[key] = value[1:-1]
    return section
