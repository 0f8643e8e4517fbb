"""The lint engine: file discovery, per-file rule pipeline, suppression.

Execution order is deterministic — files sorted by relative path, findings
sorted by (file, line, col, rule) — so output and CI behaviour are stable
across machines.

Inline suppression: a finding is dropped when its physical line carries
``# repro: noqa`` (all rules) or ``# repro: noqa[SM002]`` /
``# repro: noqa[DET001, DET004]`` (listed rules only).  A suppression
carries its reason in a neighbouring comment; there is no other way to
accept a finding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.config import LintConfig
from repro.lint.context import FileContext, build_context
from repro.lint.model import Finding
from repro.lint.registry import Rule, instantiate_rules

__all__ = ["LintResult", "lint_paths", "lint_source", "iter_python_files"]

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<ids>[A-Za-z0-9_,\s-]+)\])?", re.IGNORECASE
)


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def iter_python_files(
    paths: list[Path], exclude: list[str], root: Path
) -> list[Path]:
    """Every ``.py`` file under *paths*, deterministically ordered."""
    exclude_norm = [e.rstrip("/") for e in exclude]
    seen: set[Path] = set()
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            rel = _relpath(candidate, root)
            if any(
                rel == e or rel.startswith(e + "/") or f"/{e}/" in f"/{rel}"
                for e in exclude_norm
            ):
                continue
            seen.add(resolved)
            files.append(candidate)
    files.sort(key=lambda p: _relpath(p, root))
    return files


def _relpath(path: Path, root: Path) -> str:
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        rel = path
    return str(rel).replace("\\", "/")


def _suppressed(finding: Finding, ctx: FileContext) -> bool:
    match = _NOQA_RE.search(ctx.line_text(finding.line))
    if match is None:
        return False
    ids = match.group("ids")
    if ids is None:
        return True
    allowed = {part.strip().upper() for part in ids.split(",") if part.strip()}
    return finding.rule_id.upper() in allowed


def _check_file(ctx: FileContext, rules: list[Rule]) -> tuple[list[Finding], int]:
    findings: list[Finding] = []
    suppressed = 0
    for rule in rules:
        for finding in rule.check(ctx):
            if _suppressed(finding, ctx):
                suppressed += 1
            else:
                findings.append(finding)
    return findings, suppressed


def lint_source(
    source: str,
    path: str = "<snippet>",
    select: list[str] | None = None,
) -> list[Finding]:
    """Lint an in-memory snippet (the unit-test entry point)."""
    ctx = build_context(source, Path(path), path)
    rules = instantiate_rules(select)
    findings, _ = _check_file(ctx, rules)
    for rule in rules:
        findings.extend(f for f in rule.finalize() if not _suppressed(f, ctx))
    return sorted(findings)


def lint_paths(paths: list[Path], config: LintConfig) -> LintResult:
    """Run every selected rule over *paths*; apply noqa suppression."""
    result = LintResult()
    rules = instantiate_rules(config.select)
    raw: list[Finding] = []
    contexts: dict[str, FileContext] = {}
    for file_path in iter_python_files(paths, config.exclude, config.root):
        relpath = _relpath(file_path, config.root)
        try:
            source = file_path.read_text()
            ctx = build_context(source, file_path, relpath)
        except (OSError, SyntaxError, ValueError) as exc:
            raw.append(
                Finding(
                    relpath,
                    getattr(exc, "lineno", 1) or 1,
                    0,
                    "LINT001",
                    f"file cannot be analysed: {exc.__class__.__name__}: {exc}",
                )
            )
            continue
        result.files_scanned += 1
        contexts[relpath] = ctx
        findings, suppressed = _check_file(ctx, rules)
        raw.extend(findings)
        result.suppressed += suppressed

    for rule in rules:
        for finding in rule.finalize():
            ctx = contexts.get(finding.file)
            if ctx is not None and _suppressed(finding, ctx):
                result.suppressed += 1
            else:
                raw.append(finding)

    result.findings = sorted(raw)
    return result
