"""Text and JSON renderings of a :class:`~repro.lint.engine.LintResult`."""

from __future__ import annotations

import json
from collections import Counter

from repro.lint.engine import LintResult

__all__ = ["render_text", "render_json"]


def render_text(result: LintResult, *, verbose: bool = False) -> str:
    lines = [finding.render() for finding in result.findings]
    summary = (
        f"{len(result.findings)} finding(s) in {result.files_scanned} file(s)"
        f" ({result.suppressed} noqa-suppressed)"
    )
    if lines:
        lines.append("")
    lines.append(summary)
    if verbose and result.findings:
        by_rule = Counter(f.rule_id for f in result.findings)
        lines.append(
            "by rule: "
            + ", ".join(f"{rid}={n}" for rid, n in sorted(by_rule.items()))
        )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    payload = {
        "version": 1,
        "files_scanned": result.files_scanned,
        "summary": {
            "new": len(result.findings),
            "noqa_suppressed": result.suppressed,
        },
        "findings": [f.to_dict() for f in result.findings],
    }
    return json.dumps(payload, indent=2)
