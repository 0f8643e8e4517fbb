"""``python -m repro lint`` — the CLI front end of the analysis pass.

Exit codes: 0 clean (every finding fixed or ``noqa``-suppressed), 1
findings, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.config import LintConfig, find_pyproject, load_config
from repro.lint.engine import lint_paths
from repro.lint.registry import rule_catalogue
from repro.lint.reporters import render_json, render_text

__all__ = ["add_lint_arguments", "run_lint"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to scan (default: [tool.repro.lint] paths)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="rule id or family prefix to enable (repeatable; overrides config)",
    )
    parser.add_argument(
        "--no-config",
        action="store_true",
        help="ignore [tool.repro.lint] in pyproject.toml",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="append a per-rule finding count to the text report",
    )


def run_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule_id, summary in rule_catalogue():
            print(f"{rule_id:<8} {summary}")
        return 0

    if args.no_config:
        config = LintConfig()
    else:
        try:
            config = load_config(find_pyproject(Path.cwd()))
        except ValueError as exc:
            print(f"repro lint: bad configuration: {exc}", file=sys.stderr)
            return 2
    if args.select:
        config.select = args.select

    paths = [Path(p) for p in (args.paths or config.paths)]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"repro lint: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    result = lint_paths(paths, config)
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1
