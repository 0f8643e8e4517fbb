"""repro.lint — AST-based determinism & state-machine static analysis.

A from-scratch, stdlib-``ast`` lint framework purpose-built for this
reproduction: the experiments are only trustworthy while the simulator stays
bit-deterministic under a seed and while pilot/unit lifecycles respect the
edge tables in :mod:`repro.pilot.states`.  ``python -m repro lint`` enforces
both statically; see ``docs/static_analysis.md`` for the rule catalogue.

Public surface:

* :class:`~repro.lint.model.Finding` — one diagnostic;
* :func:`~repro.lint.engine.lint_paths` / :func:`~repro.lint.engine.lint_source`
  — run the pipeline over files or an in-memory snippet;
* :class:`~repro.lint.registry.Rule` + :func:`~repro.lint.registry.register_rule`
  — extend with new rules;
* :class:`~repro.lint.config.LintConfig` — ``[tool.repro.lint]`` settings.
"""

from repro.lint.config import LintConfig, load_config
from repro.lint.engine import LintResult, lint_paths, lint_source
from repro.lint.model import Finding
from repro.lint.registry import Rule, register_rule, rule_catalogue

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "Rule",
    "lint_paths",
    "lint_source",
    "load_config",
    "register_rule",
    "rule_catalogue",
]
