"""Data model of the static-analysis pass.

A :class:`Finding` is one diagnostic anchored to a file and line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Finding"]


@dataclass(frozen=True, order=True, slots=True)
class Finding:
    """One diagnostic produced by a lint rule."""

    file: str
    line: int
    col: int
    rule_id: str
    message: str
    #: Hint appended to the text report, e.g. the sanctioned replacement API.
    hint: str = field(default="", compare=False)

    def to_dict(self) -> dict:
        out = {
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "rule_id": self.rule_id,
            "message": self.message,
        }
        if self.hint:
            out["hint"] = self.hint
        return out

    def render(self) -> str:
        text = f"{self.file}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if self.hint:
            text += f" [{self.hint}]"
        return text
