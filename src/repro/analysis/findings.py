"""Lint findings: the unit of output of every rule.

A :class:`Finding` is a frozen value object so findings can be sorted,
deduplicated and serialized to the ``--json`` report without the rule
that produced them in scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Finding":
        return cls(
            path=str(payload["path"]),
            line=int(payload["line"]),
            col=int(payload.get("col", 0)),
            rule=str(payload["rule"]),
            message=str(payload.get("message", "")),
        )
