"""The lint engine: rule registry, file walking, suppression pragmas.

Rules are small classes registered with :func:`register_rule`; the
engine owns everything rule-independent — discovering Python files,
parsing them once into a shared :class:`FileContext`, scoping rules by
dotted module name, and honouring ``# repro: allow[rule-id]``
suppression pragmas on the exact finding line.  The pragma is the only
way to suppress a finding: an exception sits next to the code it
excuses, where a reviewer sees it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.analysis.findings import Finding

#: suppression pragma: ``# repro: allow[rule-id]`` or ``allow[a, b]``
PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_\-\s,]+)\]")

#: pseudo-rule for files the engine cannot parse
PARSE_ERROR_RULE = "parse-error"

REPORT_VERSION = 1


def suppressed_rules(source_line: str) -> frozenset[str]:
    """Rule ids suppressed by a pragma on this physical line."""
    match = PRAGMA_RE.search(source_line)
    if match is None:
        return frozenset()
    return frozenset(part.strip() for part in match.group(1).split(",") if part.strip())


def module_name_for(path: Path) -> str | None:
    """Dotted module name for a source path, if it lives under ``repro``.

    ``src/repro/sim/engine.py`` → ``repro.sim.engine``; files outside a
    ``repro`` package root (e.g. test fixtures) map to ``None``, which
    scoped rules treat as in-scope — a fixture exercises every rule.
    """
    parts = path.resolve().with_suffix("").parts
    if "repro" not in parts:
        return None
    index = parts.index("repro")
    module_parts = list(parts[index:])
    if module_parts[-1] == "__init__":
        module_parts.pop()
    return ".".join(module_parts)


@dataclass(frozen=True)
class FileContext:
    """One parsed source file, shared by every rule that inspects it."""

    path: str
    module: str | None
    source: str
    lines: tuple[str, ...]
    tree: ast.Module

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=int(getattr(node, "lineno", 1)),
            col=int(getattr(node, "col_offset", 0)),
            rule=rule,
            message=message,
        )


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id``/``description``, optionally narrow
    :meth:`applies`, and implement :meth:`check`.  Registration is via
    :func:`register_rule`, which keys the registry on ``rule_id``.
    """

    rule_id: str = ""
    description: str = ""

    def applies(self, module: str | None) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one rule instance to the registry."""
    if not cls.rule_id:
        raise ValueError(f"rule class {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id!r}")
    _REGISTRY[cls.rule_id] = cls()
    return cls


def _ensure_rules_loaded() -> None:
    # Imported lazily so ``engine`` stays importable from rule modules.
    from repro.analysis import rules as _rules  # noqa: F401


def all_rules() -> list[Rule]:
    _ensure_rules_loaded()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def all_rule_ids() -> list[str]:
    return [rule.rule_id for rule in all_rules()]


def get_rule(rule_id: str) -> Rule:
    _ensure_rules_loaded()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown rule {rule_id!r} (known: {known})") from None


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a deterministic .py file sequence."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if "__pycache__" not in candidate.parts:
                    yield candidate
        else:
            yield path


def display_path(path: Path) -> str:
    """Stable, slash-normalized path: relative to cwd when possible."""
    resolved = path.resolve()
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        """Non-zero exit: any live finding."""
        return bool(self.findings)

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        summary = (
            f"{len(self.findings)} finding(s), {len(self.suppressed)} suppressed "
            f"across {self.files_scanned} file(s)"
        )
        lines.append(summary)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        return {
            "version": REPORT_VERSION,
            "files_scanned": self.files_scanned,
            "rules_run": list(self.rules_run),
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": [finding.to_dict() for finding in self.suppressed],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "LintReport":
        findings = payload.get("findings", [])
        suppressed = payload.get("suppressed", [])
        assert isinstance(findings, list)
        assert isinstance(suppressed, list)
        return cls(
            findings=[Finding.from_dict(item) for item in findings],
            suppressed=[Finding.from_dict(item) for item in suppressed],
            files_scanned=int(payload.get("files_scanned", 0)),  # type: ignore[arg-type]
            rules_run=list(payload.get("rules_run", [])),  # type: ignore[arg-type]
        )


def lint_file(path: Path, rules: Sequence[Rule]) -> tuple[list[Finding], list[Finding]]:
    """Lint one file: returns ``(live findings, pragma-suppressed)``."""
    shown = display_path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        finding = Finding(shown, 1, 0, PARSE_ERROR_RULE, f"cannot read file: {exc}")
        return [finding], []
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        finding = Finding(
            shown, exc.lineno or 1, exc.offset or 0, PARSE_ERROR_RULE,
            f"cannot parse file: {exc.msg}",
        )
        return [finding], []
    ctx = FileContext(
        path=shown,
        module=module_name_for(path),
        source=source,
        lines=tuple(source.splitlines()),
        tree=tree,
    )
    live: list[Finding] = []
    suppressed: list[Finding] = []
    for rule in rules:
        if not rule.applies(ctx.module):
            continue
        for finding in rule.check(ctx):
            line_index = finding.line - 1
            source_line = ctx.lines[line_index] if 0 <= line_index < len(ctx.lines) else ""
            if finding.rule in suppressed_rules(source_line):
                suppressed.append(finding)
            else:
                live.append(finding)
    return live, suppressed


def run_lint(
    paths: Sequence[str | Path],
    rules: Sequence[str] | None = None,
    file_filter: Callable[[Path], bool] | None = None,
) -> LintReport:
    """Lint ``paths`` with the selected (default: all) rules."""
    selected = [get_rule(rule_id) for rule_id in rules] if rules else all_rules()
    report = LintReport(rules_run=[rule.rule_id for rule in selected])
    for path in iter_python_files(paths):
        if file_filter is not None and not file_filter(path):
            continue
        report.files_scanned += 1
        live, suppressed = lint_file(path, selected)
        report.findings.extend(live)
        report.suppressed.extend(suppressed)
    report.findings.sort()
    report.suppressed.sort()
    return report
