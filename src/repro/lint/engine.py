"""The rule engine: AST walking and finding reports.

One parse per file: the engine builds each module's AST, annotates every
node with its parent (so rules can reason about context — "is this call
an argument of ``append_journal``?") and runs every rule whose policy
(:data:`repro.lint.config.RULE_CONFIG`) patrols the module's path.
There are no line suppressions: a sanctioned exception is a path in the
rule's ``allow`` list, where the policy table documents it.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Union

from repro.lint.config import RULE_CONFIG, package_relpath

__all__ = [
    "Finding",
    "LintError",
    "lint_source",
    "lint_paths",
    "iter_python_files",
]


class LintError(RuntimeError):
    """A file could not be linted (unreadable or syntactically invalid)."""


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """The canonical one-line report form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _annotate_parents(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._repro_parent = node  # type: ignore[attr-defined]


def parent_of(node: ast.AST) -> Optional[ast.AST]:
    """The parent node recorded by the engine's pre-pass (None at module)."""
    return getattr(node, "_repro_parent", None)


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    """The node's ancestor chain, innermost first."""
    current = parent_of(node)
    while current is not None:
        yield current
        current = parent_of(current)


def call_name(node: ast.Call) -> str:
    """Dotted name of a call's callee: ``np.random.default_rng`` or ``open``.

    Non-name callees (subscripts, calls returning callables) yield ``""``.
    """
    parts: List[str] = []
    target = node.func
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if isinstance(target, ast.Name):
        parts.append(target.id)
        return ".".join(reversed(parts))
    return ""


def lint_source(source: str, filename: Union[str, Path]) -> List[Finding]:
    """Lint one module's source text; returns its findings in source order.

    ``filename`` locates the module for path-scoped rules — synthetic
    names like ``repro/runtime/foo.py`` are fine for fixtures.
    """
    from repro.lint.rules import RULES

    try:
        tree = ast.parse(source, filename=str(filename))
    except SyntaxError as exc:
        raise LintError(f"{filename}: syntax error: {exc}") from exc
    _annotate_parents(tree)

    relpath = package_relpath(filename)
    findings = [
        Finding(rule.code, str(filename), line, col, message)
        for rule in RULES
        if RULE_CONFIG[rule.code].applies_to(relpath)
        for line, col, message in rule.check(tree, relpath)
    ]
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def iter_python_files(paths: Sequence[Union[str, Path]]) -> Iterator[Path]:
    """Python files under ``paths`` (files pass through), sorted."""
    seen: Set[Path] = set()
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            candidates: Iterable[Path] = sorted(entry.rglob("*.py"))
        elif entry.is_file():
            candidates = [entry]
        else:
            raise LintError(f"no such file or directory: {entry}")
        for candidate in candidates:
            if any(part.startswith(".") for part in candidate.parts):
                continue
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def lint_paths(paths: Sequence[Union[str, Path]]) -> List[Finding]:
    """Lint every Python file under ``paths``; findings sorted by location."""
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        try:
            source = path.read_bytes().decode("utf8")
        except (OSError, UnicodeDecodeError) as exc:
            raise LintError(f"cannot read {path}: {exc}") from exc
        findings.extend(lint_source(source, path))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
