"""The rule engine: AST walking, the project pipeline, finding reports.

One parse per file, even for the whole-program rules: the engine builds
each module's AST, annotates every node with its parent (so per-file
rules can reason about context — "is this call an argument of
``append_journal``?"), runs the per-file rules, and distils the same
tree into a :class:`~repro.lint.graph.ModuleAnalysis` for the project
rules.  A lint run is then a five-stage pipeline:

1. **analyze** every file — per-file findings + module analysis +
   suppression comments;
2. **assemble** the :class:`~repro.lint.graph.ProjectGraph` from the
   module analyses;
3. run the **project rules** (REP008 layering, REP009 kernel purity,
   REP010 write protocol) over the graph, scoping each finding by path;
4. apply **suppressions**, recording which comment absorbed which
   finding;
5. emit **REP011** for every disable comment (or code within one) that
   absorbed nothing.

``lint_source`` runs the same pipeline over a single-module project, so
single-file behaviour is the whole-program behaviour restricted to what
one file can show.

Suppressions
------------
``# repro-lint: disable=REP001`` (or ``disable=REP001,REP004``, or
``disable=all``) suppresses matching findings on its own line; a comment
alone on a line suppresses the line below it, so long justifications fit::

    # repro-lint: disable=REP005 -- (L, E) table built once at init
    table = loop_radii[:, None] + env_radii[None, :]

``# repro-lint: disable-file=REP005`` anywhere in a file suppresses the
rule for the whole file.  Suppressed findings are retained (flagged
``suppressed=True``) so ``repro-lint --show-suppressed`` can audit them.
Comments are read from real COMMENT tokens (via :mod:`tokenize`), so the
directive *text* appearing in a docstring — as it does in this one —
suppresses nothing and is invisible to REP011.
"""

from __future__ import annotations

import ast
import dataclasses
import io as _io
import re
import tokenize
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.lint.config import LintConfig, load_config, package_relpath
from repro.lint.graph import ModuleAnalysis, ProjectGraph, analyze_module

__all__ = [
    "Finding",
    "LintError",
    "lint_source",
    "lint_paths",
    "run_lint",
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
    suppressed: bool = False

    def render(self) -> str:
        """The canonical one-line report form."""
        mark = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{mark}"


class _Suppression:
    """One ``# repro-lint: disable`` comment and its usage bookkeeping."""

    __slots__ = ("line", "col", "kind", "codes", "own_line", "used")

    def __init__(
        self,
        line: int,
        col: int,
        kind: str,
        codes: Tuple[str, ...],
        own_line: bool,
    ) -> None:
        self.line = line
        self.col = col
        self.kind = kind  # "disable" | "disable-file"
        self.codes = codes  # upper-cased, source order, deduplicated
        self.own_line = own_line
        self.used: Set[str] = set()


_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_,\s]+)"
)


def _parse_directive(
    text: str, line: int, col: int, own_line: bool
) -> Optional[_Suppression]:
    match = _SUPPRESS_RE.search(text)
    if not match:
        return None
    codes: List[str] = []
    for raw in match.group(2).split(","):
        code = raw.strip().split()[0].upper() if raw.strip() else ""
        if code and code not in codes:
            codes.append(code)
    if not codes:
        return None
    return _Suppression(line, col, match.group(1), tuple(codes), own_line)


def _extract_suppressions(source: str) -> List[_Suppression]:
    """Every suppression directive, from real COMMENT tokens.

    Falls back to a line-regex scan when the file fails to tokenize
    (the AST parse will have raised first in practice).
    """
    suppressions: List[_Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(_io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            own_line = text[: match.start()].strip() == ""
            parsed = _parse_directive(text, lineno, match.start(), own_line)
            if parsed is not None:
                suppressions.append(parsed)
        return suppressions
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        own_line = token.line[: token.start[1]].strip() == ""
        parsed = _parse_directive(
            token.string, token.start[0], token.start[1], own_line
        )
        if parsed is not None:
            suppressions.append(parsed)
    return suppressions


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


# ---------------------------------------------------------------------------
# Stage 1: per-file analysis
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _FileRecord:
    """One file's per-file results."""

    display_path: str  #: the path findings report (as the caller gave it)
    relpath: str
    raw: List[Tuple[str, int, int, str]]  #: (rule, line, col, message)
    analysis: ModuleAnalysis
    suppressions: List[_Suppression]


def _analyze_file(
    source: str,
    filename: Union[str, Path],
    relpath: str,
    config: LintConfig,
) -> _FileRecord:
    """Parse once; run per-file rules and distil the module analysis."""
    from repro.lint.rules import get_rules

    try:
        tree = ast.parse(source, filename=str(filename))
    except SyntaxError as exc:
        raise LintError(f"{filename}: syntax error: {exc}") from exc
    _annotate_parents(tree)

    raw: List[Tuple[str, int, int, str]] = []
    for rule in get_rules():
        if not config.rule(rule.code).applies_to(relpath):
            continue
        for line, col, message in rule.check(tree, relpath, config):
            raw.append((rule.code, line, col, message))

    return _FileRecord(
        display_path=str(filename),
        relpath=relpath,
        raw=raw,
        analysis=analyze_module(tree, relpath),
        suppressions=_extract_suppressions(source),
    )


# ---------------------------------------------------------------------------
# Stages 2–5: assembly, project rules, suppressions, REP011
# ---------------------------------------------------------------------------


def _project_findings(
    records: Sequence[_FileRecord], config: LintConfig
) -> List[Tuple[_FileRecord, str, int, int, str]]:
    """Whole-program rule findings attached to their owning records."""
    from repro.lint.rules import get_project_rules

    graph = ProjectGraph([record.analysis for record in records])
    by_relpath: Dict[str, _FileRecord] = {r.relpath: r for r in records}
    found: List[Tuple[_FileRecord, str, int, int, str]] = []
    for rule in get_project_rules():
        rule_config = config.rule(rule.code)
        if not rule_config.enabled:
            continue
        for relpath, line, col, message in rule.check_project(graph, config):
            record = by_relpath.get(relpath)
            if record is None or not rule_config.applies_to(relpath):
                continue
            found.append((record, rule.code, line, col, message))
    return found


def _apply_suppressions(
    record: _FileRecord,
    raw: Iterable[Tuple[str, int, int, str]],
) -> List[Finding]:
    """Findings for one file with suppressions applied and usage recorded."""
    by_line: Dict[int, List[_Suppression]] = {}
    file_wide: List[_Suppression] = []
    for suppression in record.suppressions:
        if suppression.kind == "disable-file":
            file_wide.append(suppression)
            continue
        by_line.setdefault(suppression.line, []).append(suppression)
        if suppression.own_line:
            by_line.setdefault(suppression.line + 1, []).append(suppression)

    findings: List[Finding] = []
    for code, line, col, message in raw:
        suppressed = False
        for suppression in by_line.get(line, []) + file_wide:
            if code == "REP011":
                # Hygiene findings are only silenced by an explicit
                # REP011 — a stale `disable=all` must not absorb the
                # report of its own staleness.
                matched = [c for c in suppression.codes if c == "REP011"]
            else:
                matched = [c for c in suppression.codes if c in ("ALL", code)]
            if matched:
                suppressed = True
                suppression.used.update(matched)
        findings.append(
            Finding(
                rule=code,
                path=record.display_path,
                line=line,
                col=col,
                message=message,
                suppressed=suppressed,
            )
        )
    return findings


def _stale_suppression_rows(
    record: _FileRecord,
) -> List[Tuple[str, int, int, str]]:
    """REP011 raw findings: (code-within-comment) pairs that absorbed nothing."""
    rows: List[Tuple[str, int, int, str]] = []
    for suppression in record.suppressions:
        for code in suppression.codes:
            if code == "REP011":
                # The escape hatch must not recurse: suppressing REP011
                # is a standing decision, not a per-finding exception.
                continue
            if code in suppression.used:
                continue
            where = (
                "in this file"
                if suppression.kind == "disable-file"
                else "on this line"
            )
            rows.append(
                (
                    "REP011",
                    suppression.line,
                    suppression.col,
                    f"suppression `{suppression.kind}={code}` matches no "
                    f"finding {where}; delete the code (or the whole "
                    "comment) so the allowlist only ever shrinks",
                )
            )
    return rows


def _assemble(
    records: Sequence[_FileRecord], config: LintConfig
) -> List[Finding]:
    """Stages 2–5 over analysed files; returns the final sorted findings."""
    per_record: Dict[int, List[Tuple[str, int, int, str]]] = {
        id(record): list(record.raw) for record in records
    }
    for record, code, line, col, message in _project_findings(records, config):
        per_record[id(record)].append((code, line, col, message))

    findings: List[Finding] = []
    for record in records:
        rows = sorted(per_record[id(record)], key=lambda r: (r[1], r[2], r[0]))
        file_findings = _apply_suppressions(record, rows)
        if config.rule("REP011").applies_to(record.relpath):
            stale = _stale_suppression_rows(record)
            file_findings.extend(_apply_suppressions(record, stale))
        findings.extend(file_findings)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def lint_source(
    source: str,
    filename: Union[str, Path],
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Lint one module's source text; returns findings (suppressed included).

    ``filename`` locates the module for path-scoped rules — synthetic
    names like ``repro/runtime/foo.py`` are fine for fixtures.  The
    whole-program rules run over the single-module project graph, so
    anything one file can violate on its own (a layering import, an
    impure kernel helper in the same module) is reported here too.
    """
    config = config or LintConfig()
    record = _analyze_file(source, filename, package_relpath(filename), config)
    return _assemble([record], config)


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


def lint_paths(
    paths: Sequence[Union[str, Path]],
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Lint every Python file under ``paths`` as one program.

    Returns all findings, suppressed ones included.
    """
    config = config or LintConfig()
    records: List[_FileRecord] = []
    for path in iter_python_files(paths):
        try:
            source = path.read_bytes().decode("utf8")
        except (OSError, UnicodeDecodeError) as exc:
            raise LintError(f"cannot read {path}: {exc}") from exc
        records.append(_analyze_file(source, path, package_relpath(path), config))
    return _assemble(records, config)


def run_lint(
    paths: Sequence[Union[str, Path]],
    config: Optional[LintConfig] = None,
    pyproject: Optional[Union[str, Path]] = None,
) -> List[Finding]:
    """Lint ``paths`` with the repo policy; the one-call programmatic API.

    When ``config`` is not given, the policy is resolved through
    :func:`repro.lint.config.load_config` (merging ``pyproject`` overrides
    if that file exists).  Returns all findings; callers gate on the
    unsuppressed subset: ``[f for f in findings if not f.suppressed]``.
    """
    if config is None:
        config = load_config(pyproject)
    return lint_paths(paths, config)
