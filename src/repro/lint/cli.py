"""``repro-lint`` — the command-line front end of the determinism linter.

Exit codes follow the usual linter convention:

* ``0`` — no unsuppressed findings;
* ``1`` — at least one unsuppressed finding;
* ``2`` — the run itself failed (unreadable file, syntax error, bad args).

Every run parses the whole tree; ``repro-lint src`` takes a few seconds.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.lint.config import load_config
from repro.lint.engine import Finding, LintError, lint_paths
from repro.lint.rules import get_project_rules, get_rules

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Whole-program determinism linter for the repro codebase: "
            "seeded RNG, atomic writes, ordered iteration, wall-clock "
            "hygiene, streaming hot paths, checkpoint schema pinning, "
            "architecture layering, jit-kernel purity, durable-write "
            "protocol, suppression hygiene."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print findings silenced by repro-lint: disable comments",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--pyproject",
        default="pyproject.toml",
        help="pyproject.toml holding [tool.repro-lint] overrides",
    )
    return parser


def _report(findings: List[Finding], fmt: str, show_suppressed: bool) -> None:
    if fmt == "sarif":
        from repro.lint.sarif import to_sarif

        # SARIF always carries the suppressed findings (as dismissals).
        print(to_sarif(findings))
        return
    visible = [f for f in findings if show_suppressed or not f.suppressed]
    if fmt == "json":
        print(
            json.dumps(
                [
                    {
                        "rule": f.rule,
                        "path": f.path,
                        "line": f.line,
                        "col": f.col,
                        "message": f.message,
                        "suppressed": f.suppressed,
                    }
                    for f in visible
                ],
                indent=2,
                sort_keys=True,
            )
        )
        return
    for finding in visible:
        print(finding.render())


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        per_file = [(r.code, r.name, r.summary, "") for r in get_rules()]
        whole = [
            (r.code, r.name, r.summary, " [whole-program]")
            for r in get_project_rules()
        ]
        for code, name, summary, tag in sorted(per_file + whole):
            print(f"{code}  {name}: {summary}{tag}")
        return 0

    try:
        findings = lint_paths(args.paths, load_config(args.pyproject))
    except LintError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    _report(findings, args.format, args.show_suppressed)
    unsuppressed = [f for f in findings if not f.suppressed]
    if unsuppressed:
        suppressed_count = len(findings) - len(unsuppressed)
        tail = f" ({suppressed_count} suppressed)" if suppressed_count else ""
        print(
            f"repro-lint: {len(unsuppressed)} finding(s){tail}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
