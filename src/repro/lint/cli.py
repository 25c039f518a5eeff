"""``repro-lint`` — the command-line front end of the determinism linter.

Exit codes follow the usual linter convention:

* ``0`` — no findings;
* ``1`` — at least one finding;
* ``2`` — the run itself failed (unreadable file, syntax error, bad args).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.lint.engine import LintError, lint_paths
from repro.lint.rules import RULES

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Determinism linter for the repro codebase: seeded RNG, atomic "
            "writes, ordered iteration, wall-clock-free replay payloads, "
            "numpy-free array kernels."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.code}  {rule.name}: {rule.summary}")
        return 0

    try:
        findings = lint_paths(args.paths)
    except LintError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    if args.format == "sarif":
        from repro.lint.sarif import to_sarif

        print(to_sarif(findings))
    else:
        for finding in findings:
            print(finding.render())
    if findings:
        print(f"repro-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
