"""The rule protocol shared by every rule family.

A :class:`Rule` is a stateless object with a ``REPxxx`` code and a
``check`` method yielding ``(line, col, message)`` triples over one
parent-annotated AST.  Path scoping lives in the engine; rules only
decide whether something violates their invariant.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

__all__ = ["Rule", "Violation"]

#: One raw violation: (line, col, message).
Violation = Tuple[int, int, str]


class Rule:
    """Base class of every lint rule."""

    #: Stable machine code, e.g. ``"REP001"``.
    code: str = ""
    #: Short kebab-case slug, e.g. ``"naked-rng"``.
    name: str = ""
    #: One-line statement of the invariant the rule enforces.
    summary: str = ""

    def check(self, tree: ast.AST, relpath: str) -> Iterator[Violation]:
        """Yield every violation in ``tree`` (already parent-annotated)."""
        raise NotImplementedError
