"""REP003 — deterministic iteration and serialisation ordering.

Two campaigns with the same spec must produce byte-identical artefacts.
Anything that iterates a ``set`` or a directory listing in hash/OS order
and feeds the result toward a file, a ledger or a journal payload makes
the bytes depend on memory layout and filesystem mood:

* iterating a set (literal, comprehension or ``set(...)`` call) or a
  ``.glob`` / ``.iterdir`` / ``os.listdir`` / ``os.scandir`` result in a
  ``for`` loop or comprehension without wrapping it in ``sorted(...)`` —
  unless the consumer is order-insensitive (``set``, ``len``, ``sum``,
  ``min``, ``max``, ``any``, ``all``, ``frozenset``);
* ``json.dumps`` without ``sort_keys=True`` — dict insertion order is
  deterministic per process, but two code paths building "the same"
  document in different key order serialise different bytes.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.lint.engine import ancestors, call_name
from repro.lint.rules.base import Rule, Violation

__all__ = ["UnorderedIterationRule"]

#: Attribute calls whose results arrive in OS/filesystem order.
_OS_ORDERED_METHODS = frozenset({"glob", "rglob", "iterdir"})

#: Module-level calls whose results arrive in OS order.
_OS_ORDERED_CALLS = frozenset({"os.listdir", "os.scandir"})

#: Wrapping calls that make iteration order irrelevant.
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "set", "frozenset", "len", "sum", "min", "max", "any", "all"}
)


def _unordered_reason(expr: ast.expr) -> Optional[str]:
    """Why ``expr`` yields elements in non-deterministic order, or None."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "a set iterates in hash order"
    if isinstance(expr, ast.Call):
        dotted = call_name(expr)
        leaf = dotted.split(".")[-1] if dotted else ""
        if dotted == "set":
            return "a set iterates in hash order"
        if dotted in _OS_ORDERED_CALLS or leaf in _OS_ORDERED_METHODS:
            return f"`{leaf}` yields entries in filesystem order"
    return None


def _consumed_order_insensitively(node: ast.AST) -> bool:
    """Whether the iteration feeds a consumer that ignores element order."""
    for ancestor in ancestors(node):
        if isinstance(ancestor, ast.Call):
            if call_name(ancestor) in _ORDER_INSENSITIVE:
                return True
            return False
        if isinstance(ancestor, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            continue
        return False
    return False


class UnorderedIterationRule(Rule):
    code = "REP003"
    name = "unordered-iteration"
    summary = (
        "iteration feeding artefacts must be sorted(); json.dumps must "
        "pass sort_keys=True"
    )

    def check(self, tree: ast.AST, relpath: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters = [generator.iter for generator in node.generators]
            elif isinstance(node, ast.Call) and call_name(node) == "json.dumps":
                sort_keys = next(
                    (k.value for k in node.keywords if k.arg == "sort_keys"),
                    None,
                )
                if not (
                    isinstance(sort_keys, ast.Constant) and sort_keys.value is True
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        "json.dumps without sort_keys=True serialises in "
                        "insertion order; replayed documents must be a pure "
                        "function of their payload",
                    )
                continue

            for iter_expr in iters:
                reason = _unordered_reason(iter_expr)
                if reason is None:
                    continue
                # A comprehension directly inside sorted()/set()/len()/...
                # consumes the elements order-insensitively.
                if not isinstance(node, (ast.For, ast.AsyncFor)) and (
                    _consumed_order_insensitively(node)
                ):
                    continue
                yield (
                    iter_expr.lineno,
                    iter_expr.col_offset,
                    f"{reason}; wrap the iterable in sorted(...) before it "
                    "feeds results, payloads or files",
                )
