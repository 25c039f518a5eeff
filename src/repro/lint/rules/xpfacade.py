"""REP007 — ported kernels must do their array math through ``xp``.

The :mod:`repro.xp` facade's contract is that a generic kernel — any
function registered with :func:`repro.xp.dispatch.array_kernel` — runs
unchanged on every namespace it is bound to.  A direct ``np.`` call
inside such a function silently pins that operation to numpy: under the
jax tier the call becomes a trace-time host round trip (or a crash on a
traced argument), and the "one kernel codebase" property is lost.

Flags, inside ``scoring/``, ``moscem/``, ``geometry/``, ``closure/`` and
``xp/``: any ``np.<attr>`` / ``numpy.<attr>`` access lexically inside a
function decorated with ``@array_kernel``.  Pure scalar constants
(``np.pi``, ``np.inf``, ``np.nan``, ``np.e``, ``np.newaxis``) are allowed
— they are plain Python floats/sentinels, identical under every
namespace.

Host orchestration (block loops, totals buffers, the environment cell
grid) is *supposed* to be numpy and lives outside the decorated
functions, so it is never flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.rules.base import Rule, Violation

__all__ = ["XpFacadeRule"]

#: Scalar constants that are identical under every namespace.
_SCALAR_CONSTANTS = frozenset({"pi", "e", "inf", "nan", "newaxis", "euler_gamma"})

#: Names the numpy module is conventionally imported as.
_NUMPY_NAMES = frozenset({"np", "numpy"})


def _dotted(node: ast.AST) -> str:
    """Dotted name of an expression (``""`` when it is not a plain path)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_array_kernel_decorator(decorator: ast.expr) -> bool:
    """Whether a decorator expression is ``array_kernel`` (bare or called)."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    dotted = _dotted(target)
    return dotted.split(".")[-1] == "array_kernel"


class XpFacadeRule(Rule):
    code = "REP007"
    name = "numpy-in-kernel"
    summary = (
        "functions registered with @array_kernel must do all array math "
        "through their xp namespace parameter, not numpy directly"
    )

    def check(self, tree: ast.AST, relpath: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not any(_is_array_kernel_decorator(d) for d in node.decorator_list):
                continue
            yield from self._check_kernel(node)

    def _check_kernel(self, fn: ast.AST) -> Iterator[Violation]:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Attribute):
                continue
            if not (
                isinstance(node.value, ast.Name)
                and node.value.id in _NUMPY_NAMES
            ):
                continue
            if node.attr in _SCALAR_CONSTANTS:
                continue
            root = node.value.id
            yield (
                node.lineno,
                node.col_offset,
                f"`{root}.{node.attr}` inside @array_kernel function "
                f"`{fn.name}` pins the operation to numpy; use the `xp` "
                "namespace parameter so the kernel compiles under every "
                "backend tier",
            )
