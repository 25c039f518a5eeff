"""REP002 — durable writes must go through the atomic helpers.

The run store is a multi-process coordination substrate: workers, the
daemon and status pollers all read files other processes are writing.
The only crash-safe write is tmp-file + ``os.replace`` — exactly what
:mod:`repro.io` provides — so inside the store-backed subsystems
(``runtime/``, ``islands/``, ``api/``, ``serve/``, ``obs/``) any direct
``open(..., "w")``, ``Path.write_text`` / ``write_bytes`` or
``np.save*``-to-path call is a torn-read bug waiting for an ill-timed
kill.

Append mode (``"a"``) is deliberately exempt: the journal's single-write
line appends are the sanctioned append-only pattern.  In-memory
serialisation (``np.savez_compressed(buffer, ...)``) is exempt because no
file is touched; the heuristic treats a first argument named ``buf*`` or
a direct ``BytesIO()`` call as in-memory.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.engine import call_name
from repro.lint.rules.base import Rule, Violation

__all__ = ["NonAtomicWriteRule"]

_NP_SAVERS = frozenset(
    {"np.save", "np.savez", "np.savez_compressed", "numpy.save", "numpy.savez",
     "numpy.savez_compressed"}
)

_HELP = "route the write through repro.io (atomic tmp-file + os.replace)"


def _mode_argument(node: ast.Call) -> Optional[ast.expr]:
    if len(node.args) >= 2:
        return node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return None


def _is_memory_buffer(arg: ast.expr) -> bool:
    if isinstance(arg, ast.Name) and arg.id.lower().startswith("buf"):
        return True
    if isinstance(arg, ast.Call):
        return call_name(arg).split(".")[-1] == "BytesIO"
    return False


class NonAtomicWriteRule(Rule):
    code = "REP002"
    name = "non-atomic-write"
    summary = (
        "store-backed subsystems must write durable files atomically "
        "via repro.io, never with open('w')/write_text/np.save"
    )

    def check(self, tree: ast.AST, relpath: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = call_name(node)
            leaf = dotted.split(".")[-1] if dotted else ""

            if dotted == "open":
                mode = _mode_argument(node)
                if (
                    isinstance(mode, ast.Constant)
                    and isinstance(mode.value, str)
                    and any(flag in mode.value for flag in ("w", "x", "+"))
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"`open(..., {mode.value!r})` writes in place — a "
                        f"mid-write kill leaves a torn file; {_HELP}",
                    )
                continue

            if leaf in ("write_text", "write_bytes") and "." in dotted:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"`.{leaf}()` replaces the file non-atomically; {_HELP}",
                )
                continue

            if dotted in _NP_SAVERS:
                if node.args and _is_memory_buffer(node.args[0]):
                    continue
                yield (
                    node.lineno,
                    node.col_offset,
                    f"`{dotted}` straight to a path is non-atomic; serialise "
                    f"via repro.io.write_npz_atomic (or into a BytesIO)",
                )
                continue

            if dotted in ("json.dump", "pickle.dump"):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"`{dotted}` streams into an open handle non-atomically; "
                    f"{_HELP}",
                )
