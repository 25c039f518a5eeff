"""REP004 — wall-clock readings must never reach replay-compared payloads.

Kill-and-redrain equality is the runtime's core guarantee: a campaign
killed at any instant and re-drained must reproduce byte-identical
ledgers and checkpoints.  One ``time.time()`` inside a journal record or
checkpoint field breaks the equality on every replay — the classic bug
this repo shipped twice before the rule existed.

Two tiers:

* modules whose entire output is replay-compared (the checkpoint writer,
  the migration broker and policy — see
  :data:`repro.lint.config.WALLCLOCK_FREE_MODULES`) may not read the wall
  clock at all;
* elsewhere in the store-backed subsystems, wall-clock calls are flagged
  only when they appear lexically inside an argument of a payload writer
  (``append_journal``, ``write_event``, ``write_packet``,
  ``save_checkpoint``, ``write_json_atomic``, ``write_npz_atomic``, ...).

Timestamps belong in the *status documents* — the mutable, non-replayed
metadata channel that already carries pids and attempt counters.
Monotonic duration clocks (``time.perf_counter``, ``time.monotonic``)
are not wall clocks and are always fine.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import WALLCLOCK_FREE_MODULES
from repro.lint.engine import ancestors, call_name
from repro.lint.rules.base import Rule, Violation

__all__ = ["WallClockRule"]

#: Calls that read the wall clock.
_WALLCLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "date.today",
    }
)

#: Callees whose arguments become replay-compared payloads.
_PAYLOAD_WRITERS = frozenset(
    {
        "append_journal",
        "write_event",
        "write_packet",
        "save_checkpoint",
        "save_shard_result",
        "write_json_atomic",
        "write_bytes_atomic",
        "write_npz_atomic",
    }
)


def _inside_payload_writer(node: ast.AST) -> str:
    """Name of the enclosing payload-writer call, or ``""``."""
    for ancestor in ancestors(node):
        if isinstance(ancestor, ast.Call):
            leaf = call_name(ancestor).split(".")[-1]
            if leaf in _PAYLOAD_WRITERS:
                return leaf
    return ""


class WallClockRule(Rule):
    code = "REP004"
    name = "wall-clock-in-payload"
    summary = (
        "replay-compared payloads (journal, ledger, checkpoint) must not "
        "embed wall-clock readings; stamp the status channel instead"
    )

    def check(self, tree: ast.AST, relpath: str) -> Iterator[Violation]:
        module_is_replay_critical = relpath in WALLCLOCK_FREE_MODULES
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = call_name(node)
            if dotted not in _WALLCLOCK:
                continue
            if module_is_replay_critical:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"`{dotted}()` in a replay-critical module — everything "
                    f"{relpath} writes is compared byte-for-byte across "
                    "redrains; keep wall-clock out entirely",
                )
                continue
            writer = _inside_payload_writer(node)
            if writer:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"`{dotted}()` inside a `{writer}(...)` payload makes "
                    "replays non-identical; move the stamp to the shard "
                    "status document (the non-replayed metadata channel)",
                )
