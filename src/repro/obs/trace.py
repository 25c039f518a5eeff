"""Span-based tracing: nested, monotonic-clock sections with JSON export.

A :class:`Tracer` records a tree of :class:`Span` objects.  Spans nest
through an explicit stack (``begin``/``end``) or the :meth:`Tracer.span`
context manager; times are *offsets from the tracer's origin* read off an
injectable monotonic clock (:func:`time.perf_counter` by default — never
the wall clock, so a tracer is legal even in wall-clock-free modules).
Tests inject a fake clock and get byte-deterministic trace documents.

The cell executor opens and closes spans around the cell, its *setup*
(sampler build and checkpoint load) and each checkpoint *epoch* (the
span between two checkpoint boundaries).  The leaves below are not timed
here: a :class:`~repro.utils.timing.TimingLedger` with this tracer
attached hands every section it measures to :meth:`Tracer.add_leaf`,
which files it under the open span at its true start — each kernel
launch and host section of the paper's Fig. 1 / Table II becomes one
leaf, on the same clock as the spans around it.  :meth:`Tracer.to_dict`
persists the tree as the cell's ``trace.json`` (a status-channel file:
never replay-compared).

:func:`chrome_trace` merges per-cell trace documents into one Chrome
trace-event JSON object (``{"traceEvents": [...]}``) that Perfetto and
``chrome://tracing`` load directly: one synthetic campaign-level event on
thread 0 spanning the slowest cell, each cell on its own named thread,
every event carrying its nesting ``depth`` in ``args`` so validators can
assert the campaign → cell → epoch → kernel hierarchy without re-deriving
containment from timestamps.

Cost model: a disabled tracer (``Tracer(enabled=False)``) reduces every
verb to an attribute check, and the executor attaches no tracer to its
ledgers unless tracing was requested — the traced-vs-untraced drain
benchmark (``BENCH_obs.json``) holds the overhead of the *enabled* path
under 3%.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "TRACE_FORMAT_VERSION",
    "Span",
    "Tracer",
    "chrome_trace",
    "trace_depth",
]

#: Layout version of persisted trace documents.
TRACE_FORMAT_VERSION: int = 1


@dataclass
class Span:
    """One named section of a trace: an interval plus nested children.

    ``start`` is seconds since the owning tracer's origin; ``duration``
    is ``None`` while the span is still open.  ``args`` carries small
    JSON-safe annotations (target, seed, call counts, ...).
    """

    name: str
    category: str = ""
    start: float = 0.0
    duration: Optional[float] = None
    args: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def end(self) -> float:
        """The span's end offset (its start while still open)."""
        return self.start + (self.duration or 0.0)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe rendering of the span subtree."""
        return {
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "duration": self.duration,
            "args": dict(self.args),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        """Rebuild a span subtree from :meth:`to_dict` output."""
        duration = payload.get("duration")
        return cls(
            name=str(payload.get("name", "")),
            category=str(payload.get("category", "")),
            start=float(payload.get("start", 0.0)),
            duration=None if duration is None else float(duration),
            args=dict(payload.get("args", {})),
            children=[cls.from_dict(c) for c in payload.get("children", ())],
        )


class Tracer:
    """Records a tree of spans against an injectable monotonic clock.

    The first ``begin`` pins the origin; every span time is an offset
    from it, so traces from different processes all start near zero and
    compose side by side in the campaign export.  A tracer is *not*
    thread-safe — the executor owns one per cell, inside one worker.
    """

    def __init__(
        self, enabled: bool = True, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.enabled = enabled
        self._clock = clock
        self._origin: Optional[float] = None
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def _now(self) -> float:
        if self._origin is None:
            self._origin = self._clock()
            return 0.0
        return self._clock() - self._origin

    def begin(self, name: str, category: str = "", **args: Any) -> Optional[Span]:
        """Open a span nested under the innermost open one."""
        if not self.enabled:
            return None
        span = Span(name=name, category=category, start=self._now(), args=dict(args))
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def end(self) -> None:
        """Close the innermost open span (no-op when nothing is open)."""
        if not self.enabled or not self._stack:
            return
        span = self._stack.pop()
        span.duration = self._now() - span.start

    def finish(self) -> None:
        """Close every still-open span (crash-path hygiene)."""
        while self._stack:
            self.end()

    @contextmanager
    def span(
        self, name: str, category: str = "", **args: Any
    ) -> Iterator[Optional[Span]]:
        """Context manager form of ``begin``/``end``."""
        opened = self.begin(name, category, **args)
        try:
            yield opened
        finally:
            if opened is not None:
                self.end()

    def add_leaf(
        self, name: str, start: float, duration: float, category: str = ""
    ) -> Optional[Span]:
        """File an already-measured interval as a leaf under the open span.

        ``start`` is a reading of this tracer's clock, converted here to
        an offset from the origin (which it pins if nothing did yet).
        """
        if not self.enabled:
            return None
        if self._origin is None:
            self._origin = start
        span = Span(
            name=name, category=category, start=start - self._origin, duration=duration
        )
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        return span

    def to_dict(self) -> Dict[str, Any]:
        """The whole trace as a JSON-safe document (open spans closed first)."""
        self.finish()
        return {
            "format_version": TRACE_FORMAT_VERSION,
            "spans": [span.to_dict() for span in self.roots],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Tracer":
        """Rebuild a (closed) tracer from :meth:`to_dict` output."""
        tracer = cls(enabled=True)
        tracer.roots = [Span.from_dict(s) for s in payload.get("spans", ())]
        return tracer


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------


def _append_events(
    span: Span, tid: int, depth: int, events: List[Dict[str, Any]]
) -> float:
    events.append(
        {
            "name": span.name,
            "cat": span.category or "span",
            "ph": "X",
            "ts": round(span.start * 1e6, 3),
            "dur": round((span.duration or 0.0) * 1e6, 3),
            "pid": 1,
            "tid": tid,
            "args": dict(span.args, depth=depth),
        }
    )
    deepest = span.end
    for child in span.children:
        deepest = max(deepest, _append_events(child, tid, depth + 1, events))
    return deepest


def chrome_trace(
    label: str, cell_traces: Sequence[Tuple[str, Dict[str, Any]]]
) -> Dict[str, Any]:
    """Merge per-cell trace documents into one Chrome trace-event object.

    ``cell_traces`` is ``[(cell label, trace document), ...]`` in the
    order the threads should appear.  Every cell goes on its own named
    thread of one process; a synthetic *campaign* event on thread 0 spans
    the slowest cell, giving the export its outermost nesting level —
    campaign (depth 0) → cell (1) → epoch (2) → kernel section (3).
    Given identical inputs the output is identical: thread ids follow the
    input order, and no clock is read here.
    """
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": f"campaign {label}"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "campaign"},
        },
    ]
    body: List[Dict[str, Any]] = []
    total = 0.0
    for offset, (cell_label, document) in enumerate(cell_traces):
        tid = offset + 1
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": cell_label},
            }
        )
        for payload in document.get("spans", ()):
            span = Span.from_dict(payload)
            total = max(total, _append_events(span, tid, 1, body))
    events.append(
        {
            "name": f"campaign {label}",
            "cat": "campaign",
            "ph": "X",
            "ts": 0.0,
            "dur": round(total * 1e6, 3),
            "pid": 1,
            "tid": 0,
            "args": {"depth": 0, "n_cells": len(cell_traces)},
        }
    )
    events.extend(body)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def trace_depth(document: Dict[str, Any]) -> int:
    """Deepest ``args.depth`` across a Chrome trace document's events."""
    depth = 0
    for event in document.get("traceEvents", ()):
        args = event.get("args", {})
        if isinstance(args, dict) and "depth" in args:
            depth = max(depth, int(args["depth"]))
    return depth
