"""Wall-clock timing utilities used by the profiling experiments.

The paper profiles the CPU-only implementation (Fig. 1) and the GPU kernels
(Table II).  :class:`TimingLedger` is the one timing instrument: code
sections are timed by name, once, and every other view derives from that
measurement — the ledger renders percentage breakdowns in the style of the
paper's tables, the SIMT profiler reads its records, and an attached
tracer receives each measured section as a leaf span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Tuple

__all__ = ["TimingLedger", "TimingRecord"]


@dataclass
class TimingRecord:
    """Accumulated timing for one named section."""

    name: str
    calls: int = 0
    total_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        """Mean seconds per call (0 when never called)."""
        return self.total_seconds / self.calls if self.calls else 0.0


@dataclass
class TimingLedger:
    """Accumulates named timing sections and renders breakdown tables."""

    records: Dict[str, TimingRecord] = field(default_factory=dict)
    _tracer: Any = field(default=None, init=False, repr=False, compare=False)
    _category: str = field(default="", init=False, repr=False, compare=False)

    def attach(self, tracer: Any, category: str) -> None:
        """Hand each section measured from now on to ``tracer``.

        Duck-typed: ``tracer.add_leaf(name, start, duration, category)``
        gets the section's :func:`time.perf_counter` start.  Data flows one
        way only — nothing read from the tracer feeds the ledger.
        """
        self._tracer = tracer
        self._category = category

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Context manager timing the enclosed block under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - start
            self.add(name, seconds)
            if self._tracer is not None:
                self._tracer.add_leaf(name, start, seconds, self._category)

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Add ``seconds`` (over ``calls`` calls) to the record for ``name``."""
        rec = self.records.setdefault(name, TimingRecord(name))
        rec.calls += calls
        rec.total_seconds += seconds

    def merge(self, other: "TimingLedger") -> None:
        """Fold another ledger's records into this one."""
        for name, rec in other.records.items():
            self.add(name, rec.total_seconds, rec.calls)

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-safe rendering, keys sorted: name -> {calls, total_seconds}.

        Round-trips losslessly through :meth:`from_dict` — including call
        counts, so ledgers serialised into the store re-aggregate (via
        :meth:`merge`) with correct per-call means.
        """
        return {
            name: {
                "calls": self.records[name].calls,
                "total_seconds": self.records[name].total_seconds,
            }
            for name in sorted(self.records)
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Mapping[str, float]]) -> "TimingLedger":
        """Rebuild a ledger from :meth:`to_dict` output."""
        ledger = cls()
        for name in sorted(payload):
            rec = payload[name]
            ledger.add(
                name, float(rec.get("total_seconds", 0.0)), int(rec.get("calls", 0))
            )
        return ledger

    def total(self) -> float:
        """Total seconds across every section."""
        return sum(rec.total_seconds for rec in self.records.values())

    def fractions(self) -> Dict[str, float]:
        """Per-section fraction of total time (empty ledger -> empty dict)."""
        total = self.total()
        if total <= 0.0:
            return {name: 0.0 for name in self.records}
        return {
            name: rec.total_seconds / total for name, rec in self.records.items()
        }

    def as_rows(self) -> List[Tuple[str, int, float, float]]:
        """Rows of (name, calls, total_seconds, fraction), sorted by time."""
        fracs = self.fractions()
        rows = [
            (rec.name, rec.calls, rec.total_seconds, fracs[rec.name])
            for rec in self.records.values()
        ]
        rows.sort(key=lambda row: row[2], reverse=True)
        return rows

    def render(self, title: str = "Timing breakdown") -> str:
        """Render a plain-text table in the style of the paper's Table II."""
        lines = [title, "-" * len(title)]
        lines.append(f"{'section':<28}{'calls':>8}{'seconds':>14}{'% time':>9}")
        for name, calls, seconds, frac in self.as_rows():
            lines.append(f"{name:<28}{calls:>8}{seconds:>14.4f}{100.0 * frac:>8.2f}%")
        lines.append(f"{'TOTAL':<28}{'':>8}{self.total():>14.4f}{100.0:>8.2f}%")
        return "\n".join(lines)

    def grouped_fractions(self, groups: Mapping[str, str]) -> Dict[str, float]:
        """Aggregate fractions by mapping section name -> group label.

        Sections not present in ``groups`` are aggregated under ``"other"``.
        """
        total = self.total()
        out: Dict[str, float] = {}
        for name, rec in self.records.items():
            label = groups.get(name, "other")
            out[label] = out.get(label, 0.0) + rec.total_seconds
        if total > 0.0:
            out = {k: v / total for k, v in out.items()}
        return out
