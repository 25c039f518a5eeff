"""Kernel and memcpy profiler (the simulated CUDA Visual Profiler).

A view over the :class:`~repro.utils.timing.TimingLedger` the engine books
into: kernel launches are measured ledger sections, and each modelled
host/device transfer is a ledger record under its
:class:`~repro.simt.memory.MemcpyKind` label.  The profiler renders both in
the layout of the paper's Table II (category, method, number of calls, GPU
time, % GPU time), so the same rows come from a live backend or from a
kernel ledger loaded back from the run store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.simt.kernel import KERNELS_BY_SECTION, KernelLaunch
from repro.simt.memory import MEMCPY_LABELS
from repro.utils.timing import TimingLedger, TimingRecord

__all__ = ["KernelProfiler", "ProfileRow"]


@dataclass(frozen=True)
class ProfileRow:
    """One row of the profiling report."""

    category: str
    method: str
    calls: int
    gpu_seconds: float
    fraction: float


def _label(section: str) -> str:
    """The Table II label of a ledger section (``"CCD"`` -> ``"[CCD]"``)."""
    spec = KERNELS_BY_SECTION.get(section)
    return spec.name if spec is not None else section


@dataclass
class KernelProfiler:
    """Kernel and memcpy rows read off a ledger, plus kept launch geometry."""

    ledger: TimingLedger = field(default_factory=TimingLedger)
    launches: List[KernelLaunch] = field(default_factory=list)
    keep_launches: bool = False

    def _records(self, memcpy: bool) -> List[TimingRecord]:
        """Kernel (``memcpy=False``) or transfer records, longest first."""
        records = [
            rec
            for name, rec in self.ledger.records.items()
            if (name in MEMCPY_LABELS) == memcpy
        ]
        return sorted(records, key=lambda rec: rec.total_seconds, reverse=True)

    @property
    def kernel_seconds(self) -> Dict[str, float]:
        """Seconds per kernel label, a read-only view of the ledger records."""
        return {_label(rec.name): rec.total_seconds for rec in self._records(False)}

    @property
    def kernel_calls(self) -> Dict[str, int]:
        """Calls per kernel label, a read-only view of the ledger records."""
        return {_label(rec.name): rec.calls for rec in self._records(False)}

    def record_launch(self, launch: KernelLaunch) -> None:
        """Keep one launch's geometry (only with ``keep_launches``)."""
        if self.keep_launches:
            self.launches.append(launch)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def total_kernel_seconds(self) -> float:
        """Total time spent inside kernels."""
        return sum(rec.total_seconds for rec in self._records(False))

    def total_transfer_seconds(self) -> float:
        """Total modelled time of host/device transfers."""
        return sum(rec.total_seconds for rec in self._records(True))

    def total_gpu_seconds(self) -> float:
        """Total simulated GPU time (kernels + transfers)."""
        return self.ledger.total()

    def rows(self) -> List[ProfileRow]:
        """Rows of the Table II-style breakdown, sorted by time within category."""
        total = self.total_gpu_seconds()
        return [
            ProfileRow(
                category=category,
                method=_label(rec.name),
                calls=rec.calls,
                gpu_seconds=rec.total_seconds,
                fraction=rec.total_seconds / total if total > 0 else 0.0,
            )
            for category, memcpy in (("Kernel", False), ("Mem sync", True))
            for rec in self._records(memcpy)
        ]

    def kernel_fraction(self, name: str) -> float:
        """Fraction of total simulated GPU time spent in one kernel."""
        total = self.total_gpu_seconds()
        return self.kernel_seconds.get(name, 0.0) / total if total > 0 else 0.0

    def render(self, title: str = "GPU task breakdown") -> str:
        """Render a plain-text table mirroring the paper's Table II."""
        lines = [title, "-" * len(title)]
        lines.append(
            f"{'Category':<10}{'Method':<32}{'#calls':>8}{'GPU (s)':>12}{'% GPU':>9}"
        )
        for row in self.rows():
            lines.append(
                f"{row.category:<10}{row.method:<32}{row.calls:>8}"
                f"{row.gpu_seconds:>12.4f}{100.0 * row.fraction:>8.2f}%"
            )
        lines.append(
            f"{'TOTAL':<10}{'':<32}{'':>8}{self.total_gpu_seconds():>12.4f}{100.0:>8.2f}%"
        )
        return "\n".join(lines)
