"""Kernel and memcpy profiler (the simulated CUDA Visual Profiler).

Reads per-kernel execution time off the :class:`~repro.utils.timing.
TimingLedger` the engine times its launches into, accumulates the modelled
per-category transfer statistics during a GPU-backend run, and renders
both in the layout of the paper's Table II (category, method, number of
calls, GPU time, % GPU time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.simt.kernel import KERNELS_BY_SECTION, KernelLaunch
from repro.simt.memory import MemcpyKind, TransferRecord
from repro.utils.timing import TimingLedger

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
    """Kernel times read off a ledger, plus memory transfers and launches."""

    ledger: TimingLedger = field(default_factory=TimingLedger)
    launches: List[KernelLaunch] = field(default_factory=list)
    transfers: Dict[MemcpyKind, TransferRecord] = field(default_factory=dict)
    keep_launches: bool = False

    @property
    def kernel_seconds(self) -> Dict[str, float]:
        """Seconds per kernel label, a read-only view of the ledger records."""
        return {
            _label(name): rec.total_seconds for name, rec in self.ledger.records.items()
        }

    @property
    def kernel_calls(self) -> Dict[str, int]:
        """Calls per kernel label, a read-only view of the ledger records."""
        return {_label(name): rec.calls for name, rec in self.ledger.records.items()}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_launch(self, launch: KernelLaunch) -> None:
        """Keep one launch's geometry (only with ``keep_launches``)."""
        if self.keep_launches:
            self.launches.append(launch)

    def record_memcpy(self, kind: MemcpyKind, nbytes: int, seconds: float) -> None:
        """Record one host/device transfer."""
        record = self.transfers.setdefault(kind, TransferRecord(kind=kind))
        record.add(nbytes, seconds)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def total_kernel_seconds(self) -> float:
        """Total time spent inside kernels."""
        return self.ledger.total()

    def total_transfer_seconds(self) -> float:
        """Total time spent in host/device transfers."""
        return sum(rec.total_seconds for rec in self.transfers.values())

    def total_gpu_seconds(self) -> float:
        """Total simulated GPU time (kernels + transfers)."""
        return self.total_kernel_seconds() + self.total_transfer_seconds()

    def rows(self) -> List[ProfileRow]:
        """Rows of the Table II-style breakdown, sorted by time within category."""
        total = self.total_gpu_seconds()
        rows: List[ProfileRow] = []
        kernel_records = sorted(
            self.ledger.records.values(), key=lambda rec: rec.total_seconds, reverse=True
        )
        for rec in kernel_records:
            rows.append(
                ProfileRow(
                    category="Kernel",
                    method=_label(rec.name),
                    calls=rec.calls,
                    gpu_seconds=rec.total_seconds,
                    fraction=rec.total_seconds / total if total > 0 else 0.0,
                )
            )
        transfer_items = sorted(
            self.transfers.values(), key=lambda rec: rec.total_seconds, reverse=True
        )
        for rec in transfer_items:
            rows.append(
                ProfileRow(
                    category="Mem sync",
                    method=rec.kind.value,
                    calls=rec.calls,
                    gpu_seconds=rec.total_seconds,
                    fraction=rec.total_seconds / total if total > 0 else 0.0,
                )
            )
        return rows

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
