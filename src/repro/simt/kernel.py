"""Kernel metadata and launch records."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["KernelSpec", "KernelLaunch", "PAPER_KERNELS", "KERNELS_BY_SECTION"]


@dataclass(frozen=True)
class KernelSpec:
    """Static description of a GPU kernel.

    Attributes
    ----------
    name:
        Kernel label as it appears in the paper's tables, e.g. ``"[CCD]"``.
    registers_per_thread:
        Registers each thread of the kernel uses.  The paper compiles with a
        32-register limit; kernels that would need more spill to local
        memory (a performance concern it discusses for the CCD kernel).
    threads_per_block:
        Launch configuration; the paper uses 128 threads per block.
    uses_texture_memory / uses_constant_memory:
        Whether the kernel reads the pre-computed scoring tables from
        texture memory or run constants from constant memory, recorded for
        documentation and for the memory-residency report.
    """

    name: str
    registers_per_thread: int
    threads_per_block: int = 128
    uses_texture_memory: bool = False
    uses_constant_memory: bool = True

    def __post_init__(self) -> None:
        if self.registers_per_thread <= 0:
            raise ValueError("registers_per_thread must be positive")
        if self.threads_per_block <= 0:
            raise ValueError("threads_per_block must be positive")

    @property
    def section(self) -> str:
        """The kernel's timing-ledger section name: its label sans brackets."""
        return self.name.replace("[", "").replace("]", "")


@dataclass
class KernelLaunch:
    """The geometry of one kernel launch (its time lives in the ledger)."""

    spec: KernelSpec
    population_size: int
    blocks: int

    @property
    def threads(self) -> int:
        """Total threads launched (one per population member, padded to blocks)."""
        return self.blocks * self.spec.threads_per_block


#: The kernel set of the paper with the register counts of Table III.
PAPER_KERNELS = {
    "CCD": KernelSpec("[CCD]", registers_per_thread=32, uses_texture_memory=True),
    "EvalDIST": KernelSpec("[EvalDIST]", registers_per_thread=32, uses_texture_memory=True),
    "EvalVDW": KernelSpec("[EvalVDW]", registers_per_thread=32, uses_texture_memory=False),
    "EvalTRIP": KernelSpec("[EvalTRIP]", registers_per_thread=20, uses_texture_memory=True),
    "FitAssgPopulation": KernelSpec("[FitAssg] within Population", registers_per_thread=8),
    "FitAssgComplex": KernelSpec("[FitAssg] within Complex", registers_per_thread=5),
}

#: The paper kernels keyed by ledger section name (the one label <-> section map).
KERNELS_BY_SECTION = {spec.section: spec for spec in PAPER_KERNELS.values()}
