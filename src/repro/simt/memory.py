"""Memory spaces and host/device transfer categories.

The paper stresses judicious placement of data across GPU memory spaces:
pre-computed scoring tables in texture memory, run constants in constant
memory, torsion/score arrays in coalesced global memory.  The simulated
engine files the logical transfers between host and device memory into its
timing ledger under their :class:`MemcpyKind` label, so the profiler can
report the memcpy rows of Table II.
"""

from __future__ import annotations

import enum
__all__ = ["MemorySpace", "MemcpyKind", "MEMCPY_LABELS"]


class MemorySpace(enum.Enum):
    """GPU memory spaces distinguished by the paper."""

    GLOBAL = "global"
    TEXTURE = "texture"
    CONSTANT = "constant"
    SHARED = "shared"
    REGISTERS = "registers"
    LOCAL = "local"


class MemcpyKind(enum.Enum):
    """Transfer categories reported by the CUDA profiler (Table II)."""

    HOST_TO_DEVICE = "memcpyHtoD"
    HOST_TO_ARRAY = "memcpyHtoA"
    DEVICE_TO_HOST = "memcpyDtoH"
    DEVICE_TO_ARRAY = "memcpyDtoA"
    DEVICE_TO_DEVICE = "memcpyDtoD"


#: Ledger labels of the memcpy categories (the ``Mem sync`` rows of Table II).
MEMCPY_LABELS = frozenset(kind.value for kind in MemcpyKind)
