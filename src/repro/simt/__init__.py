"""Simulated SIMT device substrate.

The paper runs its kernels on an nVidia GeForce GTX 280 under CUDA.  No GPU
is available to this reproduction, so this package provides a software
substrate with the same *shape*:

* :class:`~repro.simt.device.DeviceSpec` — the resource envelope of the
  device (multiprocessors, registers, shared memory, block limits), with a
  GTX 280 preset;
* :class:`~repro.simt.kernel.KernelSpec` — per-kernel metadata (registers
  per thread, threads per block), mirroring the compilation results the
  paper reports in Table III;
* :mod:`~repro.simt.occupancy` — the CUDA compute-capability 1.3 occupancy
  calculation, which reproduces the occupancy column of Table III;
* :class:`~repro.simt.profiler.KernelProfiler` — kernel times and modelled
  host/device memory transfers read off one timing ledger, rendering
  Table II-style breakdowns;
* :class:`~repro.simt.engine.SIMTEngine` — executes "kernels" (vectorised
  NumPy batch functions, one logical thread per population member) while
  recording their timing and transfer activity.
"""

from repro.simt.device import DeviceSpec, GTX280
from repro.simt.kernel import KernelLaunch, KernelSpec
from repro.simt.memory import MemcpyKind
from repro.simt.occupancy import OccupancyResult, occupancy
from repro.simt.profiler import KernelProfiler
from repro.simt.engine import SIMTEngine

__all__ = [
    "DeviceSpec",
    "GTX280",
    "KernelSpec",
    "KernelLaunch",
    "MemcpyKind",
    "OccupancyResult",
    "occupancy",
    "KernelProfiler",
    "SIMTEngine",
]
