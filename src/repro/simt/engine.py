"""Execution engine of the simulated SIMT device.

The engine is what the GPU backend launches its "kernels" through.  A kernel
here is a Python callable operating on whole-population arrays (one logical
thread per population member); the engine

* validates the launch configuration against the device limits,
* executes the callable inside a section of its profiler's timing ledger
  (the one measurement of the kernel's time; the engine reads no clock),
* records the launch geometry with the profiler, and
* books host/device transfers into the same ledger (the real computation
  happens in host memory, so transfer *times* are modelled from the
  device's bandwidth and latency figures applied to the true array sizes).

This keeps the control flow, instrumentation and reporting of the paper's
CPU-GPU program intact even though the arithmetic runs on the CPU's vector
units rather than CUDA cores.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.simt.device import DeviceSpec, GTX280
from repro.simt.kernel import KernelLaunch, KernelSpec
from repro.simt.memory import MemcpyKind
from repro.simt.occupancy import OccupancyResult, occupancy
from repro.simt.profiler import KernelProfiler

__all__ = ["SIMTEngine"]


class SIMTEngine:
    """Launches batched kernels on the simulated device and profiles them."""

    def __init__(
        self,
        device: DeviceSpec = GTX280,
        profiler: Optional[KernelProfiler] = None,
        register_limit: int = 32,
    ) -> None:
        self.device = device
        self.profiler = profiler if profiler is not None else KernelProfiler()
        #: Register limit passed to the kernel compiler (the paper limits
        #: kernels to 32 registers per thread to keep occupancy up).
        self.register_limit = register_limit

    # ------------------------------------------------------------------
    # Kernel execution
    # ------------------------------------------------------------------

    def launch(
        self,
        spec: KernelSpec,
        population_size: int,
        fn: Callable[..., Any],
        *args: Any,
        **kwargs: Any,
    ) -> Any:
        """Execute ``fn`` as a kernel launch over ``population_size`` threads.

        The callable is executed once (it is expected to be vectorised over
        the population), timed by the profiler's ledger under the kernel's
        section name.  Returns whatever ``fn`` returns.
        """
        if population_size <= 0:
            raise ValueError("population_size must be positive")
        blocks = self.device.blocks_for_population(
            population_size, spec.threads_per_block
        )
        with self.profiler.ledger.section(spec.section):
            result = fn(*args, **kwargs)
        self.profiler.record_launch(
            KernelLaunch(spec=spec, population_size=population_size, blocks=blocks)
        )
        return result

    def kernel_occupancy(self, spec: KernelSpec) -> OccupancyResult:
        """Occupancy of ``spec`` on this engine's device.

        The effective register count is capped at the compiler register
        limit; any excess would spill to local memory (which the paper
        flags as a concern for the CCD kernel) but does not raise occupancy.
        """
        effective = KernelSpec(
            name=spec.name,
            registers_per_thread=min(spec.registers_per_thread, self.register_limit),
            threads_per_block=spec.threads_per_block,
            uses_texture_memory=spec.uses_texture_memory,
            uses_constant_memory=spec.uses_constant_memory,
        )
        return occupancy(effective, self.device)

    # ------------------------------------------------------------------
    # Memory transfers
    # ------------------------------------------------------------------

    def memcpy(self, kind: MemcpyKind, data: Any) -> None:
        """Record a logical host/device transfer of ``data``.

        ``data`` may be an ndarray (its ``nbytes`` is used) or an integer
        byte count.  The transfer time is synthesised from the device's
        bandwidth/latency model — the arrays themselves already live in host
        memory — and added to the profiler's ledger under the kind's label.
        ``ledger.add`` measures nothing, so an attached tracer gets no span.
        """
        if isinstance(data, np.ndarray):
            nbytes = int(data.nbytes)
        else:
            nbytes = int(data)
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        seconds = self.device.transfer_latency + nbytes / self.device.transfer_bandwidth
        self.profiler.ledger.add(kind.value, seconds)

    def upload_tables(self, *arrays: np.ndarray) -> None:
        """Record the one-time upload of pre-computed scoring tables.

        The paper copies the knowledge-based tables into texture memory at
        program start (memcpyHtoA) because they never change during the run.
        """
        for array in arrays:
            self.memcpy(MemcpyKind.HOST_TO_ARRAY, array)

    def upload_constants(self, nbytes: int) -> None:
        """Record the upload of run constants into constant memory."""
        if nbytes > self.device.constant_memory_bytes:
            raise ValueError(
                f"constants of {nbytes} bytes exceed the device's constant "
                f"memory ({self.device.constant_memory_bytes} bytes)"
            )
        self.memcpy(MemcpyKind.HOST_TO_DEVICE, nbytes)
