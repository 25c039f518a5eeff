"""Execution backends for the sampler's heavy kernels.

The paper's program exists in two flavours that this package mirrors:

* :class:`~repro.backends.cpu.CPUBackend` — the reference CPU-only
  implementation: every conformation is processed one at a time with the
  scalar kernels (loop closure, scoring), exactly the per-member loop the
  paper profiles in Fig. 1.
* :class:`~repro.backends.gpu.BatchedBackend` — the population-batched
  flavour: the expensive kernels (CCD, the three scoring functions,
  fitness assignment) run as vectorised operations over the whole
  population, one logical thread per conformation, while sorting,
  partitioning and assembly stay on the host.  Bound to a
  :mod:`repro.xp` kernel bundle it is the ``xp`` (eager numpy) and
  ``jax`` (``jax.jit``, requires the wheel) registry entries.
  :class:`~repro.backends.gpu.GPUBackend` is the same backend with SIMT
  accounting: kernel launches and simulated host/device transfers are
  recorded by the engine's profiler (the paper's "CPU-GPU" program).

All backends expose the same :class:`~repro.backends.base.SamplingBackend`
interface, so the MOSCEM sampler is oblivious to which one it runs on — the
same property that lets the paper claim functional equivalence between its
CPU and CPU-GPU programs.
"""

from repro.backends.base import SamplingBackend
from repro.backends.cpu import CPUBackend
from repro.backends.gpu import BatchedBackend, GPUBackend

__all__ = [
    "SamplingBackend",
    "BatchedBackend",
    "CPUBackend",
    "GPUBackend",
    "make_backend",
]


def make_backend(kind: str, target, multi_score, config, **kwargs):
    """Factory: build a backend by its registry name.

    ``"cpu"`` is the paper's scalar reference, ``"gpu"`` (aliases ``"cpu-gpu"``, ``"simt"``) the simulated SIMT
    backend, ``"jax"`` (alias ``"jax-jit"``) the xp-facade tier
    compiled with ``jax.jit`` (requires the jax wheel), and ``"xp"``
    (aliases ``"xp-numpy"``, ``"array-api"``) the same facade routing on
    the eager numpy namespace — bit-identical to ``"gpu"``, available
    everywhere.  Additional backends can be contributed through
    :func:`repro.api.registry.register_backend` or a ``repro.backends``
    setuptools entry point.
    """
    from repro.api.registry import BACKENDS, RegistryError

    try:
        return BACKENDS.create(kind, target, multi_score, config, **kwargs)
    except RegistryError as exc:
        raise ValueError(str(exc)) from None
