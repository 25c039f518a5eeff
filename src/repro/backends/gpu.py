"""Population-batched backends: the shared kernel loop and its SIMT flavour.

:class:`BatchedBackend` runs [CCD], [EvalVDW], [EvalDIST], [EvalTRIP] and
both fitness assignments as population-batched vectorised operations, one
logical thread per conformation, while sorting, partitioning and assembly
stay on the host.  Given a :class:`~repro.xp.dispatch.KernelBundle` it
routes the CCD sweep, the scorers and the dominance blocks through it (the
``xp`` and ``jax`` registry entries).  Every kernel runs through one timing
hook (:meth:`~BatchedBackend._launch`, a ledger section by default) and
every host/device round trip through one transfer hook
(:meth:`~BatchedBackend._transfer`, a no-op by default).

:class:`GPUBackend` overrides only those hooks to implement the paper's
heterogeneous design on the simulated SIMT engine: each kernel is launched
by :class:`~repro.simt.engine.SIMTEngine`, which times it into the same
ledger section and records its launch geometry, the scoring
tables and environment atoms are "uploaded" once at construction
(texture-memory residency in the paper), and every host round trip is
filed into the same ledger as a modelled memcpy record under its
:class:`~repro.simt.memory.MemcpyKind` label.  Table II is therefore a view
of the kernel ledger alone, live or loaded back from the run store.
"""

from __future__ import annotations

import copy
from functools import partial
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.backends.base import SamplingBackend
from repro.closure.ccd import CCDResult, ccd_close_batch
from repro.moscem.dominance import fitness_against, strength_fitness
from repro.scoring.base import MultiScore
from repro.moscem.population import Population
from repro.simt.device import GTX280
from repro.simt.engine import SIMTEngine
from repro.simt.kernel import KERNELS_BY_SECTION
from repro.simt.memory import MemcpyKind
from repro.simt.profiler import KernelProfiler

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.xp.dispatch import KernelBundle

__all__ = ["BatchedBackend", "GPUBackend"]


class BatchedBackend(SamplingBackend):
    """Population-batched backend, optionally bound to a kernel bundle."""

    name = "batched"

    def __init__(
        self,
        target,
        multi_score,
        config,
        ledger=None,
        kernels: Optional["KernelBundle"] = None,
    ) -> None:
        if kernels is not None:
            # Bind the bundle on private copies: the caller's stack may be
            # shared with other backends (e.g. a worker's cached stack).
            bound = [copy.copy(fn) for fn in multi_score]
            for fn in bound:
                fn.use_kernels(kernels)
            multi_score = MultiScore(bound)
            namespace = kernels.namespace.name
            self.name = "jax" if namespace == "jax" else f"xp-{namespace}"
        super().__init__(target, multi_score, config, ledger=ledger)
        self.kernels = kernels

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def _launch(self, name: str, population_size: int, fn, *args, **kwargs):
        """Run one kernel, timed into the ledger under ``name``."""
        with self.ledger.section(name):
            return fn(*args, **kwargs)

    def _transfer(self, kind: MemcpyKind, payload) -> None:
        """Record a host/device transfer of ``payload`` (nothing off-device)."""

    # ------------------------------------------------------------------
    # Kernel bodies (the scalar CPU backend overrides these two)
    # ------------------------------------------------------------------

    def _close(
        self, torsions: np.ndarray, start_indices: Optional[np.ndarray]
    ) -> CCDResult:
        return ccd_close_batch(
            torsions,
            self.target,
            start_indices=start_indices,
            tolerance=self.config.ccd_tolerance,
            kernels=self.kernels,
        )

    def _score(self, fn, coords: np.ndarray, torsions: np.ndarray) -> np.ndarray:
        if coords.shape[0] == 0:  # a step whose closure gate admitted none
            return np.empty(0)
        return fn.evaluate_batch(coords, torsions)

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------

    def close_loops(
        self, torsions: np.ndarray, start_indices: Optional[np.ndarray] = None
    ) -> CCDResult:
        """Close the whole population ([CCD])."""
        torsions = np.asarray(torsions, dtype=np.float64)
        # Proposals are produced on the host; record their transfer to the
        # device's global memory before the kernel reads them.
        self._transfer(MemcpyKind.HOST_TO_DEVICE, torsions)
        return self._launch(
            "CCD", torsions.shape[0], self._close, torsions, start_indices
        )

    def _subset(self, members: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """The ``members`` mask a kernel honours (``None``: every row).  A
        compiling namespace computes every row, so it compiles one shape
        per kernel, not one per subset size."""
        if self.kernels is not None and self.kernels.namespace.can_jit:
            return None
        return members

    def evaluate_scores(
        self,
        coords: np.ndarray,
        torsions: np.ndarray,
        members: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Evaluate every scoring function with one kernel each.

        ``members`` (a ``(P,)`` boolean mask) scores only those rows and
        leaves the others NaN.  The launches and transfers still model the
        whole population, one launch per scorer however few rows are
        scored, so Table II does not depend on the mask.
        """
        coords = np.asarray(coords, dtype=np.float64)
        torsions = np.asarray(torsions, dtype=np.float64)
        pop = coords.shape[0]
        members = self._subset(members)
        rows = None if members is None else np.flatnonzero(members)
        # Fresh conformations are copied into texture memory for the scoring
        # kernels (device-to-array in the paper's scheme).
        self._transfer(MemcpyKind.DEVICE_TO_ARRAY, coords)
        if rows is not None:
            coords, torsions = coords[rows], torsions[rows]
        columns = [
            self._launch(fn.kernel_name, pop, self._score, fn, coords, torsions)
            for fn in self.multi_score
        ]
        if rows is None:
            scores = np.stack(columns, axis=1)
        else:
            scores = np.full((pop, len(columns)), np.nan)
            scores[rows] = np.stack(columns, axis=1)
        # Scores are copied to texture memory for the fitness kernels.
        self._transfer(MemcpyKind.DEVICE_TO_ARRAY, scores)
        return scores

    def fitness_population(self, scores: np.ndarray) -> np.ndarray:
        """Strength fitness over the whole population as one kernel."""
        scores = np.asarray(scores, dtype=np.float64)
        pop = scores.shape[0]
        fitness = self._launch(
            "FitAssg within Population",
            pop,
            partial(strength_fitness, scores, kernels=self.kernels),
        )
        # Fitness values travel back to the host for sorting/partitioning.
        self._transfer(MemcpyKind.DEVICE_TO_HOST, fitness)
        return fitness

    def fitness_within_complexes(
        self,
        population_scores: np.ndarray,
        proposal_scores: np.ndarray,
        complex_indices: List[np.ndarray],
        members: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Complex-wise fitness, run as a single kernel per iteration.

        ``members`` (a ``(P,)`` boolean mask) queries only those
        proposals; every other proposal gets its current member's fitness
        (a Metropolis delta of 0).  Each query is scored independently, so
        the queried rows keep their bits.
        """
        population_scores = np.asarray(population_scores, dtype=np.float64)
        proposal_scores = np.asarray(proposal_scores, dtype=np.float64)
        pop = population_scores.shape[0]
        members = self._subset(members)
        # The complex assignment (a permutation) is produced on the host.
        self._transfer(MemcpyKind.HOST_TO_DEVICE, np.concatenate(complex_indices))

        def _kernel() -> Tuple[np.ndarray, np.ndarray]:
            current = np.empty(pop, dtype=np.float64)
            proposed = np.empty(pop, dtype=np.float64)
            for indices in complex_indices:
                # One reference pass per complex: current members and
                # proposals are scored as one stack of independent queries.
                ref = population_scores[indices]
                asked = indices if members is None else indices[members[indices]]
                fitness = fitness_against(
                    ref,
                    np.concatenate([ref, proposal_scores[asked]]),
                    kernels=self.kernels,
                )
                current[indices] = fitness[: indices.size]
                proposed[asked] = fitness[indices.size:]
            if members is not None:
                proposed[~members] = current[~members]
            return current, proposed

        return self._launch("FitAssg within Complex", pop, _kernel)

    # ------------------------------------------------------------------
    # Host synchronisation
    # ------------------------------------------------------------------

    def sync_to_host(self, population: Population) -> None:
        """Device-to-host copy of the data the host-side steps need."""
        if population.fitness is not None:
            self._transfer(MemcpyKind.DEVICE_TO_HOST, population.fitness)

    def sync_to_device(self, population: Population) -> None:
        """Host-to-device copy of the data mutated on the host."""
        self._transfer(MemcpyKind.HOST_TO_DEVICE, population.torsions)

    def finalize(self, population: Population) -> None:
        """Final readback of the whole population at the end of a run."""
        self._transfer(MemcpyKind.DEVICE_TO_HOST, population.nbytes())


class GPUBackend(BatchedBackend):
    """The batched kernels launched on the simulated SIMT engine."""

    name = "gpu"

    def __init__(self, target, multi_score, config, ledger=None) -> None:
        super().__init__(target, multi_score, config, ledger=ledger)
        # Launches are timed into this backend's ledger: Table II reads it.
        self.engine = SIMTEngine(device=GTX280, profiler=KernelProfiler(ledger=self.ledger))

        # One-time upload of constant data, mirroring the paper's placement:
        # knowledge-based tables and environment data into texture memory,
        # run constants into constant memory.
        tables = []
        for fn in multi_score:
            kb = getattr(fn, "knowledge_base", None)
            if kb is not None:
                tables.extend([kb.triplet_neg_log, kb.distance_neg_log])
        tables.append(target.environment_coords)
        tables.append(target.environment_radii)
        self.engine.upload_tables(*tables)
        self.engine.upload_constants(256)

    @property
    def profiler(self) -> KernelProfiler:
        """The kernel profiler of the underlying engine."""
        return self.engine.profiler

    def _launch(self, name: str, population_size: int, fn, *args, **kwargs):
        """Launch a kernel on the engine (timed into the ledger there)."""
        return self.engine.launch(
            KERNELS_BY_SECTION[name], population_size, fn, *args, **kwargs
        )

    def _transfer(self, kind: MemcpyKind, payload) -> None:
        """File the modelled transfer into the kernel ledger."""
        self.engine.memcpy(kind, payload)
