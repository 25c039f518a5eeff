"""Simulated CPU-GPU backend.

Implements the paper's heterogeneous design on the simulated SIMT engine:

* the heavy kernels — [CCD], [EvalVDW], [EvalDIST], [EvalTRIP] and the two
  fitness assignments — run as population-batched vectorised operations,
  one logical thread per conformation, launched through the
  :class:`~repro.simt.engine.SIMTEngine` which profiles each launch;
* the knowledge-based scoring tables and the environment atoms are
  "uploaded" once at construction (texture-memory residency in the paper);
* the per-iteration host round trips (fitness values out for sorting,
  permutations back in, the final population readback) are recorded as
  simulated memcpy events so the Table II transfer rows can be reproduced.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from repro.backends.base import SamplingBackend
from repro.closure.ccd import CCDResult, ccd_close_batch
from repro.moscem.dominance import fitness_against, strength_fitness
from repro.scoring.pairwise import resolve_block_size
from repro.moscem.population import Population
from repro.simt.device import DeviceSpec, GTX280
from repro.simt.engine import SIMTEngine
from repro.simt.kernel import PAPER_KERNELS, KernelSpec
from repro.simt.memory import MemcpyKind
from repro.simt.profiler import KernelProfiler

__all__ = ["GPUBackend"]


class GPUBackend(SamplingBackend):
    """Population-batched backend running on the simulated SIMT engine."""

    name = "gpu"

    def __init__(
        self,
        target,
        multi_score,
        config,
        ledger=None,
        device: DeviceSpec = GTX280,
        engine: Optional[SIMTEngine] = None,
        profiler: Optional[KernelProfiler] = None,
    ) -> None:
        super().__init__(target, multi_score, config, ledger=ledger)
        self.engine = engine if engine is not None else SIMTEngine(
            device=device, profiler=profiler
        )

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

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    @property
    def profiler(self) -> KernelProfiler:
        """The kernel profiler of the underlying engine."""
        return self.engine.profiler

    def _kernel(self, key: str) -> KernelSpec:
        return PAPER_KERNELS[key]

    def _launch(
        self, key: str, population_size: int, fn, *args, block_size=None, **kwargs
    ):
        """Launch a kernel, mirroring the timing into the backend ledger."""
        spec = self._kernel(key)
        before = self.profiler.kernel_seconds.get(spec.name, 0.0)
        result = self.engine.launch(
            spec, population_size, fn, *args, block_size=block_size, **kwargs
        )
        after = self.profiler.kernel_seconds.get(spec.name, 0.0)
        self.ledger.add(spec.name.replace("[", "").replace("]", ""), after - before)
        return result

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------

    def close_loops(
        self, torsions: np.ndarray, start_indices: Optional[np.ndarray] = None
    ) -> CCDResult:
        """Close the whole population in lock-step with the batched CCD."""
        torsions = np.asarray(torsions, dtype=np.float64)
        pop = torsions.shape[0]
        # Proposals are produced on the host; record their transfer to the
        # device's global memory before the kernel reads them.
        self.engine.memcpy(MemcpyKind.HOST_TO_DEVICE, torsions)
        return self._launch(
            "CCD",
            pop,
            ccd_close_batch,
            torsions,
            self.target,
            start_indices=start_indices,
            max_iterations=self.config.ccd_iterations,
            tolerance=self.config.ccd_tolerance,
        )

    def evaluate_scores(self, coords: np.ndarray, torsions: np.ndarray) -> np.ndarray:
        """Evaluate every scoring function with one batched kernel each."""
        coords = np.asarray(coords, dtype=np.float64)
        torsions = np.asarray(torsions, dtype=np.float64)
        pop = coords.shape[0]
        # Fresh conformations are copied into texture memory for the scoring
        # kernels (device-to-array in the paper's scheme).
        self.engine.memcpy(MemcpyKind.DEVICE_TO_ARRAY, coords)
        columns = []
        for fn in self.multi_score:
            columns.append(
                self._launch(
                    fn.kernel_name,
                    pop,
                    fn.evaluate_batch,
                    coords,
                    torsions,
                    block_size=fn.resolved_block_size(pop),
                )
            )
        scores = np.stack(columns, axis=1)
        # Scores are copied to texture memory for the fitness kernels.
        self.engine.memcpy(MemcpyKind.DEVICE_TO_ARRAY, scores)
        return scores

    def fitness_population(self, scores: np.ndarray) -> np.ndarray:
        """Strength fitness over the whole population as one kernel launch."""
        scores = np.asarray(scores, dtype=np.float64)
        pop = scores.shape[0]
        chunk = self.config.kernel_block_size
        fitness = self._launch(
            "FitAssgPopulation",
            pop,
            partial(strength_fitness, scores, block_size=chunk),
            block_size=resolve_block_size(chunk, max(pop, 1)),
        )
        # Fitness values travel back to the host for sorting/partitioning.
        self.engine.memcpy(MemcpyKind.DEVICE_TO_HOST, fitness)
        return fitness

    def fitness_within_complexes(
        self,
        population_scores: np.ndarray,
        proposal_scores: np.ndarray,
        complex_indices: List[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Complex-wise fitness, launched as a single kernel per iteration."""
        population_scores = np.asarray(population_scores, dtype=np.float64)
        proposal_scores = np.asarray(proposal_scores, dtype=np.float64)
        pop = population_scores.shape[0]
        # The complex assignment (a permutation) is produced on the host.
        self.engine.memcpy(
            MemcpyKind.HOST_TO_DEVICE, np.concatenate(complex_indices)
        )

        chunk = self.config.kernel_block_size

        def _kernel() -> Tuple[np.ndarray, np.ndarray]:
            current = np.empty(pop, dtype=np.float64)
            proposed = np.empty(pop, dtype=np.float64)
            for indices in complex_indices:
                # One reference pass per complex: current members and
                # proposals are scored as one stack of independent queries.
                ref = population_scores[indices]
                queries = np.concatenate([ref, proposal_scores[indices]])
                current[indices], proposed[indices] = np.split(
                    fitness_against(ref, queries, block_size=chunk), 2
                )
            return current, proposed

        return self._launch(
            "FitAssgComplex",
            pop,
            _kernel,
            block_size=resolve_block_size(chunk, max(pop, 1)),
        )

    # ------------------------------------------------------------------
    # Host synchronisation
    # ------------------------------------------------------------------

    def sync_to_host(self, population: Population) -> None:
        """Device-to-host copy of the data the host-side steps need."""
        if population.fitness is not None:
            self.engine.memcpy(MemcpyKind.DEVICE_TO_HOST, population.fitness)

    def sync_to_device(self, population: Population) -> None:
        """Host-to-device copy of the data mutated on the host."""
        self.engine.memcpy(MemcpyKind.HOST_TO_DEVICE, population.torsions)

    def finalize(self, population: Population) -> None:
        """Final readback of the whole population at the end of a run."""
        self.engine.memcpy(MemcpyKind.DEVICE_TO_HOST, population.nbytes())
