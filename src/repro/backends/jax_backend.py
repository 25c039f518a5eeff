"""JAX backend: the batched kernels compiled through the xp facade.

The third execution tier alongside the scalar CPU reference and the
simulated SIMT backend: the same generic kernels the numpy engine runs
eagerly are bound to the ``jax.numpy`` namespace and compiled with
``jax.jit`` (64-bit mode) when the backend is constructed —
stack-assembly-time binding, so no dispatch or tracing decision is ever
taken inside the sampling loop.

Requires the ``jax`` wheel; constructing the backend without it raises
:class:`~repro.xp.xp.NamespaceError` with installation guidance.  The
``namespace`` parameter exists so the routing itself can be exercised on
the numpy namespace (bit-identical to the plain batched CPU backend) in
environments without JAX — that is how the test suite covers this module.

Kernel placement mirrors the facade's porting boundary:

* CCD sweeps run as the masked full-population
  :func:`~repro.closure.ccd._ccd_sweep` kernel (one jit unit per sweep);
* the VDW intra-loop terms and the DIST binned-table gather route through
  the bound bundle (scorers are re-bound via
  :meth:`~repro.scoring.base.ScoringFunction.use_kernels`);
* dominance/fitness block comparisons run through the bundle;
* host orchestration — convergence checks, population chunking, the
  ragged environment cell-list gather, sorting/partitioning — stays on
  numpy, exactly as the paper keeps it on the CPU.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.backends.cpu import CPUBackend
from repro.closure.ccd import CCDResult, ccd_close_batch
from repro.moscem.dominance import fitness_against, strength_fitness
from repro.xp.dispatch import bind_kernels

__all__ = ["JAXBackend"]


class JAXBackend(CPUBackend):
    """Population-batched backend bound to a jit-compiling namespace."""

    name = "jax"

    def __init__(
        self,
        target,
        multi_score,
        config,
        ledger=None,
        namespace: str = "jax",
    ) -> None:
        super().__init__(
            target, multi_score, config, ledger=ledger, scoring_mode="batched"
        )
        # Resolve the namespace and assemble the bundle once, here.  This
        # raises NamespaceError (with pip guidance) when jax is requested
        # but not importable — a construction-time failure, never a
        # mid-run one.
        self.kernels = bind_kernels(namespace)
        self.name = (
            "jax" if self.kernels.namespace.name == "jax"
            else f"xp-{self.kernels.namespace.name}"
        )
        # Re-bind the scoring stack onto the bundle.  Scorers keep the
        # bundle for their lifetime; callers sharing a MultiScore across
        # backends should rebind (use_kernels(None)) when switching back.
        for fn in self.multi_score:
            fn.use_kernels(self.kernels)

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------

    def close_loops(
        self, torsions: np.ndarray, start_indices: Optional[np.ndarray] = None
    ) -> CCDResult:
        """Close the population with the masked batched CCD sweep kernel."""
        torsions = np.asarray(torsions, dtype=np.float64)
        with self.ledger.section("CCD"):
            return ccd_close_batch(
                torsions,
                self.target,
                start_indices=start_indices,
                max_iterations=self.config.ccd_iterations,
                tolerance=self.config.ccd_tolerance,
                kernels=self.kernels,
            )

    def fitness_population(self, scores: np.ndarray) -> np.ndarray:
        """Strength fitness with bundle-bound dominance blocks."""
        with self.ledger.section("FitAssg within Population"):
            return strength_fitness(
                scores,
                block_size=self.config.kernel_block_size,
                kernels=self.kernels,
            )

    def fitness_within_complexes(
        self,
        population_scores: np.ndarray,
        proposal_scores: np.ndarray,
        complex_indices: List[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Complex-wise fitness with bundle-bound dominance blocks."""
        population_scores = np.asarray(population_scores, dtype=np.float64)
        proposal_scores = np.asarray(proposal_scores, dtype=np.float64)
        pop = population_scores.shape[0]
        current = np.empty(pop, dtype=np.float64)
        proposed = np.empty(pop, dtype=np.float64)
        block_size = self.config.kernel_block_size
        with self.ledger.section("FitAssg within Complex"):
            for indices in complex_indices:
                # One reference pass per complex: current members and
                # proposals are scored as one stack of independent queries.
                ref = population_scores[indices]
                queries = np.concatenate([ref, proposal_scores[indices]])
                current[indices], proposed[indices] = np.split(
                    fitness_against(
                        ref, queries, block_size=block_size, kernels=self.kernels
                    ),
                    2,
                )
        return current, proposed
