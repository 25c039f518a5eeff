"""CPU-only reference backend.

In its default ``"scalar"`` scoring mode it processes the population one
conformation at a time — the per-member control flow of the paper's
original CPU implementation whose time profile appears in Fig. 1, though
each member is scored by the modern engine kernels (squared-distance
math, cell-list environment pruning) rather than the paper's dense scans,
so the per-conformation call overhead is what the profile measures.  It
exists for three reasons:

* it is the ground truth the batched backend is validated against,
* it is the slow side of every speedup comparison (Fig. 4, Table I),
* its per-section timings generate the Fig. 1 breakdown.

Both scoring modes run on the same shared pairwise kernel engine
(:mod:`repro.scoring.pairwise`): ``"batched"`` evaluates each scoring
function with one population-wide call (the scorers chunk internally by
their own block size), while the ``"scalar"`` fallback calls the
per-member path (itself an exact one-member special case of the batched
kernels), preserving the paper's per-conformation cost profile.
``make_backend("cpu-batched", ...)`` selects the batched mode.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.closure.ccd import CCDResult, ccd_close
from repro.backends.base import SamplingBackend
from repro.moscem.dominance import fitness_against, strength_fitness

__all__ = ["CPUBackend"]


class CPUBackend(SamplingBackend):
    """Scalar, per-conformation backend (the paper's CPU implementation)."""

    name = "cpu"

    #: Supported scoring modes.
    SCORING_MODES = ("scalar", "batched")

    def __init__(self, *args, scoring_mode: str = "scalar", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if scoring_mode not in self.SCORING_MODES:
            raise ValueError(
                f"scoring_mode must be one of {self.SCORING_MODES}, "
                f"got {scoring_mode!r}"
            )
        self.scoring_mode = scoring_mode
        if scoring_mode == "batched":
            self.name = "cpu-batched"

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------

    def close_loops(
        self, torsions: np.ndarray, start_indices: Optional[np.ndarray] = None
    ) -> CCDResult:
        """Close every conformation with the scalar CCD, one at a time."""
        torsions = np.asarray(torsions, dtype=np.float64)
        pop = torsions.shape[0]
        n = self.target.n_residues
        if start_indices is None:
            start_indices = np.zeros(pop, dtype=np.int64)

        closed = np.empty_like(torsions)
        coords = np.empty((pop, n, 4, 3), dtype=np.float64)
        closure = np.empty((pop, 3, 3), dtype=np.float64)
        errors = np.empty(pop, dtype=np.float64)
        iterations = np.empty(pop, dtype=np.int64)

        with self.ledger.section("CCD"):
            for i in range(pop):
                result = ccd_close(
                    torsions[i],
                    self.target,
                    start_index=int(start_indices[i]),
                    max_iterations=self.config.ccd_iterations,
                    tolerance=self.config.ccd_tolerance,
                )
                closed[i] = result.torsions
                coords[i] = result.coords
                closure[i] = result.closure
                errors[i] = result.closure_error
                iterations[i] = result.iterations

        return CCDResult(
            torsions=closed,
            coords=coords,
            closure=closure,
            closure_error=errors,
            iterations=iterations,
        )

    def evaluate_scores(self, coords: np.ndarray, torsions: np.ndarray) -> np.ndarray:
        """Evaluate every scoring function over the population.

        In ``"batched"`` mode each function runs as the population-chunked
        batched kernel; the ``"scalar"`` fallback (the default, and the
        paper's CPU reference) scores one conformation at a time.
        """
        coords = np.asarray(coords, dtype=np.float64)
        torsions = np.asarray(torsions, dtype=np.float64)
        pop = coords.shape[0]
        scores = np.empty((pop, len(self.multi_score)), dtype=np.float64)
        for k, fn in enumerate(self.multi_score):
            with self.ledger.section(fn.kernel_name):
                if self.scoring_mode == "batched":
                    # One call over the full population: the scorers chunk
                    # internally (like the GPU backend's kernel launches).
                    scores[:, k] = fn.evaluate_batch(coords, torsions)
                else:
                    for i in range(pop):
                        scores[i, k] = fn.evaluate(coords[i], torsions[i])
        return scores

    def fitness_population(self, scores: np.ndarray) -> np.ndarray:
        """Strength fitness over the whole population."""
        with self.ledger.section("FitAssg within Population"):
            return strength_fitness(
                scores, block_size=self.config.kernel_block_size
            )

    def fitness_within_complexes(
        self,
        population_scores: np.ndarray,
        proposal_scores: np.ndarray,
        complex_indices: List[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Complex-wise fitness of current members and their proposals."""
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
                    fitness_against(ref, queries, block_size=block_size), 2
                )
        return current, proposed
