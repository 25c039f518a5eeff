"""CPU-only reference backend.

It closes and scores the population one conformation at a time — the
per-member control flow of the paper's original CPU implementation whose
time profile appears in Fig. 1, though each member is scored by the
modern engine kernels (squared-distance math, cell-list environment
pruning; the per-member path is an exact one-member special case of the
batched kernels) rather than the paper's dense scans, so the
per-conformation call overhead is what the profile measures.  It exists
for three reasons:

* it is the ground truth the batched backends are validated against,
* it is the slow side of every speedup comparison (Fig. 4, Table I),
* its per-section timings generate the Fig. 1 breakdown.

Only the two per-member kernel bodies (scalar CCD and scalar scoring)
differ from :class:`~repro.backends.gpu.BatchedBackend`; the fitness
assignments and the kernel loop itself are inherited.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backends.gpu import BatchedBackend
from repro.closure.ccd import CCDResult, ccd_close

__all__ = ["CPUBackend"]


class CPUBackend(BatchedBackend):
    """Scalar, per-conformation backend (the paper's CPU implementation)."""

    name = "cpu"

    def _close(
        self, torsions: np.ndarray, start_indices: Optional[np.ndarray]
    ) -> CCDResult:
        """Close every conformation with the scalar CCD, one at a time."""
        pop = torsions.shape[0]
        n = self.target.n_residues
        if start_indices is None:
            start_indices = np.zeros(pop, dtype=np.int64)

        closed = np.empty_like(torsions)
        coords = np.empty((pop, n, 4, 3), dtype=np.float64)
        closure = np.empty((pop, 3, 3), dtype=np.float64)
        errors = np.empty(pop, dtype=np.float64)
        iterations = np.empty(pop, dtype=np.int64)
        for i in range(pop):
            result = ccd_close(
                torsions[i],
                self.target,
                start_index=int(start_indices[i]),
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

    def _score(self, fn, coords: np.ndarray, torsions: np.ndarray) -> np.ndarray:
        """Score one conformation at a time."""
        return np.array(
            [fn.evaluate(coords[i], torsions[i]) for i in range(coords.shape[0])],
            dtype=np.float64,
        )
