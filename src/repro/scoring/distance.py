"""Atom pair-wise distance-based scoring function ([DIST], paper ref [6]).

For every pair of backbone atoms within the loop (separated by at least one
residue), the potential scores the observed distance against the library
distribution for that atom-type pair and sequence separation.  Like the
original potential, the tables are pre-computed and constant during
sampling; the paper keeps them in GPU texture memory.

Evaluation runs on the shared pairwise kernel engine
(:mod:`repro.scoring.pairwise`): squared distances are binned against
pre-squared edges (no ``sqrt`` of a distance), each pair reads its own
pre-gathered table row, and the population is processed in cache-sized
blocks spread over the member threads, each one call of the compiled
``binned_sum`` pass of :mod:`repro.native` (or of the generic kernel on
a kernel bundle, with the same bits on numpy).  Pairs at or beyond
``DISTANCE_MAX`` read the neutral overflow column and contribute zero —
the tables hold no statistics out there.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import constants
from repro.loops.loop import LoopTarget
from repro.scoring.base import ScoringFunction
from repro.scoring.knowledge import (
    DISTANCE_SQ_EDGES,
    KnowledgeBase,
    atom_pair_index,
    default_knowledge_base,
    separation_class,
)
from repro.scoring.pairwise import binned_table_sum

__all__ = ["DistanceScore"]


class DistanceScore(ScoringFunction):
    """Pairwise backbone-distance scoring function bound to one loop target."""

    name = "DIST"
    kernel_name = "EvalDIST"
    #: Registers per thread of the corresponding CUDA kernel (paper Table III).
    registers_per_thread = 32

    def __init__(
        self,
        target: LoopTarget,
        knowledge_base: Optional[KnowledgeBase] = None,
        min_separation: int = 1,
        block_size: Optional[int] = None,
    ) -> None:
        if min_separation < 1:
            raise ValueError("min_separation must be >= 1")
        self.target = target
        self.knowledge_base = (
            knowledge_base if knowledge_base is not None else default_knowledge_base()
        )
        self.min_separation = min_separation
        self.block_size = block_size

        n = target.n_residues
        n_types = constants.BACKBONE_ATOMS_PER_RESIDUE

        # Pre-compute flat atom-pair index arrays for the loop: for every
        # residue pair (i, j) with j - i >= min_separation and every backbone
        # atom-type combination, record the two flat atom indices, the
        # atom-pair type and the separation class.
        first_idx = []
        second_idx = []
        pair_type = []
        sep_cls = []
        for i in range(n):
            for j in range(i + self.min_separation, n):
                s = separation_class(j - i)
                for a in range(n_types):
                    for b in range(n_types):
                        first_idx.append(i * n_types + a)
                        second_idx.append(j * n_types + b)
                        pair_type.append(atom_pair_index(a, b))
                        sep_cls.append(s)
        self._first = np.array(first_idx, dtype=np.int64)
        self._second = np.array(second_idx, dtype=np.int64)
        self._pair_type = np.array(pair_type, dtype=np.int64)
        self._sep_cls = np.array(sep_cls, dtype=np.int64)

        # Gather each pair's table row once, padded with a neutral overflow
        # column read by out-of-range pairs: (n_pairs, DISTANCE_BINS + 1).
        table = self.knowledge_base.distance_neg_log
        rows = table[self._pair_type, self._sep_cls]
        self._pair_tables = np.ascontiguousarray(
            np.concatenate([rows, np.zeros((rows.shape[0], 1))], axis=1)
        )

    @property
    def n_pairs(self) -> int:
        """Number of atom pairs scored per conformation."""
        return self._first.size

    def evaluate(self, coords: np.ndarray, torsions: np.ndarray) -> float:
        """Sum of pair scores for one conformation.

        An exact one-member special case of :meth:`evaluate_batch` — the
        shared engine guarantees bit-identical per-member arithmetic.
        """
        coords = np.asarray(coords, dtype=np.float64)
        return float(self.evaluate_batch(coords[None], None)[0])

    def evaluate_batch(self, coords: np.ndarray, torsions: np.ndarray) -> np.ndarray:
        """Chunked, sqrt-free pair scoring over the whole population."""
        coords = np.asarray(coords, dtype=np.float64)
        pop = coords.shape[0]
        flat = coords.reshape(pop, -1, 3)
        return binned_table_sum(
            flat,
            self._first,
            self._second,
            self._pair_tables,
            DISTANCE_SQ_EDGES,
            block_size=self.block_size,
            kernels=self.kernels,
        )
