"""Triplet torsion-angle statistical potential ([TRIPLET], paper ref [7]).

The potential measures the favourability of each loop residue's (phi, psi)
pair given the residue-type triplet it sits in, using ``-log`` probability
tables derived from a loop library.  Evaluation is a pure table lookup, which
is why the paper's ``EvalTRIP`` kernel is by far the cheapest of the three
scoring kernels (Table II: 0.04% of GPU time).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.loops.loop import LoopTarget
from repro.scoring.base import ScoringFunction
from repro.scoring.knowledge import (
    KnowledgeBase,
    default_knowledge_base,
    torsion_bin,
    triplet_class_index,
)
from repro.scoring.pairwise import population_blocks

__all__ = ["TripletScore"]


class TripletScore(ScoringFunction):
    """Triplet torsion-angle scoring function bound to one loop target."""

    name = "TRIPLET"
    kernel_name = "EvalTRIP"
    #: Registers per thread of the corresponding CUDA kernel (paper Table III).
    registers_per_thread = 20

    def __init__(
        self,
        target: LoopTarget,
        knowledge_base: Optional[KnowledgeBase] = None,
    ) -> None:
        self.target = target
        self.knowledge_base = (
            knowledge_base if knowledge_base is not None else default_knowledge_base()
        )
        seq = target.sequence
        n = len(seq)
        # Pre-compute the triplet class of every loop residue.  Residues at
        # the loop boundary use their own type for the missing neighbour,
        # matching how the knowledge base was built.
        classes = np.empty(n, dtype=np.int64)
        for i in range(n):
            prev_aa = seq[i - 1] if i > 0 else seq[i]
            next_aa = seq[i + 1] if i + 1 < n else seq[i]
            classes[i] = triplet_class_index(prev_aa, seq[i], next_aa)
        self._classes = classes
        # Pre-slice the table rows for the loop's classes: (n, B, B).
        self._tables = self.knowledge_base.triplet_neg_log[classes]

    def evaluate(self, coords: np.ndarray, torsions: np.ndarray) -> float:
        """Sum of ``-log P(phi_i, psi_i | triplet class)`` over loop residues.

        An exact one-member special case of :meth:`evaluate_batch`.
        """
        torsions = np.asarray(torsions, dtype=np.float64)
        # The triplet potential never reads coordinates, but keep the batch
        # call shape-consistent with the other scorers when they are given.
        batch_coords = None if coords is None else np.asarray(coords)[None]
        return float(self.evaluate_batch(batch_coords, torsions[None])[0])

    def evaluate_batch(self, coords: np.ndarray, torsions: np.ndarray) -> np.ndarray:
        """Vectorised lookup over the whole population, in population chunks."""
        torsions = np.asarray(torsions, dtype=np.float64)
        pop = torsions.shape[0]
        totals = np.empty(pop, dtype=np.float64)
        residue_idx = np.arange(len(self._classes))[None, :]
        for block in population_blocks(pop):
            phi_bins = torsion_bin(torsions[block, 0::2])  # (B, n)
            psi_bins = torsion_bin(torsions[block, 1::2])  # (B, n)
            values = self._tables[residue_idx, phi_bins, psi_bins]  # (B, n)
            totals[block] = values.sum(axis=1)
        return totals
