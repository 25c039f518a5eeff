"""Single-objective global-optimisation baseline.

Section II of the paper contrasts multi-scoring-function *sampling* against
the traditional strategy of globally optimising a single (possibly
composite) scoring function.  This module provides that baseline: a
population-based simulated-annealing optimiser of a weighted-sum composite
score, sharing the mutation and CCD machinery with MOSCEM so that the
comparison isolates the multi-objective aspect.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.config import SamplingConfig
from repro.loops.loop import LoopTarget
from repro.loops.ramachandran import RamachandranModel
from repro.moscem.metropolis import TemperatureSchedule
from repro.moscem.mutation import mutate_population
from repro.scoring.base import MultiScore, ScoringFunction
from repro.scoring.composite import WeightedSumScore
from repro.utils.rng import RandomStreams

__all__ = ["SimulatedAnnealingBaseline", "BaselineResult"]


@dataclass
class BaselineResult:
    """Outcome of a single-objective baseline run."""

    torsions: np.ndarray
    coords: np.ndarray
    scores: np.ndarray
    rmsd: np.ndarray
    best_score_history: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def best_rmsd(self) -> float:
        """Lowest RMSD in the final population."""
        return float(self.rmsd.min()) if self.rmsd.size else float("inf")

    @property
    def best_score_rmsd(self) -> float:
        """RMSD of the single lowest-scoring (i.e. "predicted") conformation.

        This is the metric a global optimiser is judged by: it must commit
        to its minimum-score structure, whereas the multi-scoring sampler
        can return a whole diversified decoy set.
        """
        if self.scores.size == 0:
            return float("inf")
        return float(self.rmsd[int(np.argmin(self.scores))])


class SimulatedAnnealingBaseline:
    """Population simulated annealing on a weighted-sum composite score."""

    def __init__(
        self,
        target: LoopTarget,
        config: Optional[SamplingConfig] = None,
        objective: Optional[ScoringFunction] = None,
        multi_score: Optional[MultiScore] = None,
        cooling: float = 0.95,
        ramachandran: Optional[RamachandranModel] = None,
    ) -> None:
        self.target = target
        self.config = config if config is not None else SamplingConfig()
        if objective is None:
            if multi_score is None:
                from repro.scoring import default_multi_score

                multi_score = default_multi_score(target)
            objective = WeightedSumScore(multi_score)
        self.objective = objective
        if not (0.0 < cooling < 1.0):
            raise ValueError("cooling must be in (0, 1)")
        self.cooling = cooling
        self.ramachandran = ramachandran if ramachandran is not None else RamachandranModel()

    def run(self, seed: Optional[int] = None) -> BaselineResult:
        """Run the annealing optimisation and return the final population."""
        from repro.closure.ccd import ccd_close_batch

        config = self.config
        streams = RandomStreams(config.seed if seed is None else seed)
        init_rng = streams.get("initialization")
        mutation_rng = streams.get("mutation")
        metropolis_rng = streams.get("metropolis")

        start = time.perf_counter()

        torsions = self.ramachandran.sample_population(
            self.target.sequence, config.population_size, init_rng
        )
        ccd = ccd_close_batch(
            torsions,
            self.target,
            tolerance=config.ccd_tolerance,
        )
        torsions, coords = ccd.torsions, ccd.coords
        scores = self.objective.evaluate_batch(coords, torsions)

        temperature = TemperatureSchedule().temperature
        history: List[float] = [float(scores.min())]

        for _iteration in range(config.iterations):
            proposals, starts = mutate_population(
                torsions, self.target.sequence, mutation_rng
            )
            ccd = ccd_close_batch(
                proposals,
                self.target,
                start_indices=starts,
                tolerance=config.ccd_tolerance,
            )
            proposal_scores = self.objective.evaluate_batch(ccd.coords, ccd.torsions)

            delta = proposal_scores - scores
            probability = np.where(delta <= 0.0, 1.0, np.exp(-delta / max(temperature, 1e-9)))
            accept = metropolis_rng.random(size=probability.shape) < probability

            torsions = np.where(accept[:, None], ccd.torsions, torsions)
            coords = np.where(accept[:, None, None, None], ccd.coords, coords)
            scores = np.where(accept, proposal_scores, scores)

            temperature *= self.cooling
            history.append(float(scores.min()))

        rmsd = self.target.rmsd_to_native_batch(coords)
        return BaselineResult(
            torsions=torsions,
            coords=coords,
            scores=scores,
            rmsd=rmsd,
            best_score_history=history,
            wall_seconds=time.perf_counter() - start,
        )
