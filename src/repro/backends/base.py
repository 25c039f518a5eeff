"""Common interface of the sampling backends.

A backend owns the *kernels* of the sampler — the operations the paper
migrates to the GPU: loop closure ([CCD]), the three scoring-function
evaluations ([EvalVDW], [EvalDIST], [EvalTRIP]) and the fitness assignments
([FitAssg] within the population and within the complexes).  Host-side
components (sorting, partitioning, assembling, mutation bookkeeping) remain
in the sampler.

Every kernel call is timed into the backend's :class:`TimingLedger` under
the paper's kernel names, so the profiling experiments (Fig. 1, Table II)
can be generated from either backend.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Tuple

import numpy as np

from repro.closure.ccd import CCDResult
from repro.config import SamplingConfig
from repro.loops.loop import LoopTarget
from repro.moscem.population import Population
from repro.scoring.base import MultiScore
from repro.utils.timing import TimingLedger

__all__ = ["SamplingBackend"]


class SamplingBackend(abc.ABC):
    """Abstract backend executing the sampler's computational kernels."""

    #: Human-readable backend name (used in reports and benchmarks).
    name: str = "backend"

    def __init__(
        self,
        target: LoopTarget,
        multi_score: MultiScore,
        config: SamplingConfig,
        ledger: Optional[TimingLedger] = None,
    ) -> None:
        self.target = target
        self.multi_score = multi_score
        self.config = config
        self.ledger = ledger if ledger is not None else TimingLedger()

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def close_loops(
        self, torsions: np.ndarray, start_indices: Optional[np.ndarray] = None
    ) -> CCDResult:
        """Run CCD loop closure over the whole population ([CCD])."""

    @abc.abstractmethod
    def evaluate_scores(
        self,
        coords: np.ndarray,
        torsions: np.ndarray,
        members: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Evaluate every scoring function over the population.

        Returns a ``(P, K)`` score matrix ([EvalVDW] / [EvalDIST] /
        [EvalTRIP]).  ``members``, a ``(P,)`` boolean mask, restricts the
        rows that must be scored; the others may hold anything.
        """

    @abc.abstractmethod
    def fitness_population(self, scores: np.ndarray) -> np.ndarray:
        """Pareto-strength fitness over the whole population ([FitAssg])."""

    @abc.abstractmethod
    def fitness_within_complexes(
        self,
        population_scores: np.ndarray,
        proposal_scores: np.ndarray,
        complex_indices: List[np.ndarray],
        members: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fitness of current members and proposals against their complexes.

        Returns ``(current_fitness, proposal_fitness)``, both of shape
        ``(P,)``, where each member/proposal is evaluated against the
        members of the complex it was dealt to ([FitAssg] within Complex).
        ``members``, a ``(P,)`` boolean mask, restricts the proposals that
        must be evaluated; the others get a finite fitness.
        """

    # ------------------------------------------------------------------
    # Composite operations
    # ------------------------------------------------------------------

    def initialize(self, torsions: np.ndarray) -> Population:
        """Close and score an initial torsion population, returning it packed."""
        ccd = self.close_loops(torsions)
        scores = self.evaluate_scores(ccd.coords, ccd.torsions)
        return Population(
            torsions=ccd.torsions,
            coords=ccd.coords,
            closure=ccd.closure,
            scores=scores,
        )

    # ------------------------------------------------------------------
    # Host synchronisation hooks (no-ops except for the GPU backend)
    # ------------------------------------------------------------------

    def sync_to_host(self, population: Population) -> None:
        """Record any device-to-host transfer needed before host-side steps."""

    def sync_to_device(self, population: Population) -> None:
        """Record any host-to-device transfer needed after host-side steps."""

    def finalize(self, population: Population) -> None:
        """Record the final device-to-host readback at the end of a run."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.__class__.__name__}(target={self.target.name!r}, "
            f"population={self.config.population_size})"
        )
