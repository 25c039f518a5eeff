"""The MOSCEM multi-scoring-functions sampler (the paper's core algorithm).

MOSCEM (Multiobjective Shuffled Complex Evolution Metropolis, Vrugt et al.,
paper ref [9]) converts the multi-scoring-function space into a single
fitness landscape through Pareto-strength fitness assignment, partitions the
population into complexes, and evolves each complex with a Metropolis MCMC
chain; complexes are periodically re-assembled and re-partitioned.

Sub-modules:

* :mod:`~repro.moscem.population` — the population container.
* :mod:`~repro.moscem.dominance` — Pareto dominance and the strength-based
  fitness of Eq. (1).
* :mod:`~repro.moscem.complexes` — the deal-style complex partition /
  assembly of the paper's pseudocode.
* :mod:`~repro.moscem.mutation` — torsion mutation proposals.
* :mod:`~repro.moscem.metropolis` — the acceptance rule and the adaptive
  temperature schedule.
* :mod:`~repro.moscem.decoys` — decoy sets with the 30-degree distinctness
  rule.
* :mod:`~repro.moscem.trajectory` — snapshot recording for the
  front-evolution analysis (Fig. 5).
* :mod:`~repro.moscem.sampler` — the MOSCEM sampling loop itself.
* :mod:`~repro.moscem.baseline` — the single-objective simulated-annealing
  baseline the paper contrasts against (Section II).
"""

from repro.moscem.population import Population
from repro.moscem.dominance import (
    dominance_matrix,
    dominates,
    fitness_against,
    non_dominated_mask,
    strength_fitness,
)
from repro.moscem.complexes import assemble_population, partition_population
from repro.moscem.metropolis import TemperatureSchedule, metropolis_accept
from repro.moscem.mutation import mutate_population, mutate_torsions
from repro.moscem.decoys import Decoy, DecoySet
from repro.moscem.trajectory import TrajectoryRecorder, TrajectorySnapshot
from repro.moscem.sampler import MOSCEMSampler, SamplingResult
from repro.moscem.baseline import SimulatedAnnealingBaseline, BaselineResult

__all__ = [
    "Population",
    "dominates",
    "dominance_matrix",
    "non_dominated_mask",
    "strength_fitness",
    "fitness_against",
    "partition_population",
    "assemble_population",
    "TemperatureSchedule",
    "metropolis_accept",
    "mutate_torsions",
    "mutate_population",
    "Decoy",
    "DecoySet",
    "TrajectoryRecorder",
    "TrajectorySnapshot",
    "MOSCEMSampler",
    "SamplingResult",
    "SimulatedAnnealingBaseline",
    "BaselineResult",
]
