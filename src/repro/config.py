"""Run-configuration dataclasses for the sampler and the experiment drivers.

The paper's headline runs use a population of 15,360 conformations split
into 120 complexes, evolved for 100 iterations.  Those numbers are far too
expensive for routine test runs, so every experiment driver accepts a
:class:`SamplingConfig` (and the benches construct scaled-down ones); the
defaults here are moderate laptop-scale values.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Tuple


@dataclasses.dataclass(frozen=True)
class SamplingConfig:
    """Parameters of a single MOSCEM sampling trajectory.

    Attributes
    ----------
    population_size:
        Number of loop conformations evolved in parallel (the paper's
        "number of threads").
    n_complexes:
        Number of complexes the population is partitioned into.  Must divide
        ``population_size``.
    iterations:
        Number of MOSCEM outer iterations (fitness assignment + complex
        evolution + assembly).
    ccd_tolerance:
        Anchor RMSD (A) below which the loop is considered closed.
    closure_tolerance_factor:
        Multiple of ``ccd_tolerance`` a proposal's closure error may reach
        and still be accepted: the Metropolis step only accepts proposals
        within it -- the paper's "reasonable loop models are those
        satisfying the loop closure condition".  ``math.inf`` admits every
        proposal (no closure gate).
    seed:
        Seed of the trajectory master RNG.

    The temperature schedule, mutation and CCD sweep budget take the
    defaults of :class:`~repro.moscem.metropolis.TemperatureSchedule`,
    :func:`~repro.moscem.mutation.mutate_population` and
    :func:`~repro.closure.ccd.ccd_close_batch`.
    """

    population_size: int = 256
    n_complexes: int = 8
    iterations: int = 20
    ccd_tolerance: float = 0.25
    closure_tolerance_factor: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size <= 0:
            raise ValueError("population_size must be positive")
        if self.n_complexes <= 0:
            raise ValueError("n_complexes must be positive")
        if self.population_size % self.n_complexes != 0:
            raise ValueError(
                "population_size (%d) must be divisible by n_complexes (%d)"
                % (self.population_size, self.n_complexes)
            )
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if not (0.0 < self.ccd_tolerance < math.inf):
            raise ValueError("ccd_tolerance must be positive and finite")
        # +inf is legal: the ungated step.  NaN fails the comparison.
        if not self.closure_tolerance_factor > 0.0:
            raise ValueError("closure_tolerance_factor must be positive")

    @property
    def complex_size(self) -> int:
        """Number of conformations per complex."""
        return self.population_size // self.n_complexes

    def scaled(self, factor: float) -> "SamplingConfig":
        """Return a copy with population and iterations scaled by ``factor``.

        The complex count is adjusted to keep roughly the paper's ratio of
        128 members per complex while still dividing the population size.
        """
        pop = max(self.n_complexes, int(round(self.population_size * factor)))
        pop -= pop % self.n_complexes
        pop = max(pop, self.n_complexes)
        iters = max(1, int(round(self.iterations * factor)))
        return dataclasses.replace(self, population_size=pop, iterations=iters)

    def with_seed(self, seed: int) -> "SamplingConfig":
        """Return a copy with a different RNG seed."""
        return dataclasses.replace(self, seed=seed)


@dataclasses.dataclass(frozen=True)
class PaperConfig:
    """The parameter set used for the paper's headline results."""

    population_size: int = 15360
    n_complexes: int = 120
    iterations: int = 100
    decoys_per_target: int = 1000
    benchmark_targets: int = 53

    def to_sampling_config(self, seed: int = 0) -> SamplingConfig:
        """Convert the paper's headline parameters to a ``SamplingConfig``."""
        return SamplingConfig(
            population_size=self.population_size,
            n_complexes=self.n_complexes,
            iterations=self.iterations,
            seed=seed,
        )


@dataclasses.dataclass(frozen=True)
class RuntimeConfig:
    """Parameters of the sharded multi-trajectory runtime layer.

    Attributes
    ----------
    workers:
        Worker processes the shard executor fans trajectories out to.
        ``1`` executes shards inline in the submitting process (useful for
        debugging and deterministic test runs).
    checkpoint_every:
        Sampler iterations between on-disk checkpoints of each shard.
        ``0`` disables checkpointing (a killed shard then restarts from
        scratch on resume).
    store_root:
        Directory of the persistent run store.
    backends:
        Default backend axis of a campaign: every cell runs on each kind
        (each worker builds its own backend through
        :func:`repro.backends.make_backend`).
    poll_seconds:
        Sleep between drain passes of the campaign daemon
        (:func:`repro.api.daemon.serve`).
    """

    workers: int = 2
    checkpoint_every: int = 5
    store_root: str = ".repro-runs"
    backends: Tuple[str, ...] = ("gpu",)
    poll_seconds: float = 2.0

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 disables)")
        if not self.backends:
            raise ValueError("backends must name at least one backend kind")
        if self.poll_seconds <= 0.0:
            raise ValueError("poll_seconds must be positive")
        object.__setattr__(self, "backends", tuple(self.backends))
