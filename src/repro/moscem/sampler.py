"""The MOSCEM sampling loop (Section III.D of the paper).

The sampler orchestrates one sampling *trajectory*:

1. initialise a random population of loop conformations, close every loop
   with CCD, and evaluate the three scoring functions;
2. per iteration: assign Pareto-strength fitness over the population, sort,
   deal the population into complexes, propose a mutated conformation for
   every member, close and score the proposals, and apply the Metropolis
   acceptance of each proposal against its complex; finally re-assemble the
   complexes and adapt the temperature from the acceptance rate;
3. harvest the structurally distinct non-dominated conformations as decoys.

The heavy kernels are delegated to a :class:`~repro.backends.base.SamplingBackend`
(CPU reference or simulated GPU); the host-side bookkeeping (sorting,
partitioning, mutation, assembly) is timed into the sampler's own ledger so
the Fig. 1 breakdown can be reproduced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.config import SamplingConfig
from repro.loops.loop import LoopTarget
from repro.loops.ramachandran import RamachandranModel
from repro.moscem.complexes import partition_population
from repro.moscem.decoys import DecoySet
from repro.moscem.dominance import non_dominated_mask
from repro.moscem.metropolis import TemperatureSchedule, metropolis_accept
from repro.moscem.mutation import mutate_population
from repro.moscem.population import Population
from repro.moscem.trajectory import TrajectoryRecorder
from repro.scoring.base import MultiScore
from repro.utils.rng import RandomStreams
from repro.utils.timing import TimingLedger

__all__ = ["MOSCEMSampler", "SamplerState", "SamplingResult"]


@dataclass
class SamplerState:
    """Everything one MOSCEM trajectory needs to continue bit-identically.

    The state after ``iteration`` completed iterations: the population
    (torsions, coordinates, closure atoms, scores, fitness), the adaptive
    temperature schedule, the per-iteration histories, and the live random
    generators of the two stochastic components (mutation proposals and
    Metropolis draws).  A trajectory resumed from a restored state replays
    the exact array contents and RNG draws of an uninterrupted run, which
    is what the checkpoint/resume layer in :mod:`repro.runtime` relies on.
    """

    iteration: int
    population: Population
    schedule: TemperatureSchedule
    mutation_rng: np.random.Generator
    metropolis_rng: np.random.Generator
    acceptance_history: List[float] = field(default_factory=list)
    temperature_history: List[float] = field(default_factory=list)
    seed: Optional[int] = None

    def rng_states(self) -> Dict[str, Dict[str, Any]]:
        """JSON-serialisable bit-generator states of the live streams."""
        return {
            "mutation": self.mutation_rng.bit_generator.state,
            "metropolis": self.metropolis_rng.bit_generator.state,
        }

    def restore_rng_states(self, states: Dict[str, Dict[str, Any]]) -> None:
        """Load previously captured bit-generator states into the streams."""
        for name, rng in (
            ("mutation", self.mutation_rng),
            ("metropolis", self.metropolis_rng),
        ):
            state = states[name]
            expected = rng.bit_generator.state["bit_generator"]
            if state.get("bit_generator") != expected:
                raise ValueError(
                    f"RNG state for {name!r} was produced by "
                    f"{state.get('bit_generator')!r}, expected {expected!r}"
                )
            rng.bit_generator.state = state

    # ------------------------------------------------------------------
    # Island-migration hooks (see :mod:`repro.islands`)
    # ------------------------------------------------------------------

    def emit_emigrants(self, indices: np.ndarray) -> Dict[str, np.ndarray]:
        """Copy the members at ``indices`` into an emigrant packet.

        Returns independent array copies (torsions, coordinates, closure
        atoms, scores), so the packet stays valid however the population
        evolves afterwards.  Selection policy lives in
        :mod:`repro.islands.policy`; this hook is a dumb row gather.
        """
        indices = np.asarray(indices, dtype=np.int64)
        population = self.population
        return {
            "indices": indices.copy(),
            "torsions": population.torsions[indices].copy(),
            "coords": population.coords[indices].copy(),
            "closure": population.closure[indices].copy(),
            "scores": population.scores[indices].copy(),
        }

    def absorb_immigrants(
        self, arrays: Dict[str, np.ndarray], slots: np.ndarray
    ) -> None:
        """Overwrite the members at ``slots`` with immigrant rows.

        The fitness vector is invalidated (set to ``None``) rather than
        patched: every consumer — the next :meth:`MOSCEMSampler.step`, the
        finalisation — recomputes it from the scores, and an explicit
        ``None`` round-trips through checkpoints identically to the live
        in-memory state, keeping resumed trajectories bit-identical.
        """
        slots = np.asarray(slots, dtype=np.int64)
        population = self.population
        population.torsions[slots] = arrays["torsions"]
        population.coords[slots] = arrays["coords"]
        population.closure[slots] = arrays["closure"]
        population.scores[slots] = arrays["scores"]
        population.fitness = None


@dataclass
class SamplingResult:
    """Outcome of one MOSCEM sampling trajectory.

    Attributes
    ----------
    population:
        The final population (torsions, coordinates, scores, fitness).
    rmsd:
        ``(P,)`` RMSD of every final member to the native loop.
    non_dominated:
        Boolean mask of the final Pareto-front members.
    recorder:
        The trajectory recorder (possibly empty if no snapshots requested).
    host_ledger / kernel_ledger:
        Timing breakdowns of the host-side sections and of the backend
        kernels respectively.
    acceptance_history / temperature_history:
        Per-iteration acceptance rates and temperatures.
    wall_seconds:
        Total wall-clock time of the trajectory.
    backend_name:
        Name of the backend the trajectory ran on.
    """

    population: Population
    rmsd: np.ndarray
    non_dominated: np.ndarray
    recorder: TrajectoryRecorder
    host_ledger: TimingLedger
    kernel_ledger: TimingLedger
    acceptance_history: List[float] = field(default_factory=list)
    temperature_history: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    backend_name: str = ""

    @property
    def best_rmsd(self) -> float:
        """Lowest RMSD in the final population."""
        return float(self.rmsd.min()) if self.rmsd.size else float("inf")

    @property
    def best_non_dominated_rmsd(self) -> float:
        """Lowest RMSD among the final non-dominated conformations."""
        masked = self.rmsd[self.non_dominated]
        return float(masked.min()) if masked.size else float("inf")

    def n_non_dominated(self) -> int:
        """Number of non-dominated conformations in the final population."""
        return int(self.non_dominated.sum())

    def distinct_non_dominated(
        self, threshold: Optional[float] = None, trajectory: int = 0
    ) -> DecoySet:
        """The structurally distinct non-dominated conformations as a decoy set.

        ``trajectory`` tags every harvested decoy with its trajectory (or
        shard) index, so cross-shard merges keep their provenance.
        """
        kwargs = {} if threshold is None else {"distinctness_threshold": threshold}
        decoys = DecoySet(**kwargs)
        indices = np.where(self.non_dominated)[0]
        # Harvest in order of increasing fitness so the most representative
        # members are kept when later ones fall within the 30-degree ball.
        if self.population.fitness is not None:
            indices = indices[np.argsort(self.population.fitness[indices])]
        for i in indices:
            decoys.add(
                torsions=self.population.torsions[i],
                coords=self.population.coords[i],
                scores=self.population.scores[i],
                rmsd=float(self.rmsd[i]),
                trajectory=trajectory,
            )
        return decoys


class MOSCEMSampler:
    """Multi-scoring-functions loop sampler."""

    def __init__(
        self,
        target: LoopTarget,
        config: Optional[SamplingConfig] = None,
        multi_score: Optional[MultiScore] = None,
        backend: Optional[object] = None,
        backend_kind: str = "gpu",
        ramachandran: Optional[RamachandranModel] = None,
    ) -> None:
        self.target = target
        self.config = config if config is not None else SamplingConfig()
        if multi_score is None:
            from repro.scoring import default_multi_score

            multi_score = default_multi_score(target)
        self.multi_score = multi_score
        if backend is None:
            from repro.backends import make_backend

            backend = make_backend(backend_kind, target, multi_score, self.config)
        self.backend = backend
        self.ramachandran = ramachandran if ramachandran is not None else RamachandranModel()
        # The complex layout is a pure function of the (frozen) config;
        # computed once rather than on every iteration.
        self._complex_layout = partition_population(
            self.config.population_size, self.config.n_complexes
        )

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------

    def initialize_population(self, rng: np.random.Generator) -> np.ndarray:
        """Draw the initial torsion population from the Ramachandran model."""
        return self.ramachandran.sample_population(
            self.target.sequence, self.config.population_size, rng
        )

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def initial_state(
        self, seed: Optional[int] = None, host_ledger: Optional[TimingLedger] = None
    ) -> SamplerState:
        """Initialise a trajectory: population, schedule and RNG streams.

        The returned :class:`SamplerState` sits at ``iteration == 0``, with
        the initial population closed, scored and fitness-assigned.
        """
        config = self.config
        effective_seed = config.seed if seed is None else seed
        streams = RandomStreams(effective_seed)
        mutation_rng = streams.get("mutation")
        metropolis_rng = streams.get("metropolis")
        init_rng = streams.get("initialization")
        if host_ledger is None:
            host_ledger = TimingLedger()

        schedule = TemperatureSchedule()

        with host_ledger.section("Initialization"):
            torsions = self.initialize_population(init_rng)
        population = self.backend.initialize(torsions)
        population.fitness = self.backend.fitness_population(population.scores)

        return SamplerState(
            iteration=0,
            population=population,
            schedule=schedule,
            mutation_rng=mutation_rng,
            metropolis_rng=metropolis_rng,
            seed=effective_seed,
        )

    def step(self, state: SamplerState, host_ledger: Optional[TimingLedger] = None) -> float:
        """Advance one MOSCEM iteration in place; returns the acceptance rate.

        One iteration is: population-wide fitness assignment, fitness sort
        and complex partition, mutation proposals, CCD closure, scoring and
        complex-wise fitness of the admissible proposals, Metropolis
        acceptance, assembly, and the temperature update.  The state's
        iteration counter is incremented after the iteration completes.
        """
        config = self.config
        population = state.population
        schedule = state.schedule
        if host_ledger is None:
            host_ledger = TimingLedger()
        complex_layout = self._complex_layout

        # [FitAssg] over the whole population (kernel).
        population.fitness = self.backend.fitness_population(population.scores)
        self.backend.sync_to_host(population)

        # [FitSort] + [Partition] on the host.
        with host_ledger.section("FitSort"):
            order = np.argsort(population.fitness, kind="stable")
        with host_ledger.section("Partition"):
            complexes = [order[idx] for idx in complex_layout]

        # [Reproduction] on the host: propose a mutation for every member.
        with host_ledger.section("Reproduction"):
            proposals, ccd_starts = mutate_population(
                population.torsions, self.target.sequence, state.mutation_rng
            )
        self.backend.sync_to_device(population)

        # [CCD] + scoring kernels.
        ccd = self.backend.close_loops(proposals, ccd_starts)
        # Only proposals satisfying the loop-closure condition are
        # admissible loop models (Section III.C of the paper).  The others
        # are rejected whatever they score, so only admissible proposals
        # are scored and fitness-queried.
        admissible = ccd.closure_error <= (
            config.ccd_tolerance * config.closure_tolerance_factor
        )
        proposal_scores = self.backend.evaluate_scores(
            ccd.coords, ccd.torsions, members=admissible
        )

        # [FitAssg] within complexes + [Metropolis].  Every member draws
        # its uniform whatever its fitness, so skipped proposals leave the
        # draws of the others, and the Metropolis stream, unchanged.
        current_fit, proposal_fit = self.backend.fitness_within_complexes(
            population.scores, proposal_scores, complexes, members=admissible
        )
        accept = metropolis_accept(
            current_fit, proposal_fit, schedule.temperature, state.metropolis_rng
        )
        accept &= admissible

        with host_ledger.section("Assemble"):
            accepted = np.where(accept)[0]
            if accepted.size:
                population.torsions[accepted] = ccd.torsions[accepted]
                population.coords[accepted] = ccd.coords[accepted]
                population.closure[accepted] = ccd.closure[accepted]
                population.scores[accepted] = proposal_scores[accepted]

        rate = float(accept.mean())
        state.acceptance_history.append(rate)
        state.temperature_history.append(schedule.temperature)
        schedule.update(rate)
        state.iteration += 1
        return rate

    def finalize_state(
        self,
        state: SamplerState,
        recorder: Optional[TrajectoryRecorder] = None,
        host_ledger: Optional[TimingLedger] = None,
        wall_seconds: float = 0.0,
    ) -> SamplingResult:
        """Wrap up a trajectory: final fitness, readback and result packing."""
        population = state.population
        population.fitness = self.backend.fitness_population(population.scores)
        self.backend.finalize(population)
        rmsd = self.target.rmsd_to_native_batch(population.coords)
        return SamplingResult(
            population=population,
            rmsd=rmsd,
            non_dominated=non_dominated_mask(population.scores),
            recorder=recorder if recorder is not None else TrajectoryRecorder(),
            host_ledger=host_ledger if host_ledger is not None else TimingLedger(),
            kernel_ledger=self.backend.ledger,
            acceptance_history=state.acceptance_history,
            temperature_history=state.temperature_history,
            wall_seconds=wall_seconds,
            backend_name=self.backend.name,
        )

    def run(
        self,
        seed: Optional[int] = None,
        snapshot_iterations: Sequence[int] = (),
        state: Optional[SamplerState] = None,
        on_iteration: Optional[Callable[[SamplerState], None]] = None,
        host_ledger: Optional[TimingLedger] = None,
    ) -> SamplingResult:
        """Run one sampling trajectory (possibly resuming a restored state).

        Parameters
        ----------
        seed:
            Optional override of the configuration seed (ignored when
            ``state`` is given — the state carries its own RNG streams).
        snapshot_iterations:
            Iterations at which the non-dominated set is recorded (0 records
            the state right after initialisation), used by the Fig. 5
            experiment.
        state:
            A previously captured :class:`SamplerState` to continue from
            (e.g. one restored from an on-disk checkpoint).  The trajectory
            proceeds from ``state.iteration`` to ``config.iterations``; the
            final population, scores, histories and RNG draws are
            bit-identical to a run that was never interrupted.  Note that
            the *recorder* only covers the resumed segment: snapshots for
            iterations at or before ``state.iteration`` (including 0) were
            taken by the interrupted process and are not replayed.
        on_iteration:
            Optional hook called with the live state after every completed
            iteration — the attachment point for periodic checkpointing.
        host_ledger:
            Ledger timing the host-side sections (fresh by default).
        """
        config = self.config
        if host_ledger is None:
            host_ledger = TimingLedger()
        recorder = TrajectoryRecorder(iterations=snapshot_iterations)

        start = time.perf_counter()

        if state is None:
            state = self.initial_state(seed=seed, host_ledger=host_ledger)
            if recorder.wants(0):
                rmsd0 = self.target.rmsd_to_native_batch(state.population.coords)
                recorder.record(
                    0, state.population.scores, rmsd0, state.schedule.temperature, 0.0
                )

        while state.iteration < config.iterations:
            rate = self.step(state, host_ledger=host_ledger)
            if recorder.wants(state.iteration):
                rmsd_now = self.target.rmsd_to_native_batch(state.population.coords)
                recorder.record(
                    state.iteration,
                    state.population.scores,
                    rmsd_now,
                    state.schedule.temperature,
                    rate,
                )
            if on_iteration is not None:
                on_iteration(state)

        wall = time.perf_counter() - start
        return self.finalize_state(
            state, recorder=recorder, host_ledger=host_ledger, wall_seconds=wall
        )
