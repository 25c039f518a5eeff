"""Test-only oracle: the whole-population MOSCEM step.

This is :meth:`repro.moscem.sampler.MOSCEMSampler.step` as it shipped
before gate-first scoring, kept verbatim as the reference the production
step must reproduce bit for bit: every proposal is scored and
fitness-queried, and the closure gate is applied after the Metropolis
draws.  The production step scores and queries only the proposals the
gate admits.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.moscem.metropolis import metropolis_accept
from repro.moscem.mutation import mutate_population
from repro.moscem.sampler import MOSCEMSampler, SamplerState
from repro.utils.timing import TimingLedger


def step(
    sampler: MOSCEMSampler,
    state: SamplerState,
    host_ledger: Optional[TimingLedger] = None,
) -> float:
    """Advance one MOSCEM iteration in place; returns the acceptance rate."""
    config = sampler.config
    population = state.population
    schedule = state.schedule
    if host_ledger is None:
        host_ledger = TimingLedger()
    complex_layout = sampler._complex_layout

    # [FitAssg] over the whole population (kernel).
    population.fitness = sampler.backend.fitness_population(population.scores)
    sampler.backend.sync_to_host(population)

    # [FitSort] + [Partition] on the host.
    with host_ledger.section("FitSort"):
        order = np.argsort(population.fitness, kind="stable")
    with host_ledger.section("Partition"):
        complexes = [order[idx] for idx in complex_layout]

    # [Reproduction] on the host: propose a mutation for every member.
    with host_ledger.section("Reproduction"):
        proposals, ccd_starts = mutate_population(
            population.torsions, sampler.target.sequence, state.mutation_rng
        )
    sampler.backend.sync_to_device(population)

    # [CCD] + scoring kernels.
    ccd = sampler.backend.close_loops(proposals, ccd_starts)
    proposal_scores = sampler.backend.evaluate_scores(ccd.coords, ccd.torsions)

    # [FitAssg] within complexes + [Metropolis].
    current_fit, proposal_fit = sampler.backend.fitness_within_complexes(
        population.scores, proposal_scores, complexes
    )
    accept = metropolis_accept(
        current_fit, proposal_fit, schedule.temperature, state.metropolis_rng
    )
    # Only proposals satisfying the loop-closure condition are
    # admissible loop models (Section III.C of the paper).
    closed = ccd.closure_error <= (
        config.ccd_tolerance * config.closure_tolerance_factor
    )
    accept &= closed

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
