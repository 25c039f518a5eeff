"""Property: a checkpointed-and-resumed run equals an uninterrupted one.

The contract of :mod:`repro.runtime.checkpoint`: serialising the
:class:`~repro.moscem.sampler.SamplerState` at any iteration *k*, dropping
every in-memory object, and resuming from the on-disk checkpoint yields the
same final population (torsions, coordinates, closure, scores, fitness),
the same histories, and the same subsequent RNG draws as a run that was
never interrupted — bit-identical, not approximately equal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SamplingConfig
from repro.moscem.sampler import MOSCEMSampler
from repro.runtime import load_checkpoint, save_checkpoint

ITERATIONS = 6


def _make_sampler(small_target, small_multi_score, backend_kind):
    config = SamplingConfig(
        population_size=12, n_complexes=3, iterations=ITERATIONS, seed=0
    )
    return MOSCEMSampler(
        small_target,
        config=config,
        multi_score=small_multi_score,
        backend_kind=backend_kind,
    )


def _assert_results_identical(a, b):
    assert np.array_equal(a.population.torsions, b.population.torsions)
    assert np.array_equal(a.population.coords, b.population.coords)
    assert np.array_equal(a.population.closure, b.population.closure)
    assert np.array_equal(a.population.scores, b.population.scores)
    assert np.array_equal(a.population.fitness, b.population.fitness)
    assert np.array_equal(a.rmsd, b.rmsd)
    assert np.array_equal(a.non_dominated, b.non_dominated)
    assert a.acceptance_history == b.acceptance_history
    assert a.temperature_history == b.temperature_history


@pytest.mark.parametrize("checkpoint_at", [1, 3, ITERATIONS - 1])
@pytest.mark.parametrize("seed", [17, 404])
def test_resume_is_bit_identical(
    tmp_path, small_target, small_multi_score, checkpoint_at, seed
):
    reference = _make_sampler(small_target, small_multi_score, "gpu").run(seed=seed)

    # Interrupted run: checkpoint at iteration k, then abandon the process
    # state entirely (fresh sampler, fresh backend) and resume from disk.
    class Killed(Exception):
        pass

    interrupted = _make_sampler(small_target, small_multi_score, "gpu")

    def checkpoint_and_die(state):
        if state.iteration == checkpoint_at:
            save_checkpoint(tmp_path, state)
            raise Killed

    with pytest.raises(Killed):
        interrupted.run(seed=seed, on_iteration=checkpoint_and_die)

    resumer = _make_sampler(small_target, small_multi_score, "gpu")
    state = load_checkpoint(tmp_path, resumer)
    assert state.iteration == checkpoint_at
    resumed = resumer.run(state=state)

    _assert_results_identical(resumed, reference)


def test_resume_matches_across_rng_draws(tmp_path, small_target, small_multi_score):
    """The restored streams replay exactly the draws the original would make."""
    sampler = _make_sampler(small_target, small_multi_score, "gpu")
    state = sampler.initial_state(seed=3)
    sampler.step(state)
    sampler.step(state)
    save_checkpoint(tmp_path, state)

    restored = load_checkpoint(
        tmp_path, _make_sampler(small_target, small_multi_score, "gpu")
    )
    assert np.array_equal(
        state.mutation_rng.random(32), restored.mutation_rng.random(32)
    )
    assert np.array_equal(
        state.metropolis_rng.random(32), restored.metropolis_rng.random(32)
    )


def test_resume_on_cpu_backend(tmp_path, small_target, small_multi_score):
    """Checkpoint/resume is backend-agnostic (state lives on the host),
    including on the kernel-bundle path of the ``xp`` backend."""
    reference = _make_sampler(small_target, small_multi_score, "xp").run(seed=8)

    sampler = _make_sampler(small_target, small_multi_score, "xp")
    state = sampler.initial_state(seed=8)
    for _ in range(2):
        sampler.step(state)
    save_checkpoint(tmp_path, state)

    resumer = _make_sampler(small_target, small_multi_score, "xp")
    resumed = resumer.run(state=load_checkpoint(tmp_path, resumer))
    _assert_results_identical(resumed, reference)
