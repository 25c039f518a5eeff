"""Property: the gate-first MOSCEM step equals the whole-population oracle.

:meth:`repro.moscem.sampler.MOSCEMSampler.step` scores and
fitness-queries only the proposals the closure gate admits;
``step_oracle`` keeps the step that scored every proposal.  Fixed-seed
trajectories must agree bit for bit (``np.array_equal``) on the
population (torsions, coordinates, closure atoms, scores, fitness), the
acceptance and temperature histories and both RNG streams -- on the gpu
and xp backends, with the gate on and off (``closure_tolerance_factor``
``inf``), at 1 and 2 member threads.  Steps in which no proposal, or
every proposal, is admissible still launch every scorer exactly once.
"""

from __future__ import annotations

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import repro.closure.ccd as ccd_module
import step_oracle as oracle
from repro.backends import make_backend
from repro.backends.gpu import BatchedBackend
from repro.config import SamplingConfig
from repro.loops.ramachandran import RamachandranModel
from repro.moscem.sampler import MOSCEMSampler
from repro.scoring import default_multi_score, pairwise
from repro.scoring.pairwise import using_member_threads
from repro.xp import numpy_kernels

CONFIG = SamplingConfig(population_size=96, n_complexes=4, iterations=3, seed=11)
SCORERS = ("EvalVDW", "EvalDIST", "EvalTRIP")


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    """Blocks of 7 members, so the scored subsets span several blocks."""
    monkeypatch.setattr(pairwise, "DEFAULT_BLOCK_SIZE", 7)


def _sampler(target, knowledge_base, config, kind="gpu"):
    multi = default_multi_score(target, knowledge_base=knowledge_base)
    backend = make_backend(kind, target, multi, config)
    return MOSCEMSampler(target, config, backend=backend)


def _trajectories(target, knowledge_base, config, kind="gpu", threads=1):
    """The same seeded trajectory stepped by production and by the oracle."""
    states, gates = [], []
    for step in (MOSCEMSampler.step, oracle.step):
        sampler = _sampler(target, knowledge_base, config, kind)
        close = sampler.backend.close_loops
        errors = []

        def recording(torsions, start_indices=None, close=close, errors=errors):
            result = close(torsions, start_indices)
            errors.append(result.closure_error.copy())
            return result

        sampler.backend.close_loops = recording
        with using_member_threads(threads):
            state = sampler.initial_state()
            for _ in range(config.iterations):
                step(sampler, state)
        states.append(state)
        limit = config.ccd_tolerance * config.closure_tolerance_factor
        gates.append([int((e <= limit).sum()) for e in errors[1:]])
    assert gates[0] == gates[1]
    return states[0], states[1], gates[0]


def assert_same_state(new, old):
    for field in ("torsions", "coords", "closure", "scores", "fitness"):
        assert np.array_equal(
            getattr(new.population, field), getattr(old.population, field)
        ), field
    assert new.acceptance_history == old.acceptance_history
    assert new.temperature_history == old.temperature_history
    assert new.rng_states() == old.rng_states()
    assert new.iteration == old.iteration


@pytest.fixture()
def small_stripes(monkeypatch):
    """Stripes of any size, so the small population splits across threads."""
    monkeypatch.setattr(ccd_module, "_MIN_STRIPE", 1)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "factor", [CONFIG.closure_tolerance_factor, math.inf], ids=["gate", "no-gate"]
)
@pytest.mark.parametrize("kind", ["gpu", "xp"])
def test_trajectory_equals_oracle(
    paper_target, knowledge_base, small_stripes, kind, factor, threads
):
    config = replace(CONFIG, closure_tolerance_factor=factor)
    new, old, admitted = _trajectories(
        paper_target, knowledge_base, config, kind, threads
    )
    assert_same_state(new, old)
    if factor == math.inf:
        # No gate: every proposal is scored and may be accepted.
        assert admitted == [config.population_size] * config.iterations
    else:
        # The gate both admitted and rejected proposals: the skipped rows
        # were exercised.
        assert all(0 < count < config.population_size for count in admitted)
    assert any(rate > 0.0 for rate in new.acceptance_history)


@pytest.mark.parametrize(
    "factor, admitted", [(1e-12, 0), (1e12, CONFIG.population_size)],
    ids=["all-rejected", "all-admitted"],
)
def test_extreme_gates_launch_every_scorer_once(
    paper_target, knowledge_base, factor, admitted
):
    config = replace(CONFIG, closure_tolerance_factor=factor, iterations=1)
    sampler = _sampler(paper_target, knowledge_base, config)
    state = sampler.initial_state()
    records = sampler.backend.ledger.records
    before = {name: records[name].calls for name in SCORERS + ("CCD",)}
    sampler.step(state)
    for name in SCORERS + ("CCD", "FitAssg within Complex"):
        assert records[name].calls - before.get(name, 0) == 1, name

    new, old, gates = _trajectories(paper_target, knowledge_base, config)
    assert gates == [admitted]
    assert_same_state(new, old)
    if admitted == 0:
        assert new.acceptance_history == [0.0]


class _CompilingBundle:
    """The numpy bundle posing as a jit namespace."""

    def __init__(self):
        self._kernels = numpy_kernels()
        self.namespace = SimpleNamespace(name="numpy", can_jit=True)

    def __getattr__(self, name):
        return getattr(self._kernels, name)


def test_compiling_namespace_scores_whole_population(paper_target, knowledge_base):
    """A jit namespace scores every proposal, one shape per kernel,
    whatever the gate admits; an eager one only the admitted."""
    pop = 24
    torsions = RamachandranModel().sample_population(
        paper_target.sequence, pop, np.random.default_rng(5)
    )
    mask = np.arange(pop) % 3 == 0
    shapes = {}
    for name, kernels in (("jit", _CompilingBundle()), ("eager", numpy_kernels())):
        multi = default_multi_score(paper_target, knowledge_base=knowledge_base)
        backend = BatchedBackend(paper_target, multi, CONFIG, kernels=kernels)
        closed = backend.close_loops(torsions)
        seen = shapes.setdefault(name, [])
        score = backend._score
        backend._score = lambda fn, coords, torsions: (
            seen.append(coords.shape[0]) or score(fn, coords, torsions)
        )
        whole = backend.evaluate_scores(closed.coords, closed.torsions)
        scores = backend.evaluate_scores(closed.coords, closed.torsions, members=mask)
        assert np.array_equal(scores[mask], whole[mask])
        if name == "jit":
            assert np.array_equal(scores, whole)
    assert shapes["jit"] == [pop] * 6
    assert shapes["eager"] == [pop] * 3 + [int(mask.sum())] * 3
