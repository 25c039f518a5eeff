"""Unit tests for the MOSCEM sampler and the single-objective baseline."""

import numpy as np
import pytest

from repro.analysis.aggregation import merge_decoy_sets
from repro.config import SamplingConfig
from repro.moscem.baseline import SimulatedAnnealingBaseline
from repro.moscem.decoys import DecoySet
from repro.moscem.sampler import MOSCEMSampler


@pytest.fixture(scope="module")
def small_run(small_target, small_multi_score, tiny_config):
    sampler = MOSCEMSampler(
        small_target, config=tiny_config, multi_score=small_multi_score,
        backend_kind="gpu",
    )
    return sampler.run(snapshot_iterations=(0, tiny_config.iterations))


class TestMOSCEMSampler:
    def test_result_shapes(self, small_run, tiny_config, small_target):
        population = small_run.population
        assert population.size == tiny_config.population_size
        assert population.scores.shape == (tiny_config.population_size, 3)
        assert population.fitness.shape == (tiny_config.population_size,)
        assert small_run.rmsd.shape == (tiny_config.population_size,)
        assert small_run.non_dominated.shape == (tiny_config.population_size,)
        assert population.coords.shape[1] == small_target.n_residues

    def test_histories_have_one_entry_per_iteration(self, small_run, tiny_config):
        assert len(small_run.acceptance_history) == tiny_config.iterations
        assert len(small_run.temperature_history) == tiny_config.iterations
        assert all(0.0 <= rate <= 1.0 for rate in small_run.acceptance_history)
        assert all(t > 0.0 for t in small_run.temperature_history)

    def test_non_dominated_front_exists(self, small_run):
        assert small_run.n_non_dominated() >= 1
        assert small_run.best_non_dominated_rmsd >= small_run.best_rmsd

    def test_fitness_identifies_front(self, small_run):
        fitness = small_run.population.fitness
        np.testing.assert_array_equal(fitness < 1.0, small_run.non_dominated)

    def test_snapshots_recorded(self, small_run, tiny_config):
        by_iteration = small_run.recorder.by_iteration()
        assert 0 in by_iteration
        assert tiny_config.iterations in by_iteration

    def test_ledgers_populated(self, small_run):
        assert small_run.kernel_ledger.total() > 0.0
        assert "CCD" in small_run.kernel_ledger.records
        assert small_run.host_ledger.total() > 0.0
        assert small_run.wall_seconds > 0.0
        assert small_run.backend_name == "gpu"

    def test_same_seed_reproduces_population(self, small_target, small_multi_score, tiny_config):
        a = MOSCEMSampler(
            small_target, config=tiny_config, multi_score=small_multi_score
        ).run(seed=5)
        b = MOSCEMSampler(
            small_target, config=tiny_config, multi_score=small_multi_score
        ).run(seed=5)
        np.testing.assert_allclose(a.population.torsions, b.population.torsions)
        np.testing.assert_allclose(a.population.scores, b.population.scores)

    def test_different_seed_changes_population(self, small_target, small_multi_score, tiny_config):
        a = MOSCEMSampler(
            small_target, config=tiny_config, multi_score=small_multi_score
        ).run(seed=5)
        b = MOSCEMSampler(
            small_target, config=tiny_config, multi_score=small_multi_score
        ).run(seed=6)
        assert not np.allclose(a.population.torsions, b.population.torsions)

    def test_closure_gate_keeps_population_at_least_as_closed(
        self, small_target, small_multi_score, tiny_config
    ):
        import dataclasses
        import math

        open_config = dataclasses.replace(tiny_config, closure_tolerance_factor=math.inf)
        gated = MOSCEMSampler(
            small_target, config=tiny_config, multi_score=small_multi_score
        ).run(seed=13)
        ungated = MOSCEMSampler(
            small_target, config=open_config, multi_score=small_multi_score
        ).run(seed=13)
        gated_errors = small_target.closure_error_batch(gated.population.closure)
        ungated_errors = small_target.closure_error_batch(ungated.population.closure)
        limit = tiny_config.ccd_tolerance * tiny_config.closure_tolerance_factor
        # With the gate, accepted replacements always satisfy the closure
        # condition, so the closed fraction can only be at least as large.
        assert np.mean(gated_errors <= limit) >= np.mean(ungated_errors <= limit)
        assert np.median(gated_errors) <= np.median(ungated_errors) + 1e-9

    def test_distinct_non_dominated_respects_threshold(self, small_run):
        decoys = small_run.distinct_non_dominated()
        assert len(decoys) <= small_run.n_non_dominated()
        loose = small_run.distinct_non_dominated(threshold=1e-6)
        assert len(loose) >= len(decoys)

    def test_cpu_backend_runs_end_to_end(self, small_target, small_multi_score):
        config = SamplingConfig(population_size=6, n_complexes=2, iterations=1, seed=1)
        result = MOSCEMSampler(
            small_target, config=config, multi_score=small_multi_score,
            backend_kind="cpu",
        ).run()
        assert result.backend_name == "cpu"
        assert result.population.size == 6

    def test_zero_iterations_still_produces_scored_population(
        self, small_target, small_multi_score
    ):
        config = SamplingConfig(population_size=6, n_complexes=2, iterations=0, seed=1)
        result = MOSCEMSampler(
            small_target, config=config, multi_score=small_multi_score
        ).run()
        assert result.population.scores.shape == (6, 3)
        assert result.acceptance_history == []


def _shard(rows, trajectory):
    """A decoy set holding one decoy per torsion row, tagged ``trajectory``."""
    decoys = DecoySet()
    for k, row in enumerate(rows):
        assert decoys.add(
            torsions=np.asarray(row, dtype=np.float64),
            coords=np.zeros((1, 4, 3)),
            scores=np.full(3, float(k)),
            rmsd=1.0 + k,
            trajectory=trajectory,
        )
    return decoys


class TestDecoyGeneration:
    """Decoy budgets across trajectories are :func:`merge_decoy_sets` views."""

    # a and b are distinct; c lies within 30 degrees of a; d is far from all.
    A, B, C, D = (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.1, 0.0, 0.0), (0.0, 2.0, 0.0)

    def _shards(self):
        return [_shard([self.A, self.B], 0), _shard([self.C, self.D], 1)]

    @staticmethod
    def _rows(decoys):
        return [tuple(d.torsions) for d in decoys]

    def test_union_keeps_shard_order(self):
        merged = merge_decoy_sets(self._shards())
        # Cross-shard near-duplicates survive a union merge.
        assert self._rows(merged) == [self.A, self.B, self.C, self.D]

    def test_distinct_only_drops_cross_shard_duplicates(self):
        merged = merge_decoy_sets(self._shards(), distinct_only=True)
        assert self._rows(merged) == [self.A, self.B, self.D]

    def test_decoy_cap_respected(self):
        capped = merge_decoy_sets(self._shards(), distinct_only=True, max_size=2)
        assert self._rows(capped) == [self.A, self.B]
        assert capped.full
        # The cap belongs to the distinct merge; a union keeps every decoy.
        assert len(merge_decoy_sets(self._shards(), max_size=2)) == 4

    def test_trajectory_provenance_survives_merge(self):
        union = merge_decoy_sets(self._shards())
        assert [d.trajectory for d in union] == [0, 0, 1, 1]
        distinct = merge_decoy_sets(self._shards(), distinct_only=True)
        assert [d.trajectory for d in distinct] == [0, 0, 1]
        assert [d.rmsd for d in distinct] == [1.0, 2.0, 2.0]

    def test_merge_accumulates_trajectories(
        self, small_target, small_multi_score
    ):
        config = SamplingConfig(population_size=12, n_complexes=4, iterations=2)
        sampler = MOSCEMSampler(
            small_target, config=config, multi_score=small_multi_score
        )
        shards = [
            sampler.run(seed=2 + k).distinct_non_dominated(trajectory=k)
            for k in range(3)
        ]
        decoys = merge_decoy_sets(shards, distinct_only=True, max_size=10)
        assert 1 <= len(decoys) <= 10
        assert np.all(decoys.rmsds() > 0.0)
        assert max(d.trajectory for d in decoys) <= 2


class TestSimulatedAnnealingBaseline:
    def test_run_shapes(self, small_target, small_multi_score, tiny_config):
        baseline = SimulatedAnnealingBaseline(
            small_target, config=tiny_config, multi_score=small_multi_score
        )
        result = baseline.run()
        assert result.torsions.shape == (tiny_config.population_size, small_target.n_torsions)
        assert result.scores.shape == (tiny_config.population_size,)
        assert result.rmsd.shape == (tiny_config.population_size,)
        assert len(result.best_score_history) == tiny_config.iterations + 1

    def test_best_score_history_non_increasing(self, small_target, small_multi_score, tiny_config):
        baseline = SimulatedAnnealingBaseline(
            small_target, config=tiny_config, multi_score=small_multi_score
        )
        history = np.array(baseline.run().best_score_history)
        # The population best composite score never gets worse... it can
        # fluctuate slightly because acceptance is stochastic per member, but
        # the final best must not exceed the initial best.
        assert history[-1] <= history[0] + 1e-9

    def test_committed_rmsd_at_least_best(self, small_target, small_multi_score, tiny_config):
        result = SimulatedAnnealingBaseline(
            small_target, config=tiny_config, multi_score=small_multi_score
        ).run()
        assert result.best_score_rmsd >= result.best_rmsd

    def test_cooling_validation(self, small_target, small_multi_score):
        with pytest.raises(ValueError):
            SimulatedAnnealingBaseline(
                small_target, multi_score=small_multi_score, cooling=1.5
            )

    def test_reproducible_with_seed(self, small_target, small_multi_score, tiny_config):
        a = SimulatedAnnealingBaseline(
            small_target, config=tiny_config, multi_score=small_multi_score
        ).run(seed=4)
        b = SimulatedAnnealingBaseline(
            small_target, config=tiny_config, multi_score=small_multi_score
        ).run(seed=4)
        np.testing.assert_allclose(a.scores, b.scores)
