"""Unit tests for MOSCEM building blocks: population, complexes, mutation,
Metropolis acceptance, decoy sets and trajectory recording."""

import math

import numpy as np
import pytest

from repro import constants
from repro.moscem.complexes import (
    assemble_population,
    complex_of_member,
    partition_population,
)
from repro.moscem.decoys import Decoy, DecoySet
from repro.moscem.metropolis import TemperatureSchedule, metropolis_accept
from repro.moscem.mutation import mutate_population, mutate_torsions
from repro.moscem.population import Population
from repro.moscem.trajectory import TrajectoryRecorder


def _toy_population(pop: int = 6, n: int = 4, k: int = 3, seed: int = 0) -> Population:
    rng = np.random.default_rng(seed)
    return Population(
        torsions=rng.uniform(-np.pi, np.pi, size=(pop, 2 * n)),
        coords=rng.normal(size=(pop, n, 4, 3)),
        closure=rng.normal(size=(pop, 3, 3)),
        scores=rng.normal(size=(pop, k)),
    )


class TestPopulation:
    def test_basic_properties(self):
        population = _toy_population(pop=6, n=4, k=3)
        assert population.size == 6
        assert population.n_objectives == 3
        assert population.n_residues == 4
        assert population.fitness is None

    def test_shape_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            Population(
                torsions=rng.normal(size=(6, 8)),
                coords=rng.normal(size=(5, 4, 4, 3)),
                closure=rng.normal(size=(6, 3, 3)),
                scores=rng.normal(size=(6, 3)),
            )
        with pytest.raises(ValueError):
            Population(
                torsions=rng.normal(size=(6, 8)),
                coords=rng.normal(size=(6, 4, 4, 3)),
                closure=rng.normal(size=(6, 3, 3)),
                scores=rng.normal(size=(6, 3)),
                fitness=np.zeros(5),
            )

    def test_select_and_replace(self):
        population = _toy_population()
        subset = population.select(np.array([0, 2]))
        assert subset.size == 2
        np.testing.assert_array_equal(subset.torsions[1], population.torsions[2])
        # Replacing writes back into the right slots.
        subset.torsions[:] = 0.0
        subset.scores[:] = -1.0
        population.replace(np.array([0, 2]), subset)
        np.testing.assert_array_equal(population.torsions[0], np.zeros(8))
        np.testing.assert_array_equal(population.scores[2], -np.ones(3))

    def test_replace_size_mismatch(self):
        population = _toy_population()
        with pytest.raises(ValueError):
            population.replace(np.array([0]), population.select(np.array([0, 1])))

    def test_select_returns_copies(self):
        population = _toy_population()
        subset = population.select(np.array([1]))
        subset.torsions[0, 0] = 99.0
        assert population.torsions[1, 0] != 99.0

    def test_copy_is_deep(self):
        population = _toy_population()
        clone = population.copy()
        clone.scores[0, 0] = 123.0
        assert population.scores[0, 0] != 123.0

    def test_non_dominated_and_nbytes(self):
        population = _toy_population()
        mask = population.non_dominated()
        assert mask.shape == (population.size,)
        assert mask.any()
        assert population.nbytes() > 0


class TestComplexPartition:
    def test_card_dealing_layout(self):
        complexes = partition_population(12, 3)
        assert len(complexes) == 3
        np.testing.assert_array_equal(complexes[0], [0, 3, 6, 9])
        np.testing.assert_array_equal(complexes[1], [1, 4, 7, 10])
        np.testing.assert_array_equal(complexes[2], [2, 5, 8, 11])

    def test_every_member_appears_exactly_once(self):
        complexes = partition_population(24, 6)
        perm = assemble_population(complexes, 24)
        assert sorted(perm.tolist()) == list(range(24))

    def test_invalid_partitions_rejected(self):
        with pytest.raises(ValueError):
            partition_population(10, 3)
        with pytest.raises(ValueError):
            partition_population(0, 2)

    def test_assemble_detects_missing_members(self):
        complexes = partition_population(12, 3)
        with pytest.raises(ValueError):
            assemble_population(complexes[:2], 12)
        with pytest.raises(ValueError):
            assemble_population([], 0)

    def test_assemble_detects_duplicates(self):
        with pytest.raises(ValueError):
            assemble_population([np.array([0, 1]), np.array([1, 2])], 4)

    def test_complex_of_member(self):
        assert complex_of_member(0, 4) == 0
        assert complex_of_member(5, 4) == 1
        with pytest.raises(ValueError):
            complex_of_member(-1, 4)


class TestMutation:
    def test_mutation_changes_selected_angles_only_locally(self, rng):
        torsions = np.zeros(12)
        mutated, ccd_start = mutate_torsions(
            torsions, "ACDEFG", rng, n_angles=2, basin_hop_probability=0.0
        )
        changed = np.flatnonzero(~np.isclose(mutated, torsions))
        assert 1 <= changed.size <= 2
        assert 0 <= ccd_start < 12
        assert ccd_start >= changed.max()

    def test_basin_hop_redraws_whole_residues(self):
        rng = np.random.default_rng(1)
        torsions = np.zeros(12)
        mutated, _ = mutate_torsions(
            torsions, "ACDEFG", rng, n_angles=2, basin_hop_probability=1.0
        )
        changed = np.flatnonzero(~np.isclose(mutated, torsions))
        # A basin hop rewrites a full (phi, psi) pair.
        assert changed.size in (1, 2)
        if changed.size == 2:
            assert changed[0] % 2 == 0
            assert changed[1] == changed[0] + 1

    def test_mutation_sigma_default_is_thirty_degrees(self):
        """The sampler mutates with ``mutate_population``'s defaults."""
        import inspect

        sigma = inspect.signature(mutate_population).parameters["sigma"].default
        assert sigma == math.radians(30.0)

    def test_angles_stay_wrapped(self, rng):
        torsions = np.full(12, math.pi - 1e-3)
        mutated, _ = mutate_torsions(
            torsions, "ACDEFG", rng, n_angles=6, sigma=2.0, basin_hop_probability=0.0
        )
        assert np.all(mutated > -math.pi)
        assert np.all(mutated <= math.pi)

    def test_sequence_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            mutate_torsions(np.zeros(11), "ACDEFG", rng)

    def test_population_mutation_shapes_and_determinism(self):
        torsions = np.zeros((5, 12))
        a, starts_a = mutate_population(torsions, "ACDEFG", np.random.default_rng(3))
        b, starts_b = mutate_population(torsions, "ACDEFG", np.random.default_rng(3))
        assert a.shape == (5, 12)
        assert starts_a.shape == (5,)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(starts_a, starts_b)

    def test_population_mutation_changes_every_member(self):
        torsions = np.zeros((8, 12))
        mutated, _ = mutate_population(torsions, "ACDEFG", np.random.default_rng(5))
        changed_per_member = np.any(~np.isclose(mutated, torsions), axis=1)
        assert np.all(changed_per_member)


class TestMetropolis:
    def test_always_accept_improvements(self, rng):
        current = np.ones(100)
        proposed = np.zeros(100)
        accept = metropolis_accept(current, proposed, 0.5, rng)
        assert np.all(accept)

    def test_equal_fitness_always_accepted(self, rng):
        fitness = np.ones(50)
        assert np.all(metropolis_accept(fitness, fitness, 0.5, rng))

    def test_worse_proposals_accepted_with_boltzmann_rate(self):
        rng = np.random.default_rng(7)
        current = np.zeros(20000)
        proposed = np.full(20000, 0.5)
        accept = metropolis_accept(current, proposed, 1.0, rng)
        assert accept.mean() == pytest.approx(math.exp(-0.5), abs=0.02)

    def test_lower_temperature_accepts_fewer_worse_moves(self):
        current = np.zeros(20000)
        proposed = np.full(20000, 0.5)
        hot = metropolis_accept(current, proposed, 2.0, np.random.default_rng(1)).mean()
        cold = metropolis_accept(current, proposed, 0.2, np.random.default_rng(1)).mean()
        assert cold < hot

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            metropolis_accept(np.zeros(3), np.zeros(3), 0.0, rng)
        with pytest.raises(ValueError):
            metropolis_accept(np.zeros(3), np.zeros(4), 1.0, rng)


class TestTemperatureSchedule:
    def test_heats_up_when_acceptance_too_low(self):
        schedule = TemperatureSchedule(temperature=1.0, target_acceptance=0.3)
        new = schedule.update(0.1)
        assert new > 1.0

    def test_cools_down_when_acceptance_too_high(self):
        schedule = TemperatureSchedule(temperature=1.0, target_acceptance=0.3)
        new = schedule.update(0.9)
        assert new < 1.0

    def test_on_target_leaves_temperature(self):
        schedule = TemperatureSchedule(temperature=1.0, target_acceptance=0.3)
        assert schedule.update(0.3) == pytest.approx(1.0)

    def test_bounds_respected(self):
        schedule = TemperatureSchedule(temperature=1.0, minimum=0.5, maximum=2.0)
        for _ in range(20):
            schedule.update(0.0)
        assert schedule.temperature == pytest.approx(2.0)
        for _ in range(20):
            schedule.update(1.0)
        assert schedule.temperature == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            TemperatureSchedule(temperature=-1.0)
        with pytest.raises(ValueError):
            TemperatureSchedule(target_acceptance=0.0)
        with pytest.raises(ValueError):
            TemperatureSchedule(adjustment=1.0)
        with pytest.raises(ValueError):
            TemperatureSchedule(minimum=2.0, maximum=1.0)
        schedule = TemperatureSchedule()
        with pytest.raises(ValueError):
            schedule.update(1.5)


class TestDecoySet:
    def _decoy_args(self, torsions):
        n = torsions.shape[0] // 2
        return dict(
            torsions=torsions,
            coords=np.zeros((n, 4, 3)),
            scores=np.array([1.0, 2.0, 3.0]),
            rmsd=1.0,
        )

    def test_first_decoy_always_added(self):
        decoys = DecoySet()
        assert decoys.add(**self._decoy_args(np.zeros(8)))
        assert len(decoys) == 1

    def test_near_duplicate_rejected(self):
        decoys = DecoySet()
        decoys.add(**self._decoy_args(np.zeros(8)))
        nearly = np.full(8, math.radians(10.0))
        assert not decoys.add(**self._decoy_args(nearly))
        assert len(decoys) == 1

    def test_distinct_conformation_added(self):
        decoys = DecoySet()
        decoys.add(**self._decoy_args(np.zeros(8)))
        distinct = np.zeros(8)
        distinct[3] = math.radians(45.0)
        assert decoys.add(**self._decoy_args(distinct))
        assert len(decoys) == 2

    def test_distinctness_uses_wrapped_angles(self):
        decoys = DecoySet()
        decoys.add(**self._decoy_args(np.full(8, math.pi - 0.01)))
        # -pi + 0.01 is only 0.02 rad away from pi - 0.01 once wrapped.
        wrapped_close = np.full(8, -math.pi + 0.01)
        assert not decoys.is_distinct(wrapped_close)

    def test_threshold_default_is_paper_value(self):
        assert DecoySet().distinctness_threshold == pytest.approx(
            constants.DECOY_DISTINCTNESS_THRESHOLD
        )

    def test_max_size_enforced(self):
        decoys = DecoySet(max_size=2)
        for i in range(4):
            torsions = np.zeros(8)
            torsions[0] = i * 1.0
            decoys.add(**self._decoy_args(torsions))
        assert len(decoys) == 2
        assert decoys.full

    def test_statistics_helpers(self):
        decoys = DecoySet()
        for i, rmsd in enumerate([0.8, 1.2, 2.0]):
            torsions = np.zeros(8)
            torsions[0] = i * 1.0
            decoys.add(
                torsions=torsions,
                coords=np.zeros((4, 4, 3)),
                scores=np.array([float(i), 1.0, 2.0]),
                rmsd=rmsd,
            )
        assert decoys.best_rmsd() == pytest.approx(0.8)
        assert decoys.count_below(1.5) == 2
        assert decoys.rmsds().shape == (3,)
        assert decoys.scores_matrix().shape == (3, 3)
        assert decoys.torsions_matrix().shape == (3, 8)
        assert decoys[0].n_residues == 4

    def test_empty_set_statistics(self):
        decoys = DecoySet()
        assert decoys.best_rmsd() == float("inf")
        assert decoys.count_below(1.0) == 0
        assert decoys.scores_matrix().size == 0


class TestTrajectoryRecorder:
    def test_records_only_requested_iterations(self, rng):
        recorder = TrajectoryRecorder(iterations=(0, 2))
        scores = rng.normal(size=(10, 3))
        rmsd = np.abs(rng.normal(size=10))
        assert recorder.record(0, scores, rmsd) is not None
        assert recorder.record(1, scores, rmsd) is None
        assert recorder.record(2, scores, rmsd) is not None
        assert len(recorder.snapshots) == 2

    def test_snapshot_keeps_only_non_dominated(self, rng):
        recorder = TrajectoryRecorder(iterations=(0,))
        scores = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        rmsd = np.array([0.5, 1.0, 2.0])
        snap = recorder.record(0, scores, rmsd)
        assert snap.n_non_dominated == 1
        assert snap.scores.shape == (1, 2)
        assert snap.best_rmsd == pytest.approx(0.5)

    def test_by_iteration_lookup(self, rng):
        recorder = TrajectoryRecorder(iterations=(0, 3))
        scores = rng.normal(size=(5, 3))
        rmsd = np.abs(rng.normal(size=5))
        recorder.record(0, scores, rmsd)
        recorder.record(3, scores, rmsd, temperature=0.7, acceptance_rate=0.4)
        lookup = recorder.by_iteration()
        assert set(lookup) == {0, 3}
        assert lookup[3].temperature == pytest.approx(0.7)
        assert lookup[3].acceptance_rate == pytest.approx(0.4)

    def test_empty_recorder_records_nothing(self, rng):
        recorder = TrajectoryRecorder()
        assert not recorder.wants(0)
        assert recorder.record(0, rng.normal(size=(4, 3)), np.ones(4)) is None


class TestTorsionGridDistinctness:
    """The torsion cell list prunes without changing accept/reject outcomes."""

    def _brute_force_distinct(self, decoy_set, torsions):
        from repro.geometry.vectors import angle_difference

        torsions = np.asarray(torsions, dtype=np.float64)
        for decoy in decoy_set.decoys:
            deviation = np.abs(angle_difference(torsions, decoy.torsions))
            if float(np.max(deviation)) < decoy_set.distinctness_threshold:
                return False
        return True

    def _args(self, torsions):
        n = torsions.shape[0] // 2
        return dict(
            torsions=torsions,
            coords=np.zeros((n, 4, 3)),
            scores=np.zeros(3),
            rmsd=1.0,
        )

    @pytest.mark.parametrize(
        "threshold",
        [np.radians(30.0), np.radians(5.0), np.radians(170.0)],
    )
    @pytest.mark.parametrize("n_torsions", [2, 4, 24])
    def test_matches_brute_force_scan(self, threshold, n_torsions):
        rng = np.random.default_rng(7)
        pruned = DecoySet(distinctness_threshold=threshold)
        for i in range(300):
            torsions = rng.uniform(-np.pi, np.pi, size=n_torsions)
            expected = self._brute_force_distinct(pruned, torsions)
            assert pruned.is_distinct(torsions) == expected
            pruned.add(**self._args(torsions))

    def test_wraparound_neighbours_detected(self):
        threshold = np.radians(30.0)
        decoys = DecoySet(distinctness_threshold=threshold)
        near_pi = np.full(4, np.pi - 1e-3)
        decoys.add(**self._args(near_pi))
        # Just across the -pi/+pi seam: tiny circular deviation everywhere.
        assert not decoys.is_distinct(np.full(4, -np.pi + 1e-3))
        # Far along every coordinate: distinct.
        assert decoys.is_distinct(np.zeros(4))

    def test_grid_survives_direct_list_mutation(self):
        threshold = np.radians(30.0)
        decoys = DecoySet(distinctness_threshold=threshold)
        decoys.add(**self._args(np.zeros(4)))
        decoys.add(**self._args(np.full(4, 2.0)))
        # External code may mutate the public list; the check must heal.
        removed = decoys.decoys.pop()
        assert decoys.is_distinct(removed.torsions)
        decoys.decoys.append(removed)
        assert not decoys.is_distinct(removed.torsions)

    def test_absorb_union_bypasses_distinctness(self):
        decoys = DecoySet(distinctness_threshold=np.radians(30.0))
        decoys.add(**self._args(np.zeros(4)))
        duplicate = decoys[0]
        assert decoys.absorb(duplicate)  # plain union keeps duplicates
        assert len(decoys) == 2
        assert not decoys.absorb(duplicate, distinct_only=True)
        assert len(decoys) == 2

    def test_grid_survives_same_length_mutation(self):
        # Reordering or replacing elements keeps the list length unchanged;
        # the identity fingerprint must still trigger a rebuild.
        threshold = np.radians(30.0)
        decoys = DecoySet(distinctness_threshold=threshold)
        decoys.add(**self._args(np.zeros(4)))
        decoys.add(**self._args(np.full(4, 2.0)))
        decoys.decoys.reverse()
        assert not decoys.is_distinct(np.zeros(4))
        assert not decoys.is_distinct(np.full(4, 2.0))
        replacement = decoys.decoys[0].__class__(
            torsions=np.full(4, -2.0),
            coords=np.zeros((2, 4, 3)),
            scores=np.zeros(3),
            rmsd=1.0,
        )
        decoys.decoys[0] = replacement
        assert not decoys.is_distinct(np.full(4, -2.0))
        assert decoys.is_distinct(np.full(4, 2.9))
