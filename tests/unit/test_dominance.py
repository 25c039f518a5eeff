"""Unit tests for Pareto dominance and the strength fitness of Eq. (1)."""

import numpy as np
import pytest

from repro.moscem.dominance import (
    _lexicographic_order,
    dominance_matrix,
    dominates,
    fitness_against,
    non_dominated_mask,
    strength_fitness,
)
from repro.scoring import pairwise
from repro.xp import numpy_kernels


class TestDominates:
    def test_strict_dominance(self):
        assert dominates([1.0, 1.0], [2.0, 2.0])

    def test_weak_dominance_with_one_strict(self):
        assert dominates([1.0, 2.0], [1.0, 3.0])

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates([1.0, 2.0], [1.0, 2.0])

    def test_incomparable_vectors(self):
        assert not dominates([1.0, 3.0], [2.0, 1.0])
        assert not dominates([2.0, 1.0], [1.0, 3.0])

    def test_antisymmetry(self):
        assert dominates([0.0, 0.0], [1.0, 1.0])
        assert not dominates([1.0, 1.0], [0.0, 0.0])


class TestDominanceMatrix:
    def test_simple_chain(self):
        scores = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        dom = dominance_matrix(scores)
        assert dom[0, 1] and dom[0, 2] and dom[1, 2]
        assert not dom[1, 0] and not dom[2, 0] and not dom[2, 1]
        assert not np.any(np.diag(dom))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            dominance_matrix(np.zeros(3))


class TestNonDominatedMask:
    def test_single_member_is_non_dominated(self):
        assert non_dominated_mask(np.array([[1.0, 2.0]])).tolist() == [True]

    def test_pareto_front_identified(self):
        scores = np.array(
            [[0.0, 3.0], [1.0, 1.0], [3.0, 0.0], [2.0, 2.0], [4.0, 4.0]]
        )
        mask = non_dominated_mask(scores)
        assert mask.tolist() == [True, True, True, False, False]

    def test_duplicate_points_all_non_dominated(self):
        scores = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert non_dominated_mask(scores).tolist() == [True, True]


class TestStrengthFitness:
    def test_empty_population(self):
        assert strength_fitness(np.zeros((0, 3))).shape == (0,)

    def test_non_dominated_below_one_dominated_at_least_one(self):
        scores = np.array(
            [[0.0, 3.0], [1.0, 1.0], [3.0, 0.0], [2.0, 2.0], [4.0, 4.0]]
        )
        fitness = strength_fitness(scores)
        mask = non_dominated_mask(scores)
        assert np.all(fitness[mask] < 1.0)
        assert np.all(fitness[~mask] >= 1.0)

    def test_strength_is_fraction_dominated(self):
        # Member 0 dominates the two dominated members -> strength 2/4.
        scores = np.array([[0.0, 0.0], [-1.0, 5.0], [1.0, 1.0], [2.0, 2.0]])
        fitness = strength_fitness(scores)
        assert fitness[0] == pytest.approx(2.0 / 4.0)
        # Member 1 is non-dominated but dominates nothing.
        assert fitness[1] == pytest.approx(0.0)

    def test_dominated_fitness_is_one_plus_dominating_strengths(self):
        scores = np.array([[0.0, 0.0], [-1.0, 5.0], [1.0, 1.0], [2.0, 2.0]])
        fitness = strength_fitness(scores)
        # Both dominated members are dominated only by the non-dominated
        # member 0 (strength 0.5); member 2 also dominates member 3 but,
        # being dominated itself, contributes no strength.
        assert fitness[2] == pytest.approx(1.0 + 0.5)
        assert fitness[3] == pytest.approx(1.0 + 0.5)

    def test_all_identical_scores(self):
        fitness = strength_fitness(np.ones((5, 3)))
        np.testing.assert_array_equal(fitness, np.zeros(5))

    def test_paper_front_rule(self, rng):
        # "fitness < 1" identifies exactly the Pareto-optimal front.
        scores = rng.normal(size=(40, 3))
        fitness = strength_fitness(scores)
        np.testing.assert_array_equal(fitness < 1.0, non_dominated_mask(scores))


class TestFitnessAgainst:
    def test_matches_strength_fitness_for_members(self, rng):
        # Evaluating each member against its own population must reproduce
        # the member's population fitness (queries are scored independently).
        scores = rng.normal(size=(12, 3))
        fitness = strength_fitness(scores)
        against = fitness_against(scores, scores)
        np.testing.assert_allclose(against, fitness, atol=1e-12)

    def test_non_dominated_query_scores_below_dominated_query(self):
        reference = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        non_dominated_query = np.array([[0.5, 1.5]])  # dominates (2,2) and (3,3)
        dominated_query = np.array([[4.0, 4.0]])
        good = fitness_against(reference, non_dominated_query)[0]
        bad = fitness_against(reference, dominated_query)[0]
        assert good == pytest.approx(2.0 / 3.0)
        assert good < 1.0 <= bad

    def test_query_dominating_everything_caps_at_one(self):
        reference = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert fitness_against(reference, np.array([[0.0, 0.0]]))[0] == pytest.approx(1.0)

    def test_dominated_query_scores_at_least_one(self, rng):
        reference = np.abs(rng.normal(size=(10, 2)))
        query = reference.max(axis=0, keepdims=True) + 1.0
        assert fitness_against(reference, query)[0] >= 1.0

    def test_one_dimensional_query_promoted(self):
        reference = np.array([[1.0, 1.0], [2.0, 2.0]])
        out = fitness_against(reference, np.array([0.5, 0.5]))
        assert out.shape == (1,)

    def test_empty_reference(self):
        out = fitness_against(np.zeros((0, 2)), np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(out, [0.0])

    def test_queries_do_not_interact(self, rng):
        reference = rng.normal(size=(8, 3))
        queries = rng.normal(size=(5, 3))
        together = fitness_against(reference, queries)
        separate = np.array(
            [fitness_against(reference, queries[i : i + 1])[0] for i in range(5)]
        )
        np.testing.assert_allclose(together, separate, atol=1e-12)


class TestChunkedFitnessKernels:
    """The generic (chunked) passes are bit-identical to the compiled
    ones, which walk the members one by one, whatever the partition.
    Blocks are set through ``pairwise.DEFAULT_BLOCK_SIZE``; ``0`` and
    ``None`` keep the fixed 128."""

    def _scores(self, n, k=3, seed=0):
        rng = np.random.default_rng(seed)
        # Rounding forces ties, exercising the <=-but-not-< branches.
        return np.round(rng.normal(size=(n, k)), 1)

    @staticmethod
    def _partition(monkeypatch, block_size):
        if block_size:
            monkeypatch.setattr(pairwise, "DEFAULT_BLOCK_SIZE", block_size)

    @pytest.mark.parametrize("block_size", [1, 2, 7, 64, 128, 0, None])
    def test_strength_fitness_block_invariant(self, block_size, monkeypatch):
        scores = self._scores(150)
        compiled = strength_fitness(scores)
        self._partition(monkeypatch, block_size)
        assert np.array_equal(strength_fitness(scores, kernels=numpy_kernels()), compiled)

    @pytest.mark.parametrize("block_size", [1, 3, 8, 0, None])
    def test_fitness_against_block_invariant(self, block_size, monkeypatch):
        reference = self._scores(90, seed=1)
        queries = self._scores(37, seed=2)
        compiled = fitness_against(reference, queries)
        self._partition(monkeypatch, block_size)
        assert np.array_equal(
            fitness_against(reference, queries, kernels=numpy_kernels()), compiled
        )

    @pytest.mark.parametrize("block_size", [1, 5, 0])
    def test_non_dominated_mask_block_invariant(self, block_size, monkeypatch):
        scores = self._scores(120, seed=3)
        compiled = non_dominated_mask(scores)
        self._partition(monkeypatch, block_size)
        assert np.array_equal(non_dominated_mask(scores, kernels=numpy_kernels()), compiled)

    def test_chunked_matches_dominance_matrix_definition(self, monkeypatch):
        self._partition(monkeypatch, 9)
        scores = self._scores(60, seed=4)
        dom = dominance_matrix(scores)
        nd = ~np.any(dom, axis=0)
        counts = np.where(nd, dom.sum(axis=1), 0)
        expected = np.where(
            nd,
            counts / 60.0,
            1.0 + (counts[:, None] * (dom & nd[:, None])).sum(axis=0) / 60.0,
        )
        np.testing.assert_allclose(
            strength_fitness(scores), expected, atol=1e-12
        )

    def test_front_identification_preserved(self, monkeypatch):
        self._partition(monkeypatch, 16)
        scores = self._scores(200, seed=5)
        fitness = strength_fitness(scores)
        assert np.array_equal(fitness < 1.0, non_dominated_mask(scores))

    def test_empty_and_single(self, monkeypatch):
        self._partition(monkeypatch, 4)
        assert strength_fitness(np.zeros((0, 3))).shape == (0,)
        assert strength_fitness(np.zeros((1, 3)))[0] == 0.0


class TestNonFiniteScores:
    """A NaN row is never dominated and dominates nothing (a front member
    with fitness 0); ±inf compares like any other value."""

    def test_nan_rows_are_front_members_with_zero_fitness(self):
        scores = np.array([[0.0, 0.0], [np.nan, 5.0], [1.0, 1.0], [2.0, np.nan]])
        fitness = strength_fitness(scores)
        # Member 0 dominates member 2 only: the NaN rows neither count
        # towards its strength nor receive one.
        assert np.array_equal(fitness, [0.25, 0.0, 1.25, 0.0])
        assert non_dominated_mask(scores).tolist() == [True, True, False, True]

    def test_nan_row_dominates_nothing_even_where_it_would_win(self):
        scores = np.array([[np.nan, -np.inf], [np.inf, np.inf]])
        assert np.array_equal(strength_fitness(scores), [0.0, 0.0])

    def test_infinities_compare_like_values(self):
        scores = np.array([[-np.inf, 0.0], [0.0, 0.0], [np.inf, np.inf]])
        # -inf dominates both others; 0 dominates +inf but is dominated.
        assert np.array_equal(strength_fitness(scores), [2 / 3, 1 + 2 / 3, 1 + 2 / 3])
        tied = np.full((2, 2), np.inf)
        assert np.array_equal(strength_fitness(tied), [0.0, 0.0])

    def test_nan_queries_and_references(self):
        reference = np.array([[0.0, 0.0], [np.nan, 1.0], [2.0, 2.0]])
        queries = np.array([[np.nan, 9.0], [1.0, 1.0], [-1.0, -1.0]])
        # The NaN query is non-dominated and dominates nothing; the NaN
        # reference row neither dominates nor is dominated by a query.
        assert np.array_equal(
            fitness_against(reference, queries), [0.0, 1 + 1 / 3, 2 / 3]
        )

    def test_nan_rows_in_the_lexicographic_order(self):
        """NaN sorts after every number of its key: a NaN in the first
        column puts the row last, a NaN in a later column puts it after
        the rows that tie with it on the earlier columns."""
        scores = np.array(
            [[np.nan, 0.0], [1.0, np.nan], [1.0, 0.0], [0.0, 5.0], [1.0, 3.0]]
        )
        assert _lexicographic_order(scores).tolist() == [3, 2, 4, 1, 0]
        assert np.array_equal(
            strength_fitness(scores), [0.0, 0.0, 0.2, 0.0, 1.2]
        )
