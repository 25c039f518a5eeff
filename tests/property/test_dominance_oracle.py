"""Property: the front-first dominance passes equal the streaming oracle.

:mod:`repro.moscem.dominance` finds the Pareto front first and compares
only front members with the rest; ``dominance_oracle`` keeps the
all-pairs streaming passes it replaced.  The two must agree bit for bit
(``np.array_equal``) on every score set the sampler can produce or an
adversary can build — ties, duplicates, an all-front population, a single
member, an empty set, NaN and ±inf — for K = 1..4 objectives, at every
block size (``pairwise.DEFAULT_BLOCK_SIZE``), on all three implementations: the compiled passes (no kernel
bundle), the generic passes on numpy (no bundle and no compiler) and the
generic passes through the numpy bundle.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dominance_oracle as oracle
from repro import native
from repro.moscem.dominance import (
    fitness_against,
    non_dominated_mask,
    strength_fitness,
)
from repro.scoring import pairwise
from repro.xp import numpy_kernels

BLOCK_SIZES = [1, 2, 7, 128, None]
KINDS = ["random", "rounded", "duplicated", "all_front", "non_finite"]


def make_scores(kind: str, n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """An ``(n, k)`` score set of the named kind."""
    if kind == "random":
        return rng.normal(size=(n, k))
    if kind == "rounded":  # coarse rounding forces ties in every column
        return np.round(rng.normal(size=(n, k)))
    if kind == "duplicated":
        distinct = np.round(rng.normal(size=(max(n // 3, 1), k)), 1)
        return distinct[rng.integers(0, distinct.shape[0], size=n)]
    if kind == "all_front":
        # Anti-diagonal in the first two columns: every pair is
        # incomparable whatever the other columns hold.  With one
        # objective only equal scores are mutually non-dominated.
        if k == 1:
            return np.full((n, 1), 0.5)
        x = rng.permutation(n).astype(np.float64)
        scores = rng.normal(size=(n, k))
        scores[:, 0], scores[:, 1] = x, n - 1 - x
        return scores
    if kind == "non_finite":
        scores = np.round(rng.normal(size=(n, k)), 1)
        special = rng.random(size=(n, k)) < 0.15
        scores[special] = rng.choice([np.nan, np.inf, -np.inf], size=int(special.sum()))
        return scores
    raise ValueError(kind)


@st.composite
def score_sets(draw, max_size: int = 40):
    kind = draw(st.sampled_from(KINDS))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(0, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return make_scores(kind, n, k, rng), make_scores(kind, 9, k, rng)


def implementations():
    """``(context, kernels)`` of the compiled passes, the generic passes on
    numpy as run when no compiler works, and the numpy bundle's."""
    yield contextlib.nullcontext(), None
    yield mock.patch.object(native, "_library", None), None
    yield contextlib.nullcontext(), numpy_kernels()


def assert_matches_oracle(scores: np.ndarray, queries: np.ndarray) -> None:
    stacked = np.concatenate([scores, queries])
    for route, kernels in implementations():
        with route:
            for block_size in BLOCK_SIZES:
                args = dict(block_size=block_size, kernels=kernels)
                size = block_size or pairwise.DEFAULT_BLOCK_SIZE
                with mock.patch.object(pairwise, "DEFAULT_BLOCK_SIZE", size):
                    assert np.array_equal(
                        non_dominated_mask(scores, kernels=kernels),
                        oracle.non_dominated_mask(scores, **args),
                    )
                    assert np.array_equal(
                        strength_fitness(scores, kernels=kernels),
                        oracle.strength_fitness(scores, **args),
                    )
                    assert np.array_equal(
                        fitness_against(scores, stacked, kernels=kernels),
                        oracle.fitness_against(scores, stacked, **args),
                    )


@settings(max_examples=60, deadline=None)
@given(score_sets())
def test_front_first_matches_oracle(case):
    assert_matches_oracle(*case)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", KINDS)
def test_multi_block_sets_match_oracle(kind, k):
    """Sets larger than the default block, so every block size walks
    several chunks of the lexicographic order."""
    rng = np.random.default_rng(1000 * k + KINDS.index(kind))
    assert_matches_oracle(make_scores(kind, 300, k, rng), make_scores(kind, 40, k, rng))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_single_member_and_empty_match_oracle(k):
    rng = np.random.default_rng(k)
    queries = make_scores("non_finite", 5, k, rng)
    assert_matches_oracle(rng.normal(size=(1, k)), queries)
    assert_matches_oracle(np.zeros((0, k)), queries)
