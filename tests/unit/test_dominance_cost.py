"""Deterministic cost guard for the generic front-first dominance passes.

Wall-clock limits are flaky on shared runners, so the guard counts work
instead: a stub kernel bundle records the (rows x columns) of every
dominance block the passes request.  The front-first passes compare
O(N * (F + B)) pairs, F being the front size and B the block size; the
all-pairs streaming oracle compares at least N^2.  Passing a bundle
selects the generic route, so the counter guards that route only; the
compiled passes (no bundle) walk the same front-first schedule with
B = 1, and ``tests/unit/test_dominance_native.py`` holds them to the
generic route's bits.
"""

from __future__ import annotations

import numpy as np
import pytest

import dominance_oracle as oracle
from repro.moscem.dominance import (
    fitness_against,
    non_dominated_mask,
    strength_fitness,
)
from repro.scoring.pairwise import DEFAULT_BLOCK_SIZE
from repro.xp import numpy_kernels

_NUMPY = numpy_kernels()


class PairCounter:
    """Kernel bundle stub counting the member pairs each block compares."""

    def __init__(self) -> None:
        self.pairs = 0

    def dominance_columns(self, scores, column_scores):
        self.pairs += scores.shape[0] * column_scores.shape[0]
        return _NUMPY.dominance_columns(scores, column_scores)

    def to_numpy(self, array):
        return _NUMPY.to_numpy(array)


def _count(fn, *args):
    counter = PairCounter()
    result = fn(*args, kernels=counter)
    return result, counter.pairs


@pytest.fixture(scope="module")
def normal_scores():
    return np.random.default_rng(4096).normal(size=(4096, 3))


def test_strength_fitness_pairs_scale_with_the_front(normal_scores):
    n = normal_scores.shape[0]
    fitness, pairs = _count(strength_fitness, normal_scores)
    expected, oracle_pairs = _count(oracle.strength_fitness, normal_scores)
    assert np.array_equal(fitness, expected)
    front = int(np.sum(fitness < 1.0))
    assert front < n // 10  # the guard below is only meaningful for F << N
    assert pairs <= 4 * n * (front + DEFAULT_BLOCK_SIZE)
    assert oracle_pairs >= n * n


def test_non_dominated_mask_pairs_scale_with_the_front(normal_scores):
    n = normal_scores.shape[0]
    mask, pairs = _count(non_dominated_mask, normal_scores)
    front = int(mask.sum())
    assert pairs <= n * (front + DEFAULT_BLOCK_SIZE)


def test_fitness_against_reference_pass_scales_with_the_front(normal_scores):
    """A dominated query costs only its front comparisons; the reference
    strength pass is front-first like the population pass."""
    n = normal_scores.shape[0]
    front = int(non_dominated_mask(normal_scores).sum())
    worst = normal_scores.max(axis=0, keepdims=True) + 1.0
    fitness, pairs = _count(fitness_against, normal_scores, worst)
    assert fitness[0] >= 1.0
    assert pairs <= 3 * n * (front + DEFAULT_BLOCK_SIZE)


def test_all_front_compares_no_more_pairs_than_the_oracle():
    """Worst case F = N: the front filter compares each pair at most once,
    so it never does more work than the all-pairs oracle."""
    x = np.arange(1024, dtype=np.float64)
    scores = np.stack([x, x[::-1]], axis=1)
    fitness, pairs = _count(strength_fitness, scores)
    expected, oracle_pairs = _count(oracle.strength_fitness, scores)
    assert np.array_equal(fitness, expected)
    assert np.all(fitness == 0.0)
    assert pairs <= oracle_pairs
