"""The compiled dominance passes reproduce the generic ones bit for bit.

With no kernel bundle, :func:`~repro.moscem.dominance.non_dominated_mask`,
:func:`~repro.moscem.dominance.strength_fitness` and
:func:`~repro.moscem.dominance.fitness_against` run the compiled passes of
:mod:`repro.native`.  Each is compared here with the generic front-first
passes, run through the numpy bundle (:func:`~repro.xp.numpy_kernels`),
and with the all-pairs test-only oracle ``dominance_oracle``, on NaN
rows, infinities, ``-0.0`` against ``0.0``, exact duplicates, K = 0..4
objectives, empty and one-member sets, a one-member front, an all-front
set at the paper's population, one-row and zero-row queries, and inputs
that are Fortran-ordered, strided, float32 or integer.  Without a
compiler every pass runs the generic route on numpy, with the same bits
and one warning; malformed shapes raise ``ValueError`` on both routes.
"""

from __future__ import annotations

import numpy as np
import pytest

import dominance_oracle as oracle
from repro import native
from repro.moscem.dominance import (
    fitness_against,
    non_dominated_mask,
    strength_fitness,
)
from repro.xp import numpy_kernels

_NUMPY = numpy_kernels()

#: The paper's population (120 complexes x 128 members).
PAPER_POPULATION = 15360


@pytest.fixture(scope="module")
def lib():
    compiled = native.library()
    if compiled is None:
        pytest.skip("no working C compiler")
    return compiled


@pytest.fixture()
def numpy_route(monkeypatch):
    """Run the enclosed calls as if no compiler worked."""

    def use():
        monkeypatch.setattr(native, "_library", None)

    return use


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


#: The passes of each reference route, called with its keyword arguments.
GENERIC = ((non_dominated_mask, strength_fitness, fitness_against), {"kernels": _NUMPY})
ORACLE = ((oracle.non_dominated_mask, oracle.strength_fitness, oracle.fitness_against), {})


def assert_routes_agree(scores, queries=None, with_oracle=True) -> np.ndarray:
    """The compiled passes equal the generic ones (and the oracle) on
    ``scores``, and ``fitness_against`` on ``queries`` (default: the set
    itself plus a few shifted rows).  Returns the compiled fitness."""
    scores = np.asarray(scores, dtype=np.float64)
    if queries is None:
        queries = np.concatenate([scores, scores[:3] + 0.5, scores[-3:] - 0.5])
    mask = non_dominated_mask(scores)
    fitness = strength_fitness(scores)
    against = fitness_against(scores, queries)
    for (mask_fn, fitness_fn, against_fn), kwargs in [GENERIC, ORACLE][: 1 + with_oracle]:
        assert same_bits(mask, mask_fn(scores, **kwargs))
        assert same_bits(fitness, fitness_fn(scores, **kwargs))
        assert same_bits(against, against_fn(scores, queries, **kwargs))
    return fitness


def special_scores(n: int, k: int, seed: int) -> np.ndarray:
    """Rounded scores (ties in every column) salted with NaN, +-inf, -0.0
    and 0.0, plus whole NaN rows and exact duplicate rows."""
    rng = np.random.default_rng(seed)
    scores = np.round(rng.normal(size=(n, k)), 1)
    salted = rng.random(size=(n, k)) < 0.2
    scores[salted] = rng.choice(
        [np.nan, np.inf, -np.inf, -0.0, 0.0], size=int(salted.sum())
    )
    if n >= 6:
        scores[1] = np.nan
        scores[2] = scores[3]
        scores[4] = -np.inf
        scores[5] = np.inf
    return scores


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 130])
def test_special_values_match_generic_and_oracle(lib, n, k):
    for seed in range(3):
        assert_routes_agree(special_scores(n, k, seed + 10 * n + k))


def test_nan_rows_are_front_members_with_fitness_zero(lib):
    scores = np.array([[np.nan, 0.0], [1.0, 1.0], [2.0, 2.0], [0.0, np.nan]])
    fitness = assert_routes_agree(scores)
    assert fitness.tolist() == [0.0, 0.25, 1.25, 0.0]


def test_negative_zero_ties_with_zero(lib):
    """``-0.0 <= 0.0`` and ``0.0 <= -0.0``: the rows tie in that column,
    so only the other column decides, on both routes."""
    scores = np.array([[-0.0, 1.0], [0.0, 1.0], [0.0, 2.0], [-0.0, 2.0]])
    fitness = assert_routes_agree(scores)
    assert fitness.tolist() == [0.5, 0.5, 2.0, 2.0]


def test_exact_duplicates_do_not_dominate_each_other(lib):
    scores = np.repeat(np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]]), 5, axis=0)
    fitness = assert_routes_agree(scores)
    assert np.all(fitness[:5] == 0.5) and np.all(fitness[5:] == 1.0 + 2.5)


def test_one_member_front(lib):
    """A chain: the first row dominates every other, so F = 1."""
    n = 1000
    scores = np.repeat(np.arange(n, dtype=np.float64)[:, None], 3, axis=1)
    fitness = assert_routes_agree(scores)
    assert fitness[0] == (n - 1) / n
    assert np.all(fitness[1:] == 1.0 + (n - 1) / n)


def test_all_front_at_paper_population(lib):
    """Anti-correlated objectives: every member is on the front (the
    filter's worst case, N^2 / 2 pairs), each with fitness 0.  The
    generic route costs seconds here, so only the fitness is held
    against it; the other passes have known values."""
    n = PAPER_POPULATION
    x = np.random.default_rng(3).permutation(n).astype(np.float64)
    scores = np.stack([x, n - 1 - x, np.zeros_like(x)], axis=1)
    fitness = strength_fitness(scores)
    assert same_bits(fitness, strength_fitness(scores, kernels=_NUMPY))
    assert np.all(fitness == 0.0)
    assert np.all(non_dominated_mask(scores))
    queries = np.array([[-1.0, -1.0, 0.0], [n, n, 0.0], scores[0]])
    # Dominates every member: N / N; dominated by every member: 1 + 0 / N;
    # a duplicate of a member: neither, 0 / N.
    assert fitness_against(scores, queries).tolist() == [1.0, 1.0, 0.0]


def test_one_row_and_zero_row_queries(lib):
    scores = special_scores(40, 3, seed=4)
    row = np.array([0.0, 0.0, 0.0])
    assert same_bits(fitness_against(scores, row), fitness_against(scores, row[None, :]))
    assert same_bits(
        fitness_against(scores, row), fitness_against(scores, row, kernels=_NUMPY)
    )
    assert same_bits(fitness_against(scores, row), oracle.fitness_against(scores, row))
    empty = np.zeros((0, 3))
    assert same_bits(fitness_against(scores, empty), np.zeros(0))
    assert same_bits(fitness_against(scores, empty, kernels=_NUMPY), np.zeros(0))
    assert same_bits(fitness_against(np.zeros((0, 3)), row), np.zeros(1))


def test_layouts_and_dtypes_read_as_float64_c_order(lib):
    """Fortran-ordered, strided, float32 and integer inputs are converted
    before a pointer reaches C, and give the bits of the float64 copy."""
    base = special_scores(90, 3, seed=5)
    queries = np.round(np.random.default_rng(6).normal(size=(20, 3)), 1)
    wide = np.zeros((90, 7))
    wide[:, 1:7:2] = base
    wide_queries = np.zeros((40, 3))
    wide_queries[::2] = queries
    cases = [
        (np.asfortranarray(base), np.asfortranarray(queries)),
        (wide[:, 1:7:2], wide_queries[::2]),
        (base.astype(np.float32), queries.astype(np.float32)),
        (np.nan_to_num(base * 10, posinf=99, neginf=-99).astype(np.int64),
         (queries * 10).astype(np.int32)),
    ]
    for scores, qs in cases:
        as_float = np.array(scores, dtype=np.float64, order="C")
        qs_float = np.array(qs, dtype=np.float64, order="C")
        assert same_bits(strength_fitness(scores), strength_fitness(as_float))
        assert same_bits(non_dominated_mask(scores), non_dominated_mask(as_float))
        assert same_bits(
            fitness_against(scores, qs), fitness_against(as_float, qs_float)
        )
        assert same_bits(
            fitness_against(scores, qs),
            fitness_against(as_float, qs_float, kernels=_NUMPY),
        )


@pytest.mark.parametrize("route", ["compiled", "numpy", "bundle"])
def test_fitness_against_validates_shapes(lib, numpy_route, route):
    """A reference that is not 2-D, queries of more than two dimensions and
    a different number of objectives raise ``ValueError`` on every route,
    instead of broadcasting or reading out of bounds."""
    if route == "numpy":
        numpy_route()
    kernels = _NUMPY if route == "bundle" else None
    reference = np.random.default_rng(7).normal(size=(8, 3))
    for ref, queries in [
        (reference, np.zeros((4, 1))),  # K mismatch, broadcastable
        (reference, np.zeros((4, 2))),
        (reference, np.zeros(2)),  # one query, K mismatch
        (reference, np.zeros((2, 4, 3))),  # 3-D queries
        (reference, np.float64(1.0)),  # 0-D queries
        (reference[:, 0], np.zeros((4, 3))),  # 1-D reference
        (reference[None], np.zeros((4, 3))),  # 3-D reference
        (np.zeros((0, 3)), np.zeros((4, 2))),  # empty reference, K mismatch
    ]:
        with pytest.raises(ValueError):
            fitness_against(ref, queries, kernels=kernels)


def test_no_compiler_runs_the_generic_passes(lib, monkeypatch):
    """``CC`` unset: every pass runs its generic form on numpy, with the
    compiled bits, and says so once."""
    sets = [special_scores(n, k, seed=8 + n) for n, k in [(0, 3), (1, 2), (150, 3), (60, 4)]]
    calls = [
        lambda s: non_dominated_mask(s),
        lambda s: strength_fitness(s),
        lambda s: fitness_against(s, np.concatenate([s, s[:2] - 1.0])),
    ]
    compiled = [[call(s) for call in calls] for s in sets]

    logged = []
    monkeypatch.setattr(native, "_library", native._UNSET)
    monkeypatch.setattr(native.sysconfig, "get_config_var", lambda name: None)
    monkeypatch.setattr(native._LOG, "warning", lambda *args: logged.append(args))
    for s, wants in zip(sets, compiled):
        for call, want in zip(calls, wants):
            for _ in range(2):
                assert same_bits(call(s), want)
    assert native.library() is None
    assert len(logged) == 1  # logged once, not per call
