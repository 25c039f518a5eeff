"""The compiled scoring passes reproduce the numpy kernels bit for bit.

``pair_penalty`` and ``binned_sum`` are compared with the generic
kernels they replaced, run through the numpy bundle
(:func:`~repro.xp.numpy_kernels`), and ``env_penalty`` with the numpy
form of :meth:`~repro.scoring.pairwise.EnvironmentGrid.penalty_sum`
(candidate pairs plus ``np.bincount``, the no-compiler route) and the
dense test-only oracle.  Inputs carry NaN, infinities and 1e300, probes
sit outside the grid box and exactly on cell boundaries, squared
distances sit on every DIST edge and one ulp either side, at block sizes
1, 7, 128 and the whole population, on one and two member threads.
Without a compiler every wrapper runs its numpy form, with the same
bits and one warning.
"""

from __future__ import annotations

import numpy as np
import pytest

import env_oracle
from repro import native
from repro.loops.ramachandran import RamachandranModel
from repro.loops.targets import get_target
from repro.scoring.distance import DistanceScore
from repro.scoring.knowledge import DISTANCE_SQ_EDGES, bin_squared_distances
from repro.scoring.pairwise import (
    EnvironmentGrid,
    binned_table_sum,
    indexed_penalty_sum,
    squared_bin_edges,
    using_member_threads,
)
from repro.scoring.vdw import SoftSphereVDW
from repro.xp import numpy_kernels

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

POP = 300
BLOCKS = (1, 7, 128, POP)
THREADS = (1, 2)


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


def assert_same_bits(got, want):
    """Equal bit patterns, NaN payloads aside."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def adversarial_points(atoms: int, seed: int) -> np.ndarray:
    """``(POP, atoms, 3)`` points, crowded so that most pairs overlap, with
    a few members carrying NaN, infinities and 1e300."""
    rng = np.random.default_rng(seed)
    points = rng.normal(scale=1.5, size=(POP, atoms, 3))
    points[3, 0, 0] = np.nan
    points[4, 1, 1] = np.inf
    points[5, 2, 2] = -np.inf
    points[6, 0, :] = 1e300
    points[7, :, 0] = -1e300
    points[8] = np.nan
    points[9, 3, 1] = 1e150  # squares to 1e300, sums stay finite
    return points


@pytest.fixture(scope="module")
def pair_problem():
    rng = np.random.default_rng(1)
    points_a = adversarial_points(24, seed=2)
    points_b = adversarial_points(9, seed=3)
    first, second = np.triu_indices(24, k=2)
    sq_contacts = rng.uniform(1.0, 16.0, size=first.size)
    cross_first = rng.integers(0, 24, size=150)
    cross_second = rng.integers(0, 9, size=150)
    cross_contacts = rng.uniform(1.0, 16.0, size=150)
    return (
        (points_a, points_a, first, second, sq_contacts),
        (points_a, points_b, cross_first, cross_second, cross_contacts),
    )


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("block", BLOCKS)
def test_pair_penalty_matches_generic_kernel(lib, pair_problem, block, threads):
    for args in pair_problem:
        with using_member_threads(threads):
            compiled = indexed_penalty_sum(*args, block_size=block)
        generic = indexed_penalty_sum(*args, block_size=block, kernels=numpy_kernels())
        assert_same_bits(compiled, generic)
        assert np.count_nonzero(compiled) > POP // 2  # the sums are not trivial


def test_compiled_sums_do_not_depend_on_layout(lib, pair_problem):
    """The compiled route reads values, so Fortran-ordered points and a
    strided coordinate axis give the C-ordered bits (the generic kernel's
    sum order follows the layout numpy gives its gather)."""
    points, _, first, second, sq_contacts = pair_problem[0]
    tables = wide_tables(np.random.default_rng(11), first.size, 13)
    sq_edges = squared_bin_edges(4.0, 12)
    padded = np.zeros(points.shape[:2] + (5,))
    padded[..., 1:4] = points
    for layout in (np.asfortranarray(points), padded[..., 1:4]):
        for block in BLOCKS:
            assert_same_bits(
                indexed_penalty_sum(layout, layout, first, second, sq_contacts, block),
                indexed_penalty_sum(points, points, first, second, sq_contacts, block),
            )
            assert_same_bits(
                binned_table_sum(layout, first, second, tables, sq_edges, block),
                binned_table_sum(points, first, second, tables, sq_edges, block),
            )


def test_indices_and_shapes_follow_numpy(lib, pair_problem, numpy_route):
    """Negative pair indices wrap; out-of-range indices, a contact list
    of the wrong length and a table short of rows raise, on both routes."""
    points, _, first, second, sq_contacts = pair_problem[0]
    wrapped = indexed_penalty_sum(points, points, first - 24, second, sq_contacts)
    assert_same_bits(wrapped, indexed_penalty_sum(points, points, first, second, sq_contacts))
    short_tables = np.zeros((first.size - 1, 4))
    for route in ("compiled", "numpy"):
        if route == "numpy":
            numpy_route()
        with pytest.raises(IndexError):
            indexed_penalty_sum(points, points, first + 24, second, sq_contacts)
        with pytest.raises(ValueError):
            indexed_penalty_sum(points, points, first, second, sq_contacts[:-1])
        with pytest.raises(IndexError):
            binned_table_sum(points, first, second, short_tables, squared_bin_edges(2.0, 3))


def wide_tables(rng, pairs: int, columns: int) -> np.ndarray:
    """Table rows over six decades, so that the order of a sum shows."""
    return rng.normal(size=(pairs, columns)) * 10.0 ** rng.uniform(-3, 3, (pairs, columns))


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("edges", ["uniform", "uneven"])
def test_binned_sum_matches_generic_kernel(lib, block, threads, edges):
    rng = np.random.default_rng(4)
    points = adversarial_points(20, seed=5)
    first, second = np.triu_indices(20, k=1)
    if edges == "uniform":
        sq_edges = squared_bin_edges(4.0, 12)
    else:  # the bin guess misses; the comparisons must still decide
        sq_edges = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 30.0, 12))])
    tables = wide_tables(rng, first.size, sq_edges.size)
    with using_member_threads(threads):
        compiled = binned_table_sum(points, first, second, tables, sq_edges, block)
    generic = binned_table_sum(
        points, first, second, tables, sq_edges, block, kernels=numpy_kernels()
    )
    assert_same_bits(compiled, generic)


def _edge_points(targets):
    """Two-atom members whose squared distance, as ``einsum`` sums it, is
    exactly a target, and the targets reached (a few are not)."""
    found, reached = [], []
    for target in targets:
        root, ulp = np.sqrt(target), np.spacing(target)
        hits = [
            (dx, dy)
            for dx in root + np.spacing(root) * np.arange(-3, 4)
            for dy in [0.0] + [np.sqrt(j * ulp) for j in range(1, 7)]
            if ((dx * dx + 0.0) + dy * dy) + 0.0 == target
        ]
        if hits:
            found.append(hits[0])
            reached.append(target)
    points = np.zeros((len(found), 2, 3))
    points[:, 1, :2] = found
    return points, np.array(reached)


def test_every_dist_edge_and_its_neighbours_bin_as_numpy(lib):
    """Squared distances on each DIST edge and one ulp either side take
    numpy's bin, and read the same table cell."""
    targets = []
    for edge in DISTANCE_SQ_EDGES:
        targets += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
    targets = [t for t in targets if t >= 0.0]
    points, reached = _edge_points(targets)
    assert set(DISTANCE_SQ_EDGES) <= set(reached)  # every edge itself
    assert reached.size >= len(targets) - 3  # and nearly every neighbour
    first, second = np.array([0]), np.array([1])
    tables = np.arange(DISTANCE_SQ_EDGES.size, dtype=np.float64)[None, :] + 0.5
    for block in BLOCKS:
        compiled = binned_table_sum(points, first, second, tables, DISTANCE_SQ_EDGES, block)
        generic = binned_table_sum(
            points, first, second, tables, DISTANCE_SQ_EDGES, block,
            kernels=numpy_kernels(),
        )
        assert_same_bits(compiled, generic)
        assert_same_bits(compiled, bin_squared_distances(reached, DISTANCE_SQ_EDGES) + 0.5)


def test_nan_and_infinite_distances_read_the_overflow_column(lib):
    points = np.zeros((3, 2, 3))
    points[0, 1, 0] = np.nan
    points[1, 1, 0] = np.inf
    points[2, 1, 0] = 1e300
    tables = np.arange(5, dtype=np.float64)[None, :]
    totals = binned_table_sum(
        points, np.array([0]), np.array([1]), tables, squared_bin_edges(2.0, 4)
    )
    assert_same_bits(totals, np.full(3, 4.0))


@pytest.fixture(scope="module")
def grid():
    atoms = np.random.default_rng(6).uniform(-8.0, 8.0, size=(120, 3))
    return EnvironmentGrid(atoms, cutoff=3.0)


def env_probes(grid: EnvironmentGrid) -> np.ndarray:
    """``(POP, 5, 3)`` probes: inside and around the box, some exactly on
    cell boundaries, some far outside, NaN, infinite or 1e300."""
    rng = np.random.default_rng(7)
    probes = rng.uniform(-12.0, 12.0, size=(POP, 5, 3))
    cells = rng.integers(-2, 8, size=(40, 5, 3))
    probes[:40] = grid._origin + cells * grid._cell_edge  # on boundaries
    probes[40, 0] = [500.0, -500.0, 0.0]
    probes[41, 1] = [1e300, 0.0, 0.0]
    probes[42, 2] = [-1e300, 1e300, -1e300]
    probes[43, 3] = [np.nan, 0.0, 0.0]
    probes[44, 4] = [0.0, np.inf, 0.0]
    probes[45, 0] = [-np.inf, -np.inf, np.inf]
    probes[46] = np.nan
    return probes


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("block", BLOCKS)
def test_env_penalty_matches_numpy_path(lib, grid, numpy_route, block, threads):
    probes = env_probes(grid)
    contacts = np.random.default_rng(8).uniform(0.5, 3.0, size=(5, grid.n_atoms))
    sq_contacts = contacts * contacts
    with using_member_threads(threads):
        compiled = grid.penalty_sum(probes, sq_contacts, block)
    dense = env_oracle.penalty_sum(grid, probes, sq_contacts, block)
    numpy_route()
    with using_member_threads(threads):
        numpy_form = grid.penalty_sum(probes, sq_contacts, block)
    assert_same_bits(compiled, numpy_form)
    assert_same_bits(compiled, dense)
    assert np.count_nonzero(compiled) > POP // 2


def test_zero_pairs_and_empty_environment(lib):
    points = adversarial_points(6, seed=9)
    empty = np.zeros(0, dtype=np.int64)
    assert_same_bits(indexed_penalty_sum(points, points, empty, empty, np.zeros(0)), np.zeros(POP))
    assert_same_bits(
        binned_table_sum(points, empty, empty, np.zeros((0, 4)), squared_bin_edges(2.0, 3)),
        np.zeros(POP),
    )
    nothing = EnvironmentGrid(np.empty((0, 3)), cutoff=2.0)
    assert_same_bits(nothing.penalty_sum(points, np.empty((6, 0))), np.zeros(POP))
    grid = EnvironmentGrid(np.zeros((4, 3)), cutoff=2.0)
    assert_same_bits(grid.penalty_sum(np.zeros((POP, 0, 3)), np.empty((0, 4))), np.zeros(POP))
    # Probes whose 27 cells hold no atom contribute an exact zero.
    far = np.full((2, 3, 3), 40.0)
    assert_same_bits(grid.penalty_sum(far, np.ones((3, 4))), np.zeros(2))


@pytest.fixture(scope="module")
def scored_population():
    target = get_target("1cex(40:51)")
    rng = np.random.default_rng(10)
    torsions = RamachandranModel().sample_population(target.sequence, 200, rng)
    coords, _ = target.build_batch(torsions)
    coords[3, 2, 1, 0] = np.nan
    coords[4, 0, 0, 2] = 1e300
    return target, coords


@pytest.mark.parametrize("threads", THREADS)
def test_scorers_match_the_generic_route(lib, knowledge_base, scored_population, threads):
    """Whole scorers: the compiled route equals the bundle route (the xp
    backend's) on a real target."""
    target, coords = scored_population
    for scorer in (SoftSphereVDW(target), DistanceScore(target, knowledge_base)):
        with using_member_threads(threads):
            compiled = scorer.evaluate_batch(coords, None)
        scorer.use_kernels(numpy_kernels())
        generic = scorer.evaluate_batch(coords, None)
        assert_same_bits(compiled, generic)


def test_no_compiler_runs_the_numpy_forms(lib, knowledge_base, scored_population, monkeypatch):
    """``CC`` unset: every pass falls back to its numpy form, with the
    compiled bits, and says so once."""
    target, coords = scored_population
    scorers = (SoftSphereVDW(target), DistanceScore(target, knowledge_base))
    compiled = [scorer.evaluate_batch(coords, None) for scorer in scorers]

    logged = []
    monkeypatch.setattr(native, "_library", native._UNSET)
    monkeypatch.setattr(native.sysconfig, "get_config_var", lambda name: None)
    monkeypatch.setattr(native._LOG, "warning", lambda *args: logged.append(args))
    for scorer, want in zip(scorers, compiled):
        for _ in range(2):
            assert_same_bits(scorer.evaluate_batch(coords, None), want)
    assert native.library() is None
    assert len(logged) == 1  # logged once, not per call
