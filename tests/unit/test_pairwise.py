"""Unit tests for the shared pairwise kernel engine and its consumers.

Covers the engine primitives (chunking, squared-distance penalty, binned
table sums), the environment cell grid (pruning correctness and
bit-identity with the dense path), and the scalar/batched equivalence of
all three scoring functions on random populations.
"""

import dataclasses

import numpy as np
import pytest

import env_oracle
from repro.backends import make_backend
from repro.config import SamplingConfig
from repro.loops.ramachandran import RamachandranModel
from repro.scoring import default_multi_score, pairwise
from repro.scoring.distance import DistanceScore
from repro.scoring.knowledge import DISTANCE_BINS, DISTANCE_MAX, distance_bin
from repro.scoring.pairwise import (
    DEFAULT_BLOCK_SIZE,
    EnvironmentGrid,
    population_blocks,
    soft_sphere_penalty_sq,
    squared_bin_edges,
)
from repro.scoring.triplet import TripletScore
from repro.scoring.vdw import SoftSphereVDW, soft_sphere_penalty


@pytest.fixture(scope="module")
def random_population(small_target):
    """A random, *unclosed* population: extreme coords exercise every branch."""
    rng = np.random.default_rng(97)
    n = small_target.n_residues
    coords = rng.normal(scale=6.0, size=(10, n, 4, 3))
    coords += small_target.environment_coords.mean(axis=0)
    torsions = rng.uniform(-np.pi, np.pi, size=(10, 2 * n))
    return coords, torsions


class TestPopulationBlocks:
    def test_blocks_cover_population_exactly(self):
        covered = np.zeros(1000, dtype=int)
        for block in population_blocks(1000, 128):
            covered[block] += 1
        assert np.all(covered == 1)

    def test_default_is_the_fixed_block_read_at_call_time(self, monkeypatch):
        assert DEFAULT_BLOCK_SIZE == 128
        sizes = [block.stop - block.start for block in population_blocks(300)]
        assert sizes == [128, 128, 44]
        monkeypatch.setattr(pairwise, "DEFAULT_BLOCK_SIZE", 7)
        assert list(population_blocks(10)) == [slice(0, 7), slice(7, 10)]

    def test_block_never_exceeds_population(self):
        assert list(population_blocks(7, 4096)) == [slice(0, 7)]
        assert list(population_blocks(5, 64)) == [slice(0, 5)]

    def test_empty_population(self):
        assert list(population_blocks(0, 8)) == []


class TestSoftSpherePenaltySq:
    def test_matches_metric_formula(self):
        rng = np.random.default_rng(3)
        d = rng.uniform(0.0, 5.0, size=200)
        r0 = rng.uniform(0.0, 4.0, size=200)
        expected = np.where(
            (d < r0) & (r0 > 0.0), ((r0 * r0 - d * d) / (r0 * r0)) ** 2, 0.0
        )
        np.testing.assert_allclose(
            soft_sphere_penalty_sq(d * d, r0 * r0), expected, rtol=1e-12
        )

    def test_no_suppressed_warnings(self):
        # The mask is applied before the division, so even zero contacts
        # must not trip invalid/divide warnings when they are raised.
        d2 = np.array([0.0, 0.01, 4.0, 9.0])
        c2 = np.array([0.0, 0.0, 4.0, 16.0])
        with np.errstate(all="raise"):
            penalties = soft_sphere_penalty_sq(d2, c2)
        assert penalties[0] == 0.0
        assert penalties[1] == 0.0
        assert penalties[2] == 0.0  # touching exactly: no overlap
        assert penalties[3] > 0.0

    def test_metric_wrapper_consistent(self):
        d = np.array([0.5, 2.0, 3.5])
        r0 = np.array([3.0, 3.0, 3.0])
        np.testing.assert_array_equal(
            soft_sphere_penalty(d, r0), soft_sphere_penalty_sq(d * d, r0 * r0)
        )


class TestSquaredBinEdges:
    def test_bins_match_metric_binning(self):
        edges = squared_bin_edges(DISTANCE_MAX, DISTANCE_BINS)
        rng = np.random.default_rng(5)
        d = rng.uniform(0.0, 2.0 * DISTANCE_MAX, size=500)
        bins = np.clip(
            np.searchsorted(edges, d * d, side="right") - 1, 0, DISTANCE_BINS
        )
        np.testing.assert_array_equal(bins, distance_bin(d))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            squared_bin_edges(10.0, 0)
        with pytest.raises(ValueError):
            squared_bin_edges(-1.0, 4)


class TestEnvironmentGrid:
    @pytest.fixture(scope="class")
    def grid_setup(self):
        rng = np.random.default_rng(11)
        atoms = rng.uniform(-10.0, 10.0, size=(150, 3))
        probes = rng.uniform(-14.0, 14.0, size=(40, 3))
        return EnvironmentGrid(atoms, cutoff=3.0), atoms, probes

    def test_candidates_cover_all_pairs_within_cutoff(self, grid_setup):
        grid, atoms, probes = grid_setup
        probe_ids, positions = grid.candidate_pairs(probes)
        found = set(zip(probe_ids.tolist(), grid._sorted_atoms[positions].tolist()))
        diff = probes[:, None, :] - atoms[None, :, :]
        d = np.sqrt((diff * diff).sum(-1))
        for q, m in zip(*np.where(d <= grid.cutoff)):
            assert (q, m) in found

    def test_candidate_order_is_canonical(self, grid_setup):
        grid, _atoms, probes = grid_setup
        probe_ids, positions = grid.candidate_pairs(probes)
        # Probe-major, strictly increasing cell-sorted position per probe:
        # exactly the order the dense oracle enumerates, which is what
        # makes the pruned and dense accumulations bit-identical.
        assert np.all(np.diff(probe_ids) >= 0)
        same_probe = np.diff(probe_ids) == 0
        assert np.all(np.diff(positions)[same_probe] > 0)

    def test_far_probes_contribute_nothing(self, grid_setup):
        # Probes far outside the box are clipped into the border ring; any
        # spurious candidates they pick up lie beyond the cutoff and must
        # produce an exactly-zero penalty.
        grid, atoms, _probes = grid_setup
        far = np.array([[[500.0, 500.0, 500.0], [-300.0, 0.0, 0.0]]])
        probe_ids, positions = grid.candidate_pairs(far.reshape(-1, 3))
        if probe_ids.size:
            diff = far.reshape(-1, 3)[probe_ids] - atoms[grid._sorted_atoms[positions]]
            assert np.all((diff * diff).sum(-1) > grid.cutoff**2)
        sq_contacts = np.full((2, grid.n_atoms), grid.cutoff**2)
        np.testing.assert_array_equal(
            grid.penalty_sum(far, sq_contacts), np.zeros(1)
        )

    def test_penalty_sum_pruned_bit_identical_to_dense(self, grid_setup):
        grid, _atoms, _probes = grid_setup
        rng = np.random.default_rng(23)
        pop, slots = 6, 9
        probes = rng.uniform(-12.0, 12.0, size=(pop, slots, 3))
        contacts = rng.uniform(0.5, 3.0, size=(slots, grid.n_atoms))
        sq_contacts = contacts * contacts
        pruned = grid.penalty_sum(probes, sq_contacts)
        dense = env_oracle.penalty_sum(grid, probes, sq_contacts)
        np.testing.assert_array_equal(pruned, dense)

    def test_penalty_sum_matches_plain_numpy(self, grid_setup):
        grid, atoms, _probes = grid_setup
        rng = np.random.default_rng(29)
        pop, slots = 4, 7
        probes = rng.uniform(-12.0, 12.0, size=(pop, slots, 3))
        contacts = rng.uniform(0.5, 3.0, size=(slots, grid.n_atoms))
        diff = probes[:, :, None, :] - atoms[None, None, :, :]
        d = np.sqrt((diff * diff).sum(-1))
        expected = np.where(
            d < contacts[None], (1.0 - (d / contacts[None]) ** 2) ** 2, 0.0
        ).sum(axis=(1, 2))
        result = grid.penalty_sum(probes, contacts * contacts)
        np.testing.assert_allclose(result, expected, rtol=1e-9)

    def test_block_size_does_not_change_totals(self, grid_setup, monkeypatch):
        grid, _atoms, _probes = grid_setup
        rng = np.random.default_rng(31)
        probes = rng.uniform(-12.0, 12.0, size=(10, 5, 3))
        sq_contacts = rng.uniform(0.5, 9.0, size=(5, grid.n_atoms))
        reference = grid.penalty_sum(probes, sq_contacts)
        for block in (1, 3, 7, 64):
            monkeypatch.setattr(pairwise, "DEFAULT_BLOCK_SIZE", block)
            np.testing.assert_array_equal(
                grid.penalty_sum(probes, sq_contacts), reference
            )

    def test_tiny_cutoff_grid_stays_bounded(self):
        # A cutoff far smaller than the box would want ~1e18 cells; the
        # grid must coarsen its cell edge instead of allocating them.
        rng = np.random.default_rng(41)
        atoms = rng.uniform(-50.0, 50.0, size=(30, 3))
        grid = EnvironmentGrid(atoms, cutoff=1e-4)
        assert int(grid._dims.prod()) <= EnvironmentGrid._MAX_CELLS
        assert grid._cell_edge >= grid.cutoff
        # Coarser cells still cover genuine contacts: every atom must find
        # itself (distance zero) among its own candidates.
        probe_ids, positions = grid.candidate_pairs(atoms)
        found = set(zip(probe_ids.tolist(), grid._sorted_atoms[positions].tolist()))
        for m in range(atoms.shape[0]):
            assert (m, m) in found

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            EnvironmentGrid(np.zeros((4, 2)), cutoff=1.0)
        with pytest.raises(ValueError):
            EnvironmentGrid(np.zeros((4, 3)), cutoff=0.0)

    def test_empty_environment(self):
        grid = EnvironmentGrid(np.empty((0, 3)), cutoff=2.0)
        totals = grid.penalty_sum(np.zeros((3, 2, 3)), np.empty((2, 0)))
        np.testing.assert_array_equal(totals, np.zeros(3))


class TestScalarBatchedEquivalence:
    """evaluate(c) must equal evaluate_batch(c[None])[0] to 1e-9."""

    def _check(self, fn, coords, torsions):
        batch = fn.evaluate_batch(coords, torsions)
        for i in range(coords.shape[0]):
            scalar = fn.evaluate(coords[i], torsions[i])
            assert scalar == pytest.approx(batch[i], rel=1e-9, abs=1e-9)

    def test_vdw(self, small_target, random_population):
        coords, torsions = random_population
        self._check(SoftSphereVDW(small_target), coords, torsions)

    def test_triplet(self, small_target, knowledge_base, random_population):
        coords, torsions = random_population
        self._check(TripletScore(small_target, knowledge_base), coords, torsions)

    def test_distance(self, small_target, knowledge_base, random_population):
        coords, torsions = random_population
        self._check(DistanceScore(small_target, knowledge_base), coords, torsions)

    def test_closed_population(self, small_multi_score, small_population):
        for fn in small_multi_score:
            self._check(fn, small_population.coords, small_population.torsions)

    def test_batched_in_fixed_blocks(self, small_target, knowledge_base):
        """A population is scored in blocks of 128 members, whatever its
        size: at 129 the first 128 members score as a population of 128
        does, and the last is a one-member block, scored exactly as
        :meth:`evaluate` scores it.  The members are crowded (squeezed
        toward their centroid, tens of overlapping pairs each), so a
        one-member block's two-lane VDW sum differs from the one-by-one sum
        of a larger block, and a different partition shows."""
        torsions = RamachandranModel().sample_population(
            small_target.sequence, 129, np.random.default_rng(129)
        )
        coords, _ = small_target.build_batch(torsions)
        centre = coords.mean(axis=(1, 2), keepdims=True)
        coords = centre + 0.35 * (coords - centre)
        vdw = SoftSphereVDW(small_target)
        for fn in (
            vdw,
            TripletScore(small_target, knowledge_base),
            DistanceScore(small_target, knowledge_base),
        ):
            batch = fn.evaluate_batch(coords, torsions)
            np.testing.assert_array_equal(
                batch[:128], fn.evaluate_batch(coords[:128], torsions[:128])
            )
            assert batch[128] == fn.evaluate(coords[128], torsions[128])
        # The case tells the two sum orders apart.
        last = vdw.evaluate(coords[128], torsions[128])
        assert vdw.evaluate_batch(coords[127:], torsions[127:])[1] != last


class TestVDWEnvironmentPruning:
    def test_pruned_bit_identical_to_dense(self, small_target, random_population):
        coords, torsions = random_population
        vdw = SoftSphereVDW(small_target)
        np.testing.assert_array_equal(
            vdw.evaluate_batch(coords, torsions),
            env_oracle.soft_sphere_vdw(vdw, coords),
        )

    def test_grid_built_once_per_scorer(self, small_target):
        vdw = SoftSphereVDW(small_target)
        assert vdw._env_grid is not None
        assert vdw._env_grid.n_atoms == small_target.environment_coords.shape[0]


class TestDistanceOverflowRegression:
    def test_out_of_range_pairs_score_neutral_zero(self, small_target, knowledge_base):
        # Stretch the loop so every scored pair sits beyond DISTANCE_MAX:
        # the seed clipped these into the last occupied bin and scored them
        # as if they sat at the table edge; they must contribute nothing.
        score = DistanceScore(small_target, knowledge_base)
        n = small_target.n_residues
        coords = np.zeros((1, n, 4, 3))
        coords[0, :, :, 0] = (
            np.arange(n)[:, None] * (2.0 * DISTANCE_MAX)
            + np.arange(4)[None, :] * 0.1
        )
        assert score.evaluate_batch(coords, None)[0] == 0.0
        assert score.evaluate(coords[0], None) == 0.0

    def test_in_range_pairs_still_score(self, small_target, knowledge_base, small_population):
        score = DistanceScore(small_target, knowledge_base)
        values = score.evaluate_batch(
            small_population.coords, small_population.torsions
        )
        assert np.all(np.isfinite(values))
        assert np.any(values != 0.0)


class TestBatchedCPUBackend:
    def test_batched_mode_matches_scalar_reference(
        self, small_target, knowledge_base, monkeypatch
    ):
        """Small-block batched scoring (3-member chunks over a population of
        8, the last chunk ragged) matches the scalar per-member reference."""
        monkeypatch.setattr(pairwise, "DEFAULT_BLOCK_SIZE", 3)
        config = SamplingConfig(population_size=8, n_complexes=2, iterations=1, seed=1)
        multi = default_multi_score(small_target, knowledge_base=knowledge_base)
        scalar = make_backend("cpu", small_target, multi, config)
        batched = make_backend("gpu", small_target, multi, config)

        torsions = RamachandranModel().sample_population(
            small_target.sequence, 8, np.random.default_rng(2)
        )
        closed = scalar.close_loops(torsions)
        np.testing.assert_allclose(
            batched.evaluate_scores(closed.coords, closed.torsions),
            scalar.evaluate_scores(closed.coords, closed.torsions),
            rtol=1e-9,
        )
        for name in ("EvalVDW", "EvalTRIP", "EvalDIST"):
            assert name in batched.ledger.records
            assert batched.profiler.kernel_calls[f"[{name}]"] == 1


class TestKernelBlockSizeConfig:
    def test_validation(self):
        """The block size is no configuration: the field is gone, and
        naming it is an error."""
        fields = {field.name for field in dataclasses.fields(SamplingConfig)}
        assert "kernel_block_size" not in fields
        with pytest.raises(TypeError, match="kernel_block_size"):
            SamplingConfig(population_size=8, n_complexes=2, kernel_block_size=32)


class TestFusedBinnedTableSum:
    """The fused gather-and-accumulate pass is bit-identical to the
    two-step reference (searchsorted bins, then ``table[rows, bins]``)."""

    @staticmethod
    def _reference(points, first, second, pair_tables, sq_edges, block_size):
        from repro.scoring.pairwise import (
            bin_squared_distances,
            indexed_sq_distances,
        )

        pop = points.shape[0]
        totals = np.zeros(pop, dtype=np.float64)
        rows = np.arange(first.size)[None, :]
        for block in population_blocks(pop, block_size):
            sq_d = indexed_sq_distances(points[block], points[block], first, second)
            bins = bin_squared_distances(sq_d, sq_edges)
            totals[block] = np.einsum("pk->p", pair_tables[rows, bins])
        return totals

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(1234)
        n_atoms, n_pairs, n_bins = 24, 60, 7
        points = rng.normal(scale=4.0, size=(37, n_atoms, 3))
        first = rng.integers(0, n_atoms, size=n_pairs)
        second = rng.integers(0, n_atoms, size=n_pairs)
        pair_tables = rng.normal(size=(n_pairs, n_bins + 1))
        sq_edges = squared_bin_edges(9.0, n_bins)
        return points, first, second, pair_tables, sq_edges

    @pytest.mark.parametrize("block_size", [None, 1, 3, 16, 37, 1000])
    def test_bit_identical_to_reference(self, problem, block_size, monkeypatch):
        from repro.scoring.pairwise import binned_table_sum

        if block_size is not None:
            monkeypatch.setattr(pairwise, "DEFAULT_BLOCK_SIZE", block_size)
        points, first, second, pair_tables, sq_edges = problem
        fused = binned_table_sum(points, first, second, pair_tables, sq_edges)
        reference = self._reference(
            points, first, second, pair_tables, sq_edges, block_size
        )
        assert np.array_equal(fused, reference)

    def test_exact_edge_values_bin_identically(self):
        """Distances landing exactly on a squared edge take the same bin."""
        from repro.scoring.pairwise import binned_table_sum

        n_bins = 4
        sq_edges = squared_bin_edges(4.0, n_bins)
        # One pair (atom 0 - atom 1); members placed so the squared
        # distance hits every edge exactly, plus one beyond the last edge.
        distances = np.sqrt(sq_edges).tolist() + [10.0]
        points = np.zeros((len(distances), 2, 3))
        for member, d in enumerate(distances):
            points[member, 1, 0] = d
        first = np.array([0])
        second = np.array([1])
        pair_tables = np.arange(n_bins + 1, dtype=np.float64)[None, :] + 1.0
        totals = binned_table_sum(points, first, second, pair_tables, sq_edges)
        reference = self._reference(points, first, second, pair_tables, sq_edges, None)
        assert np.array_equal(totals, reference)
        # The beyond-range member reads the overflow column.
        assert totals[-1] == pair_tables[0, -1]

    def test_distance_score_unchanged(self, small_target, knowledge_base):
        """DistanceScore totals through the fused kernel equal the scalar
        per-member path (which shares the same primitive)."""
        score = DistanceScore(small_target, knowledge_base=knowledge_base)
        rng = np.random.default_rng(5)
        coords = rng.normal(scale=5.0, size=(6, small_target.n_residues, 4, 3))
        batch = score.evaluate_batch(coords, None)
        for member in range(coords.shape[0]):
            assert batch[member] == score.evaluate(coords[member], None)


class TestRotationAlignmentLayout:
    """The CCD alignment terms depend on the values, not the caller's
    memory layout: a Fortran-ordered or plane-stacked copy of the same
    ``(P, 3, 3)`` block gives the C-ordered result bit for bit."""

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(2026)
        pop = 4096
        points = rng.normal(scale=5.0, size=(pop, 3, 3))
        targets = rng.normal(scale=5.0, size=(3, 3))
        origins = rng.normal(scale=5.0, size=(pop, 3))
        axes = rng.normal(size=(pop, 3))
        axes /= np.sqrt(np.einsum("pi,pi->p", axes, axes))[:, None]
        return points, targets, origins, axes

    @staticmethod
    def _relayout(arr, layout):
        if layout == "C":
            return np.ascontiguousarray(arr)
        if layout == "F":
            return np.asfortranarray(arr)
        # Plane-stacked: one member-innermost plane per coordinate, then
        # stacked back to the caller's shape (member axis first).
        planes = np.ascontiguousarray(np.moveaxis(arr, (0, -1), (-1, 0)))
        return np.moveaxis(planes, (0, -1), (-1, 0))

    @pytest.mark.parametrize("layout", ["C", "F", "planes"])
    def test_terms_independent_of_layout(self, problem, layout):
        from repro.scoring.pairwise import rotation_alignment_terms

        points, targets, origins, axes = problem
        a_ref, b_ref = rotation_alignment_terms(points, targets, origins, axes)
        a, b = rotation_alignment_terms(
            self._relayout(points, layout),
            targets,
            self._relayout(origins, layout),
            self._relayout(axes, layout),
        )
        assert np.array_equal(a, a_ref)
        assert np.array_equal(b, b_ref)
