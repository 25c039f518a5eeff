"""Unit tests for the loops package: Ramachandran model, library, targets."""

import numpy as np
import pytest

from repro import constants
from repro.loops.library import LoopLibrary, default_library
from repro.loops.loop import LoopTarget, canonical_n_anchor
from repro.loops.ramachandran import (
    RamachandranModel,
    sample_basin,
    sample_loop_torsions,
)
from repro.loops.targets import (
    benchmark_registry,
    get_target,
    make_target,
    paper_named_targets,
    registry_summary,
)


class TestRamachandran:
    def test_sample_basin_in_range(self, rng):
        for aa in "AGPW":
            phi, psi = sample_basin(aa, rng)
            assert -np.pi < phi <= np.pi
            assert -np.pi < psi <= np.pi

    def test_sample_loop_torsions_shape(self, rng):
        torsions = sample_loop_torsions("ACDEFG", rng)
        assert torsions.shape == (12,)

    def test_smoothness_validation(self, rng):
        with pytest.raises(ValueError):
            sample_loop_torsions("ACD", rng, smoothness=1.0)

    @pytest.mark.parametrize("smoothness", [1.0, 1.5, -0.1, float("nan")])
    def test_model_validates_smoothness_at_construction(self, smoothness):
        with pytest.raises(ValueError, match="smoothness"):
            RamachandranModel(smoothness=smoothness)

    def test_generic_residues_prefer_negative_phi(self):
        rng = np.random.default_rng(0)
        phis = np.array([sample_basin("L", rng)[0] for _ in range(300)])
        assert np.mean(phis < 0) > 0.9

    def test_model_population_shape(self, rng):
        model = RamachandranModel()
        population = model.sample_population("ACDEF", 7, rng)
        assert population.shape == (7, 10)

    def test_model_population_requires_positive_size(self, rng):
        with pytest.raises(ValueError):
            RamachandranModel().sample_population("ACD", 0, rng)

    def test_log_density_higher_at_basin_centre(self):
        model = RamachandranModel()
        basins = constants.ramachandran_basins("A")
        phi0, psi0 = basins[0][0], basins[0][1]
        at_centre = model.log_density("A", phi0, psi0)
        far_away = model.log_density("A", 2.5, -2.5)
        assert at_centre > far_away

    def test_sample_pairs_shape(self, rng):
        pairs = RamachandranModel().sample_pairs("G", 11, rng)
        assert pairs.shape == (11, 2)


class TestLoopLibrary:
    def test_generation_is_deterministic(self):
        a = LoopLibrary.generate(n_loops=10, seed=3)
        b = LoopLibrary.generate(n_loops=10, seed=3)
        assert a.sequences() == b.sequences()
        np.testing.assert_array_equal(a[0].torsions, b[0].torsions)

    def test_different_seed_gives_different_library(self):
        a = LoopLibrary.generate(n_loops=10, seed=3)
        b = LoopLibrary.generate(n_loops=10, seed=4)
        assert a.sequences() != b.sequences()

    def test_lengths_cycle_through_requested(self):
        library = LoopLibrary.generate(n_loops=6, lengths=(5, 7), seed=1)
        assert sorted({r.length for r in library}) == [5, 7]

    def test_records_have_consistent_shapes(self, tiny_library):
        for record in tiny_library:
            n = record.length
            assert record.torsions.shape == (2 * n,)
            assert record.coords.shape == (n, 4, 3)

    def test_filter_length(self, tiny_library):
        filtered = tiny_library.filter_length(min_length=8)
        assert all(r.length >= 8 for r in filtered)
        assert len(filtered) < len(tiny_library)

    def test_torsion_pairs_concatenated(self, tiny_library):
        pairs = tiny_library.torsion_pairs()
        assert pairs.shape == (tiny_library.residue_count(), 2)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            LoopLibrary.generate(n_loops=0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(lengths=()), "lengths"),
            (dict(lengths=(-3,)), "lengths"),
            (dict(lengths=(8, 0)), "lengths"),
            (dict(alphabet=""), "alphabet"),
            (dict(alphabet="AC1"), "alphabet"),
            (dict(smoothness=1.5), "smoothness"),
        ],
    )
    def test_rejects_bad_arguments_before_any_draw(self, monkeypatch, kwargs, name):
        def no_draws(*args):
            raise AssertionError("a generator was created before validation")

        monkeypatch.setattr("repro.loops.library.spawn_rng", no_draws)
        with pytest.raises(ValueError, match=name):
            LoopLibrary.generate(n_loops=3, **kwargs)

    def test_default_library_cached(self):
        assert default_library(seed=2010, n_loops=50) is default_library(seed=2010, n_loops=50)


class TestBenchmarkRegistry:
    def test_fifty_three_targets(self):
        assert len(benchmark_registry()) == 53

    def test_length_distribution_matches_table_iv(self):
        assert registry_summary() == {10: 27, 11: 17, 12: 9}

    def test_paper_named_targets_present(self):
        named = paper_named_targets()
        expected = {
            "1cex(40:51)", "1akz(181:192)", "1xyz(813:824)", "1ixh(160:171)",
            "153l(98:109)", "1dim(213:224)", "3pte(91:101)", "5pti(7:17)",
        }
        assert set(named) == expected

    def test_names_unique(self):
        names = [t.name for t in benchmark_registry()]
        assert len(names) == len(set(names))

    def test_only_1xyz_is_buried(self):
        buried = [t.name for t in benchmark_registry() if t.buried]
        assert buried == ["1xyz(813:824)"]

    def test_get_target_by_full_name_and_pdb_id(self):
        assert get_target("1cex(40:51)").name == "1cex(40:51)"
        assert get_target("1cex").name == "1cex(40:51)"

    def test_get_target_unknown(self):
        with pytest.raises(KeyError):
            get_target("9zzz(1:10)")

    def test_get_target_cached(self):
        assert get_target("1cex(40:51)") is get_target("1cex(40:51)")


class TestMakeTarget:
    def test_deterministic_generation(self):
        a = make_target("abcd", 10, 19)
        b = make_target("abcd", 10, 19)
        assert a.sequence == b.sequence
        np.testing.assert_array_equal(a.native_torsions, b.native_torsions)
        np.testing.assert_array_equal(a.environment_coords, b.environment_coords)

    def test_explicit_seed_changes_target(self):
        a = make_target("abcd", 10, 19, seed=1)
        b = make_target("abcd", 10, 19, seed=2)
        assert not np.allclose(a.native_torsions, b.native_torsions)

    def test_native_is_self_consistent(self, small_target, paper_target):
        assert small_target.native_check()
        assert paper_target.native_check()

    def test_buried_target_denser_environment(self):
        exposed = make_target("abcd", 1, 12, buried=False)
        buried = make_target("abcd", 1, 12, buried=True)
        assert buried.environment_coords.shape[0] > exposed.environment_coords.shape[0]

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            make_target("abcd", 10, 5)


class TestLoopTarget:
    def test_basic_properties(self, small_target):
        assert small_target.n_residues == 6
        assert small_target.n_torsions == 12
        assert len(small_target.residues) == 6
        assert small_target.centroid_distances.shape == (6,)
        assert small_target.centroid_radii.shape == (6,)

    def test_build_and_rmsd(self, small_target, rng):
        torsions = rng.uniform(-np.pi, np.pi, size=small_target.n_torsions)
        coords, closure = small_target.build(torsions)
        assert coords.shape == (6, 4, 3)
        assert closure.shape == (3, 3)
        assert small_target.rmsd_to_native(coords) > 0.0
        assert small_target.rmsd_to_native(small_target.native_coords) == 0.0

    def test_batch_build_and_rmsd(self, small_target, rng):
        torsions = rng.uniform(-np.pi, np.pi, size=(5, small_target.n_torsions))
        coords, closure = small_target.build_batch(torsions)
        rmsds = small_target.rmsd_to_native_batch(coords)
        errors = small_target.closure_error_batch(closure)
        assert rmsds.shape == (5,)
        assert errors.shape == (5,)
        assert np.all(rmsds > 0.0)

    def test_native_closure_error_is_zero(self, small_target):
        _, closure = small_target.build(small_target.native_torsions)
        assert small_target.closure_error(closure) == pytest.approx(0.0, abs=1e-9)

    def test_describe_mentions_name_and_size(self, buried_target):
        description = buried_target.describe()
        assert "1xyz" in description
        assert "buried" in description

    def test_validation_rejects_inconsistent_shapes(self, small_target):
        with pytest.raises(ValueError):
            LoopTarget(
                name="bad",
                pdb_id="bad",
                start_res=1,
                end_res=6,
                sequence=small_target.sequence,
                n_anchor=small_target.n_anchor,
                c_anchor=small_target.c_anchor,
                end_phi=small_target.end_phi,
                native_torsions=small_target.native_torsions[:-2],
                native_coords=small_target.native_coords,
                environment_coords=small_target.environment_coords,
                environment_radii=small_target.environment_radii,
            )

    def test_validation_rejects_wrong_span(self, small_target):
        with pytest.raises(ValueError):
            LoopTarget(
                name="bad",
                pdb_id="bad",
                start_res=1,
                end_res=9,
                sequence=small_target.sequence,
                n_anchor=small_target.n_anchor,
                c_anchor=small_target.c_anchor,
                end_phi=small_target.end_phi,
                native_torsions=small_target.native_torsions,
                native_coords=small_target.native_coords,
                environment_coords=small_target.environment_coords,
                environment_radii=small_target.environment_radii,
            )

    def test_canonical_anchor_geometry(self):
        anchor = canonical_n_anchor()
        assert anchor.shape == (3, 3)
        assert np.linalg.norm(anchor[1] - anchor[0]) == pytest.approx(constants.BOND_C_N)
        assert np.linalg.norm(anchor[2] - anchor[1]) == pytest.approx(constants.BOND_N_CA)
