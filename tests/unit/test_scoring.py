"""Unit tests for the scoring functions and the knowledge base."""

import dataclasses

import numpy as np
import pytest

from repro.geometry.rotation import random_rotation_matrix
from repro.loops.library import LoopLibrary
from repro.loops.targets import make_target
from repro.scoring import MultiScore, default_multi_score
from repro.scoring.base import ScoringFunction
from repro.scoring.composite import WeightedSumScore
from repro.scoring.distance import DistanceScore
from repro.scoring.knowledge import (
    DISTANCE_BINS,
    N_ATOM_PAIRS,
    N_TRIPLET_CLASSES,
    SEPARATION_CLASSES,
    TORSION_BINS,
    atom_pair_index,
    build_knowledge_base,
    distance_bin,
    separation_class,
    torsion_bin,
    triplet_class_index,
)
from repro.scoring.normalization import normalize_scores, score_ranges
from repro.scoring.triplet import TripletScore
from repro.scoring.vdw import SoftSphereVDW, soft_sphere_penalty


class TestKnowledgeIndexing:
    def test_torsion_bin_range(self):
        angles = np.linspace(-np.pi, np.pi, 500)
        bins = torsion_bin(angles)
        assert bins.min() >= 0
        assert bins.max() <= TORSION_BINS - 1

    def test_torsion_bin_monotone(self):
        angles = np.linspace(-np.pi + 0.01, np.pi - 0.01, 50)
        bins = torsion_bin(angles)
        assert np.all(np.diff(bins) >= 0)

    def test_distance_bin_range_and_overflow(self):
        distances = np.array([0.0, 5.0, 14.9, 15.0, 100.0])
        bins = distance_bin(distances)
        assert bins[0] == 0
        # In-range distances fill the regular bins...
        assert np.all(bins[:3] < DISTANCE_BINS)
        # ...while distances at or beyond DISTANCE_MAX map to the dedicated
        # overflow bin instead of being clipped into the last occupied bin.
        assert bins[3] == DISTANCE_BINS
        assert bins[4] == DISTANCE_BINS
        assert np.all((bins >= 0) & (bins <= DISTANCE_BINS))

    def test_atom_pair_index_symmetric(self):
        for a in range(4):
            for b in range(4):
                assert atom_pair_index(a, b) == atom_pair_index(b, a)
        indices = {atom_pair_index(a, b) for a in range(4) for b in range(a, 4)}
        assert indices == set(range(N_ATOM_PAIRS))

    def test_separation_class(self):
        assert separation_class(1) == 0
        assert separation_class(3) == 2
        assert separation_class(4) == SEPARATION_CLASSES - 1
        assert separation_class(10) == SEPARATION_CLASSES - 1
        with pytest.raises(ValueError):
            separation_class(0)

    def test_triplet_class_index_range(self):
        indices = {
            triplet_class_index(a, b, c)
            for a in "AGP"
            for b in "AGP"
            for c in "AGP"
        }
        assert len(indices) == N_TRIPLET_CLASSES
        assert min(indices) == 0
        assert max(indices) == N_TRIPLET_CLASSES - 1

    def test_non_special_residues_share_class(self):
        assert triplet_class_index("A", "L", "K") == triplet_class_index("V", "I", "F")
        assert triplet_class_index("A", "G", "K") != triplet_class_index("A", "L", "K")


class TestKnowledgeBase:
    def test_table_shapes(self, knowledge_base):
        assert knowledge_base.triplet_neg_log.shape == (
            N_TRIPLET_CLASSES, TORSION_BINS, TORSION_BINS,
        )
        assert knowledge_base.distance_neg_log.shape == (
            N_ATOM_PAIRS, SEPARATION_CLASSES, DISTANCE_BINS,
        )

    def test_tables_finite(self, knowledge_base):
        assert np.all(np.isfinite(knowledge_base.triplet_neg_log))
        assert np.all(np.isfinite(knowledge_base.distance_neg_log))

    def test_triplet_rows_are_neg_log_probabilities(self, knowledge_base):
        probs = np.exp(-knowledge_base.triplet_neg_log)
        sums = probs.sum(axis=(1, 2))
        np.testing.assert_allclose(sums, 1.0, atol=1e-8)

    def test_library_size_recorded(self, knowledge_base, tiny_library):
        assert knowledge_base.library_size == len(tiny_library)

    def test_empty_library_rejected(self):
        with pytest.raises(ValueError):
            build_knowledge_base(LoopLibrary(records=[]))

    @pytest.mark.parametrize("field", ["torsions", "coords"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_record_rejected(self, tiny_library, field, value):
        records = list(tiny_library.records)
        values = getattr(records[5], field).copy()
        values.flat[3] = value
        records[5] = dataclasses.replace(records[5], **{field: values})
        with pytest.raises(ValueError, match="record 5"):
            build_knowledge_base(LoopLibrary(records=records))

    def test_populated_basins_cheaper_than_empty_bins(self, knowledge_base):
        # The alpha-helical region is heavily populated by the library, so its
        # -log probability must be smaller than a never-observed corner.
        cls = triplet_class_index("A", "A", "A")
        alpha_bin_phi = int(torsion_bin(np.array([np.radians(-63.0)]))[0])
        alpha_bin_psi = int(torsion_bin(np.array([np.radians(-43.0)]))[0])
        empty_bin_phi = int(torsion_bin(np.array([np.radians(170.0)]))[0])
        empty_bin_psi = int(torsion_bin(np.array([np.radians(-90.0)]))[0])
        table = knowledge_base.triplet_neg_log[cls]
        assert table[alpha_bin_phi, alpha_bin_psi] < table[empty_bin_phi, empty_bin_psi]

    def test_nbytes_positive(self, knowledge_base):
        assert knowledge_base.nbytes > 0


class _FixedScore(ScoringFunction):
    """Trivial scoring function used to exercise MultiScore composition."""

    name = "FIXED"
    kernel_name = "EvalFixed"

    def __init__(self, value: float) -> None:
        self.value = value

    def evaluate(self, coords, torsions):
        return self.value

    def evaluate_batch(self, coords, torsions):
        return np.full(np.asarray(coords).shape[0], self.value)


class TestMultiScore:
    def test_requires_at_least_one_function(self):
        with pytest.raises(ValueError):
            MultiScore([])

    def test_names_and_len(self, small_multi_score):
        assert len(small_multi_score) == 3
        assert small_multi_score.names == ["VDW", "TRIPLET", "DIST"]

    def test_evaluate_matches_batch(self, small_multi_score, small_population):
        coords = small_population.coords
        torsions = small_population.torsions
        batch = small_multi_score.evaluate_batch(coords, torsions)
        assert batch.shape == (coords.shape[0], 3)
        single = small_multi_score.evaluate(coords[0], torsions[0])
        np.testing.assert_allclose(single, batch[0], rtol=1e-10)

    def test_composition_with_custom_functions(self):
        multi = MultiScore([_FixedScore(1.0), _FixedScore(3.0)])
        coords = np.zeros((4, 2, 4, 3))
        scores = multi.evaluate_batch(coords, np.zeros((4, 4)))
        np.testing.assert_array_equal(scores[:, 0], 1.0)
        np.testing.assert_array_equal(scores[:, 1], 3.0)

    def test_default_multi_score_order(self, small_target, knowledge_base):
        multi = default_multi_score(small_target, knowledge_base=knowledge_base)
        assert [fn.name for fn in multi] == ["VDW", "TRIPLET", "DIST"]


class TestTripletScore:
    def test_scalar_matches_batch(self, small_target, knowledge_base, small_population):
        score = TripletScore(small_target, knowledge_base)
        batch = score.evaluate_batch(small_population.coords, small_population.torsions)
        for i in range(3):
            assert score.evaluate(
                small_population.coords[i], small_population.torsions[i]
            ) == pytest.approx(batch[i])

    def test_independent_of_coordinates(self, small_target, knowledge_base, small_population):
        # The triplet potential is a pure torsion-space lookup.
        score = TripletScore(small_target, knowledge_base)
        torsions = small_population.torsions
        a = score.evaluate_batch(small_population.coords, torsions)
        b = score.evaluate_batch(np.zeros_like(small_population.coords), torsions)
        np.testing.assert_allclose(a, b)

    def test_ramachandran_conformations_score_better_than_outliers(
        self, small_target, knowledge_base
    ):
        score = TripletScore(small_target, knowledge_base)
        n = small_target.n_residues
        alpha = np.tile([np.radians(-63.0), np.radians(-43.0)], n)
        forbidden = np.tile([np.radians(170.0), np.radians(-90.0)], n)
        assert score.evaluate(None, alpha) < score.evaluate(None, forbidden)

    def test_metadata_matches_paper(self, small_target, knowledge_base):
        score = TripletScore(small_target, knowledge_base)
        assert score.kernel_name == "EvalTRIP"
        assert score.registers_per_thread == 20


class TestDistanceScore:
    def test_scalar_matches_batch(self, small_target, knowledge_base, small_population):
        score = DistanceScore(small_target, knowledge_base)
        batch = score.evaluate_batch(small_population.coords, small_population.torsions)
        for i in range(3):
            assert score.evaluate(
                small_population.coords[i], small_population.torsions[i]
            ) == pytest.approx(batch[i])

    def test_pair_count(self, small_target, knowledge_base):
        score = DistanceScore(small_target, knowledge_base)
        n = small_target.n_residues
        expected_residue_pairs = n * (n - 1) // 2
        assert score.n_pairs == expected_residue_pairs * 16

    def test_min_separation_reduces_pairs(self, small_target, knowledge_base):
        close = DistanceScore(small_target, knowledge_base, min_separation=1)
        far = DistanceScore(small_target, knowledge_base, min_separation=3)
        assert far.n_pairs < close.n_pairs
        with pytest.raises(ValueError):
            DistanceScore(small_target, knowledge_base, min_separation=0)

    def test_translation_invariance(self, small_target, knowledge_base, small_population):
        score = DistanceScore(small_target, knowledge_base)
        coords = small_population.coords
        shifted = coords + np.array([5.0, -3.0, 2.0])
        np.testing.assert_allclose(
            score.evaluate_batch(coords, small_population.torsions),
            score.evaluate_batch(shifted, small_population.torsions),
            rtol=1e-12,
        )


class TestSoftSphereVDW:
    def test_penalty_zero_beyond_contact(self):
        assert np.all(
            soft_sphere_penalty(np.array([3.0, 5.0]), np.array([2.9, 2.0])) == 0.0
        )

    def test_penalty_positive_and_increasing_with_overlap(self):
        contact = np.array([3.0, 3.0, 3.0])
        distances = np.array([2.5, 1.5, 0.5])
        penalties = soft_sphere_penalty(distances, contact)
        assert np.all(penalties > 0.0)
        assert penalties[0] < penalties[1] < penalties[2]

    def test_penalty_handles_zero_contact(self):
        assert soft_sphere_penalty(np.array([0.1]), np.array([0.0]))[0] == 0.0

    def test_scalar_matches_batch(self, small_target, small_population):
        score = SoftSphereVDW(small_target)
        batch = score.evaluate_batch(small_population.coords, small_population.torsions)
        for i in range(3):
            assert score.evaluate(
                small_population.coords[i], small_population.torsions[i]
            ) == pytest.approx(batch[i])

    def test_native_scores_lower_than_collapsed_conformation(self, small_target):
        score = SoftSphereVDW(small_target)
        native = score.evaluate(small_target.native_coords, small_target.native_torsions)
        # A collapsed loop (all atoms near one point) clashes with everything.
        collapsed = np.zeros_like(small_target.native_coords)
        collapsed += small_target.native_coords.mean(axis=(0, 1))
        clashed = score.evaluate(collapsed, small_target.native_torsions)
        assert clashed > native

    def test_buried_environment_increases_score(self):
        exposed_target = make_target("vdwt", 1, 8, buried=False, seed=5)
        buried_target = make_target("vdwt", 1, 8, buried=True, seed=5)
        # Same native loop, different environment density.
        exposed = SoftSphereVDW(exposed_target)
        buried = SoftSphereVDW(buried_target)
        conformation = exposed_target.native_coords + 1.5
        torsions = exposed_target.native_torsions
        assert buried.evaluate(conformation, torsions) >= exposed.evaluate(
            conformation, torsions
        )

    def test_parameter_validation(self, small_target):
        with pytest.raises(ValueError):
            SoftSphereVDW(small_target, tolerance=0.0)
        with pytest.raises(ValueError):
            SoftSphereVDW(small_target, min_residue_separation=0)


class TestWeightedSumScore:
    def test_defaults_to_uniform_weights(self, small_multi_score, small_population):
        composite = WeightedSumScore(small_multi_score)
        scores = small_multi_score.evaluate_batch(
            small_population.coords, small_population.torsions
        )
        combined = composite.evaluate_batch(
            small_population.coords, small_population.torsions
        )
        np.testing.assert_allclose(combined, scores.mean(axis=1), rtol=1e-12)

    def test_custom_weights(self, small_multi_score, small_population):
        composite = WeightedSumScore(small_multi_score, weights=[1.0, 0.0, 0.0])
        scores = small_multi_score.evaluate_batch(
            small_population.coords, small_population.torsions
        )
        combined = composite.evaluate_batch(
            small_population.coords, small_population.torsions
        )
        np.testing.assert_allclose(combined, scores[:, 0], rtol=1e-12)

    def test_invalid_weights_rejected(self, small_multi_score):
        with pytest.raises(ValueError):
            WeightedSumScore(small_multi_score, weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            WeightedSumScore(small_multi_score, weights=[-1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            WeightedSumScore(small_multi_score, weights=[0.0, 0.0, 0.0])


class TestNormalization:
    def test_normalized_range(self, rng):
        scores = rng.normal(size=(20, 3)) * 10.0
        normalized = normalize_scores(scores)
        assert normalized.min() >= 0.0
        assert normalized.max() <= 1.0
        assert normalized.min(axis=0) == pytest.approx(np.zeros(3))
        assert normalized.max(axis=0) == pytest.approx(np.ones(3))

    def test_constant_column_maps_to_zero(self):
        scores = np.column_stack([np.ones(5), np.arange(5.0)])
        normalized = normalize_scores(scores)
        np.testing.assert_array_equal(normalized[:, 0], 0.0)

    def test_score_ranges(self, rng):
        scores = rng.normal(size=(10, 2))
        ranges = score_ranges(scores, ["A", "B"])
        assert ranges["A"] == (scores[:, 0].min(), scores[:, 0].max())
        with pytest.raises(ValueError):
            score_ranges(scores, ["A"])
