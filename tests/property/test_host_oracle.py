"""Property: the cold-start host paths equal their scalar-numpy oracle.

The loop library, the knowledge base and the initial population are built
on Python floats, precomputed basin CDFs and ``np.bincount``;
``host_oracle`` keeps the scalar-numpy code they replaced.  The two must
agree bit for bit (``np.array_equal``), and every draw must leave the
generator in the same state (``rng.bit_generator.state``), for every
smoothness, residue type and population size the sampler uses, for
uniform draws that land exactly on a cumulative basin weight, for
degenerate NeRF frames, torsions at ±π and library pairs beyond the
distance tables' last edge.

Only outputs that are pure functions of the random stream are pinned by
sha256 (library sequences and torsions, an initial population).  Built
coordinates and the tables derived from them go through BLAS ``ddot``,
whose summation order depends on the CPU's kernel, so they are compared
with the oracle in the same process instead.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import host_oracle as oracle
from repro import native
from repro.geometry.nerf import build_backbone, place_atom
from repro.loops.library import LoopLibrary, LoopRecord, default_library
from repro.loops.loop import canonical_n_anchor
from repro.loops.ramachandran import (
    RamachandranModel,
    sample_basin,
    sample_loop_torsions,
)
from repro.loops.targets import get_target
from repro.moscem import mutation
from repro.scoring.knowledge import DISTANCE_MAX, build_knowledge_base

ALPHABET = "ACDEFGHIKLMNPQRSTVWY"
SMOOTHNESS = (0.0, 0.3, 0.4, 0.95)
SEQUENCES = ("GPGPPG", ALPHABET, "AGPAGPAGPAGP", "LLLLLLLLL")
#: The paper cell's 12-residue loop.
PAPER_TARGET = "1cex(40:51)"

#: sha256 of the default library's sequences and torsions (seed 2010, 400 loops).
LIBRARY_DRAWS_SHA256 = "bda950710b5021f83bfb4c8696db3d276c8f8018c7179cd8e93cf59b552aa14c"
#: sha256 of a 7,680-member initial population of the paper loop (seed 1).
POPULATION_SHA256 = "9b0d7a0619513e652450f495f6ec70b38c2f86fc01addd078f59580204a01ebc"


def assert_same_stream(new, old, seed):
    """Call both with equally seeded generators; compare output and state."""
    rng_new = np.random.default_rng(seed)
    rng_old = np.random.default_rng(seed)
    got, expected = new(rng_new), old(rng_old)
    assert np.array_equal(got, expected)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    return got


def assert_same_backbone(torsions, anchor, end_phi):
    coords, closure = build_backbone(torsions, anchor, end_phi)
    ref_coords, ref_closure = oracle.build_backbone(torsions, anchor, end_phi)
    assert np.array_equal(coords, ref_coords)
    assert np.array_equal(closure, ref_closure)


def assert_same_library(library, ref):
    assert len(library) == len(ref)
    for record, expected in zip(library, ref):
        assert record.sequence == expected.sequence
        assert np.array_equal(record.torsions, expected.torsions)
        assert np.array_equal(record.coords, expected.coords)


def assert_same_tables(library):
    kb = build_knowledge_base(library)
    ref = oracle.build_knowledge_base(library)
    assert np.array_equal(kb.triplet_neg_log, ref.triplet_neg_log)
    assert np.array_equal(kb.distance_neg_log, ref.distance_neg_log)
    assert kb.library_size == ref.library_size


def draws_digest(library):
    h = hashlib.sha256()
    for record in library:
        h.update(record.sequence.encode())
        h.update(np.ascontiguousarray(record.torsions, dtype="<f8").tobytes())
    return h.hexdigest()


class RiggedGenerator(np.random.Generator):
    """A generator whose first uniform draws are scripted.

    ``Generator.choice`` draws its uniform through ``self.random``, so the
    scripted values reach the retired ``choice(p=...)`` and the CDF lookup
    alike.  Values that equal a cumulative basin weight tell
    ``searchsorted(side="right")`` from ``side="left"``.
    """

    def __init__(self, seed, values):
        super().__init__(np.random.PCG64(seed))
        self._values = list(values)

    def random(self, size=None, dtype=np.float64, out=None):
        if self._values:
            value = self._values.pop(0)
            return value if size is None else np.full(size, value)
        return super().random(size, dtype, out)


class TestSampling:
    @pytest.mark.parametrize("smoothness", SMOOTHNESS)
    @pytest.mark.parametrize("sequence", SEQUENCES)
    def test_loop_torsions(self, sequence, smoothness):
        for seed in range(5):
            assert_same_stream(
                lambda rng: sample_loop_torsions(sequence, rng, smoothness),
                lambda rng: oracle.sample_loop_torsions(sequence, rng, smoothness),
                seed,
            )

    @pytest.mark.parametrize("aa", ALPHABET)
    def test_basin_every_residue_type(self, aa):
        def draws(sample):
            return lambda rng: np.array([sample(aa, rng) for _ in range(200)])

        assert_same_stream(draws(sample_basin), draws(oracle.sample_basin), 11)
        assert_same_stream(
            lambda rng: RamachandranModel().sample_pairs(aa, 50, rng),
            lambda rng: oracle.sample_pairs(aa, 50, rng),
            12,
        )

    @pytest.mark.parametrize("smoothness", SMOOTHNESS)
    def test_population_single_member(self, smoothness):
        model = RamachandranModel(smoothness=smoothness)
        got = assert_same_stream(
            lambda rng: model.sample_population(ALPHABET, 1, rng),
            lambda rng: oracle.sample_population(ALPHABET, 1, rng, smoothness),
            5,
        )
        assert got.shape == (1, 2 * len(ALPHABET))

    def test_population_paper_scale(self):
        sequence = get_target(PAPER_TARGET).sequence
        got = assert_same_stream(
            lambda rng: RamachandranModel().sample_population(sequence, 7680, rng),
            lambda rng: oracle.sample_population(sequence, 7680, rng),
            1,
        )
        assert hashlib.sha256(got.tobytes()).hexdigest() == POPULATION_SHA256

    @pytest.mark.parametrize("smoothness", SMOOTHNESS)
    def test_uniform_draw_on_a_cumulative_weight(self, smoothness):
        # Glycine's four basins weigh 0.25 each: 0.25, 0.5 and 0.75 are
        # both exact uniform draws and exact cumulative weights.
        values = [0.25, 0.5, 0.75, 0.0] * 4
        for sequence in ("GGGGGGGG", "GAGPG"):
            new_rng, old_rng = RiggedGenerator(3, values), RiggedGenerator(3, values)
            got = sample_loop_torsions(sequence, new_rng, smoothness)
            expected = oracle.sample_loop_torsions(sequence, old_rng, smoothness)
            assert np.array_equal(got, expected)
            assert new_rng.bit_generator.state == old_rng.bit_generator.state
        new_rng, old_rng = RiggedGenerator(4, values), RiggedGenerator(4, values)
        got = [sample_basin("G", new_rng) for _ in range(8)]
        assert got == [oracle.sample_basin("G", old_rng) for _ in range(8)]

    @settings(max_examples=40, deadline=None)
    @given(
        sequence=st.text(alphabet=ALPHABET, min_size=1, max_size=16),
        smoothness=st.floats(0.0, 1.0, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
        population=st.integers(1, 6),
    )
    def test_hypothesis_draws(self, sequence, smoothness, seed, population):
        model = RamachandranModel(smoothness=smoothness)
        assert_same_stream(
            lambda rng: model.sample_population(sequence, population, rng),
            lambda rng: oracle.sample_population(sequence, population, rng, smoothness),
            seed,
        )

    @pytest.mark.parametrize("basin_hop_probability", [0.3, 1.0])
    def test_mutation_basin_hops(self, monkeypatch, basin_hop_probability):
        # Three routes: the compiled pass, the no-compiler Python loop and
        # the oracle's per-member loop on the choice(p=...) basin draws.
        sequence = get_target(PAPER_TARGET).sequence
        torsions = RamachandranModel().sample_population(
            sequence, 64, np.random.default_rng(2)
        )

        def mutate(module):
            def draw(rng):
                mutated, starts = module.mutate_population(
                    torsions, sequence, rng, basin_hop_probability=basin_hop_probability
                )
                return np.concatenate([mutated, starts[:, None]], axis=1)
            return draw

        compiled = assert_same_stream(mutate(mutation), mutate(oracle), 9)
        monkeypatch.setattr(native, "_library", None)
        assert np.array_equal(compiled, assert_same_stream(mutate(mutation), mutate(oracle), 9))


class TestBackbone:
    def test_random_torsions(self):
        rng = np.random.default_rng(0)
        anchor = canonical_n_anchor()
        for n in (1, 2, 8, 14):
            for _ in range(20):
                torsions = rng.uniform(-np.pi, np.pi, size=2 * n)
                assert_same_backbone(torsions, anchor, float(rng.uniform(-np.pi, np.pi)))

    @pytest.mark.parametrize("angle", [math.pi, -math.pi, 0.0, 3 * math.pi])
    def test_torsions_at_pi(self, angle):
        anchor = canonical_n_anchor()
        assert_same_backbone(np.full(12, angle), anchor, angle)
        torsions = np.array([angle, -angle] * 5)
        assert_same_backbone(torsions, anchor, -angle)

    def test_zero_length_bond_vector(self):
        # b == c collapses the frame onto the _EPS guard; a, b, c collinear
        # collapses only the plane normal.
        frames = [
            ([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
            ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]),
            ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
        ]
        for a, b, c in frames:
            for torsion in (0.0, 1.1, -math.pi):
                args = (np.array(a), np.array(b), np.array(c), 1.5, 1.9, torsion)
                assert np.array_equal(place_atom(*args), oracle.place_atom(*args))
        degenerate = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert_same_backbone(np.full(6, 0.5), degenerate, 0.5)

    @settings(max_examples=60, deadline=None)
    @given(
        torsions=arrays(
            np.float64,
            st.integers(1, 12).map(lambda n: 2 * n),
            elements=st.floats(-10.0, 10.0, allow_nan=False),
        ),
        end_phi=st.floats(-math.pi, math.pi),
    )
    def test_hypothesis_backbone(self, torsions, end_phi):
        assert_same_backbone(torsions, canonical_n_anchor(), end_phi)


class TestLibraryAndKnowledgeBase:
    def test_default_library(self):
        library = default_library()
        assert_same_library(library, oracle.generate_library())
        assert draws_digest(library) == LIBRARY_DRAWS_SHA256
        assert_same_tables(library)

    @pytest.mark.parametrize("smoothness", SMOOTHNESS)
    def test_library_smoothness(self, smoothness):
        kwargs = dict(n_loops=12, lengths=(3, 9), seed=5, smoothness=smoothness)
        library = LoopLibrary.generate(**kwargs)
        assert_same_library(library, oracle.generate_library(**kwargs))
        assert_same_tables(library)

    def test_pairs_beyond_the_table_edge(self):
        # Extended (beta-basin) chains span far beyond DISTANCE_MAX, so
        # many pairs fall into the overflow bin and must not be counted.
        anchor = canonical_n_anchor()
        records = []
        for length, phi, psi in ((20, -2.1, 2.35), (16, -1.3, 2.6), (1, -1.0, -0.7)):
            torsions = np.tile([phi, psi], length)
            coords, _ = oracle.build_backbone(torsions, anchor, -1.0)
            records.append(LoopRecord(("AGPL" * 5)[:length], torsions, coords))
        library = LoopLibrary(records=records)
        span = np.linalg.norm(records[0].coords[0, 0] - records[0].coords[-1, 0])
        assert span > 2 * DISTANCE_MAX
        assert_same_tables(library)

    def test_hand_built_library(self):
        rng = np.random.default_rng(8)
        anchor = canonical_n_anchor()
        records = []
        for sequence in ("G", "GP", "PPG", ALPHABET, "AGGPA"):
            torsions = oracle.sample_loop_torsions(sequence, rng, 0.3)
            coords, _ = oracle.build_backbone(torsions, anchor, -1.2)
            records.append(LoopRecord(sequence, torsions, coords))
        assert_same_tables(LoopLibrary(records=records))
