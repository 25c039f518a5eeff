"""Property: the xp facade is invisible on the numpy tier.

Every kernel ported onto the :mod:`repro.xp` facade has two routes to the
same numbers: the public wrapper calling the generic kernel directly
against the module-level numpy namespace (the pre-facade path, and the
determinism baseline of the whole repo), and the bundle route through
:func:`repro.xp.bind_kernels`.  On the numpy namespace the two must be
**bit-identical** — not allclose — for every kernel, every block size and
every input dtype the callers feed: pairwise penalty/table totals,
dominance masks and fitness, NeRF coordinates and batched CCD rotations.

The JAX tier cannot promise bit-equality (XLA reassociates reductions),
so its tests assert tight allclose agreement instead — and skip cleanly
when the wheel is not installed.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.closure.ccd import ccd_close_batch
from repro.geometry.nerf import build_backbone_batch, place_atom, place_atoms_batch
from repro.geometry.rotation import (
    axis_angle_matrices_batch,
    rotate_points_about_axes_batch,
)
from repro.loops.targets import make_target
from repro.moscem.dominance import (
    dominance_matrix,
    fitness_against,
    non_dominated_mask,
    strength_fitness,
)
from repro.scoring import pairwise
from repro.scoring.pairwise import (
    binned_table_sum,
    indexed_penalty_sum,
    squared_bin_edges,
)
from repro.xp import (
    NamespaceError,
    available_namespaces,
    bind_kernels,
    get_namespace,
    has_jax,
    kernel_names,
    numpy_kernels,
)

BLOCK_SIZES = [1, 3, 64]

torsion_angle = st.floats(
    min_value=-math.pi + 1e-6, max_value=math.pi, allow_nan=False, allow_infinity=False
)
finite_score = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@pytest.fixture(scope="module")
def kernels():
    return numpy_kernels()


def _pair_problem(rng, pop=7, atoms=11, n_pairs=17, dtype=np.float64):
    points = rng.normal(size=(pop, atoms, 3)).astype(dtype)
    first = rng.integers(0, atoms, size=n_pairs)
    second = rng.integers(0, atoms, size=n_pairs)
    return points, first, second


class TestNamespaceMachinery:
    def test_numpy_namespace_always_available(self):
        assert "numpy" in available_namespaces()
        ns = get_namespace("numpy")
        assert ns.eager and ns.mutable
        assert not ns.can_jit

    def test_aliases_resolve(self):
        assert get_namespace("np") is get_namespace("numpy")
        assert get_namespace("eager") is get_namespace("numpy")

    def test_unknown_namespace_rejected(self):
        with pytest.raises(NamespaceError):
            get_namespace("tpu")

    def test_jax_namespace_gated_on_the_wheel(self):
        if has_jax():
            ns = get_namespace("jax")
            assert ns.can_jit and ns.can_vmap
        else:
            with pytest.raises(NamespaceError, match="jax"):
                get_namespace("jax")

    def test_bundle_binds_every_registered_kernel(self, kernels):
        assert set(kernels.names()) == set(kernel_names())
        for name in kernel_names():
            assert callable(kernels[name])


class TestPairwiseBitIdentity:
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_indexed_penalty_sum(self, rng, kernels, block_size, dtype, monkeypatch):
        monkeypatch.setattr(pairwise, "DEFAULT_BLOCK_SIZE", block_size)
        points, first, second = _pair_problem(rng, dtype=dtype)
        sq_contacts = (rng.uniform(0.5, 4.0, size=first.size) ** 2)
        baseline = indexed_penalty_sum(points, points, first, second, sq_contacts)
        routed = indexed_penalty_sum(
            points, points, first, second, sq_contacts, kernels=kernels
        )
        assert baseline.dtype == routed.dtype
        np.testing.assert_array_equal(baseline, routed)

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_binned_table_sum(self, rng, kernels, block_size, monkeypatch):
        monkeypatch.setattr(pairwise, "DEFAULT_BLOCK_SIZE", block_size)
        points, first, second = _pair_problem(rng)
        tables = rng.normal(size=(first.size, 8))
        sq_edges = squared_bin_edges(10.0, 8)
        baseline = binned_table_sum(points, first, second, tables, sq_edges)
        routed = binned_table_sum(
            points, first, second, tables, sq_edges, kernels=kernels
        )
        np.testing.assert_array_equal(baseline, routed)

    def test_empty_pair_list_degenerate_case(self, rng, kernels):
        points = rng.normal(size=(4, 5, 3))
        empty = np.zeros(0, dtype=np.int64)
        out = indexed_penalty_sum(
            points, points, empty, empty, np.zeros(0), kernels=kernels
        )
        np.testing.assert_array_equal(out, np.zeros(4))


class TestDominanceBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(arrays(np.float64, (13, 3), elements=finite_score))
    def test_masks_and_fitness_match(self, scores):
        kernels = numpy_kernels()
        for block_size in BLOCK_SIZES:
            with mock.patch.object(pairwise, "DEFAULT_BLOCK_SIZE", block_size):
                np.testing.assert_array_equal(
                    non_dominated_mask(scores),
                    non_dominated_mask(scores, kernels=kernels),
                )
                np.testing.assert_array_equal(
                    strength_fitness(scores),
                    strength_fitness(scores, kernels=kernels),
                )

    @settings(max_examples=25, deadline=None)
    @given(
        arrays(np.float64, (9, 3), elements=finite_score),
        arrays(np.float64, (5, 3), elements=finite_score),
    )
    def test_fitness_against_matches(self, reference, queries):
        kernels = numpy_kernels()
        with mock.patch.object(pairwise, "DEFAULT_BLOCK_SIZE", 4):
            np.testing.assert_array_equal(
                fitness_against(reference, queries),
                fitness_against(reference, queries, kernels=kernels),
            )

    def test_ties_and_duplicates(self, kernels):
        """Duplicate rows dominate nothing and nobody — the mask must
        agree with the dense dominance matrix either way."""
        scores = np.array(
            [[1.0, 2.0], [1.0, 2.0], [0.5, 3.0], [2.0, 2.0], [0.5, 3.0]]
        )
        mask = non_dominated_mask(scores, kernels=kernels)
        dense = dominance_matrix(scores)
        np.testing.assert_array_equal(mask, ~dense.any(axis=0))


class TestGeometryBitIdentity:
    @settings(max_examples=20, deadline=None)
    @given(arrays(np.float64, (6, 10), elements=torsion_angle))
    def test_backbone_batch_matches_scalar_chain(self, torsions):
        """The batched builder tracks the scalar reference member by
        member (to rounding: the two paths order their flops differently),
        and the bundle route reproduces the batched wrapper *bit-exactly*
        — that second equality is the facade contract."""
        from repro.geometry.nerf import build_backbone

        target = make_target("prop", 1, 5, seed=31)
        coords, closure = build_backbone_batch(
            torsions, target.n_anchor, target.end_phi
        )
        for member in range(torsions.shape[0]):
            ref_coords, ref_closure = build_backbone(
                torsions[member], target.n_anchor, target.end_phi
            )
            np.testing.assert_allclose(coords[member], ref_coords, atol=1e-10)
            np.testing.assert_allclose(closure[member], ref_closure, atol=1e-10)
        kernels = numpy_kernels()
        routed_coords, routed_closure = kernels.build_backbone_chain(
            torsions, target.n_anchor, target.end_phi
        )
        np.testing.assert_array_equal(coords, kernels.to_numpy(routed_coords))
        np.testing.assert_array_equal(closure, kernels.to_numpy(routed_closure))

    def test_place_atoms_batch_matches_scalar(self, rng, kernels):
        a, b, c = rng.normal(size=(3, 8, 3))
        torsions = rng.uniform(-math.pi, math.pi, size=8)
        batched = place_atoms_batch(a, b, c, 1.5, math.radians(110.0), torsions)
        for member in range(8):
            np.testing.assert_allclose(
                batched[member],
                place_atom(
                    a[member], b[member], c[member],
                    1.5, math.radians(110.0), torsions[member],
                ),
                atol=1e-10,
            )
        routed = kernels.to_numpy(
            kernels.place_atoms(a, b, c, 1.5, math.radians(110.0), torsions)
        )
        np.testing.assert_array_equal(batched, routed)

    def test_rotation_agrees_with_matrix_route(self, rng):
        """The fused Rodrigues kernel and the explicit rotation-matrix
        construction are independent derivations of the same map."""
        points = rng.normal(size=(9, 4, 3))
        origins = rng.normal(size=(9, 3))
        axes = rng.normal(size=(9, 3))
        angles = rng.uniform(-math.pi, math.pi, size=9)
        fused = rotate_points_about_axes_batch(points, origins, axes, angles)
        matrices = axis_angle_matrices_batch(axes, angles)
        shifted = points - origins[:, None, :]
        via_matrices = (
            np.einsum("pij,pmj->pmi", matrices, shifted) + origins[:, None, :]
        )
        np.testing.assert_allclose(fused, via_matrices, atol=1e-12)


class TestCCDBitIdentity:
    @settings(max_examples=8, deadline=None)
    @given(
        arrays(np.float64, (5, 10), elements=torsion_angle),
        st.integers(min_value=0, max_value=9),
    )
    def test_bundle_route_equals_default(self, torsions, start):
        target = make_target("prop", 1, 5, seed=31)
        starts = np.arange(5, dtype=np.int64) % (start + 1)
        base = ccd_close_batch(
            torsions, target, start_indices=starts, max_iterations=6, tolerance=0.2
        )
        routed = ccd_close_batch(
            torsions,
            target,
            start_indices=starts,
            max_iterations=6,
            tolerance=0.2,
            kernels=numpy_kernels(),
        )
        np.testing.assert_array_equal(base.torsions, routed.torsions)
        np.testing.assert_array_equal(base.coords, routed.coords)
        np.testing.assert_array_equal(base.closure, routed.closure)
        np.testing.assert_array_equal(base.closure_error, routed.closure_error)
        np.testing.assert_array_equal(base.iterations, routed.iterations)


class TestBackendBitIdentity:
    def test_xp_numpy_backend_equals_gpu_backend(self, small_target, knowledge_base):
        """The ``xp`` backend (batched kernels routed through the *numpy*
        bundle) reproduces the ``gpu`` backend bit-for-bit, kernel by kernel
        and over a full sampler run — the facade layer itself adds no
        numeric drift.  Each side gets its own scorer stack, so neither can
        score through the other's bundle."""
        from repro.backends import make_backend
        from repro.config import SamplingConfig
        from repro.loops.ramachandran import RamachandranModel
        from repro.moscem.sampler import MOSCEMSampler
        from repro.scoring import default_multi_score

        config = SamplingConfig(population_size=16, n_complexes=4, iterations=4, seed=3)

        def build(kind):
            multi = default_multi_score(small_target, knowledge_base=knowledge_base)
            return make_backend(kind, small_target, multi, config)

        reference, routed = build("gpu"), build("xp")
        assert reference.kernels is None
        assert all(fn.kernels is None for fn in reference.multi_score)
        assert routed.name == "xp-numpy"
        assert all(fn.kernels is routed.kernels for fn in routed.multi_score)

        proposals = RamachandranModel().sample_population(
            small_target.sequence, 16, np.random.default_rng(17)
        )
        closed_ref = reference.close_loops(proposals)
        closed_xp = routed.close_loops(proposals)
        np.testing.assert_array_equal(closed_ref.coords, closed_xp.coords)
        np.testing.assert_array_equal(closed_ref.torsions, closed_xp.torsions)

        scores_ref = reference.evaluate_scores(closed_ref.coords, closed_ref.torsions)
        scores_xp = routed.evaluate_scores(closed_xp.coords, closed_xp.torsions)
        np.testing.assert_array_equal(scores_ref, scores_xp)

        np.testing.assert_array_equal(
            reference.fitness_population(scores_ref),
            routed.fitness_population(scores_xp),
        )

        runs = {
            kind: MOSCEMSampler(small_target, config, backend=build(kind)).run()
            for kind in ("gpu", "xp")
        }
        for field in ("torsions", "scores", "fitness"):
            assert np.array_equal(
                getattr(runs["gpu"].population, field),
                getattr(runs["xp"].population, field),
            ), f"xp backend diverged from gpu on {field}"

    def test_jax_backend_requires_the_wheel(self, small_target, small_multi_score):
        from repro.backends import make_backend
        from repro.config import SamplingConfig

        config = SamplingConfig(population_size=8, n_complexes=2, iterations=2)
        if has_jax():
            backend = make_backend("jax", small_target, small_multi_score, config)
            assert backend.name == "jax"
        else:
            with pytest.raises(NamespaceError, match="jax"):
                make_backend("jax", small_target, small_multi_score, config)

    def test_facade_tiers_registered_in_backend_registry(self):
        from repro.api.registry import BACKENDS

        assert BACKENDS.canonical("jax") == "jax"
        assert BACKENDS.canonical("jax-jit") == "jax"
        assert BACKENDS.canonical("xp") == "xp"
        assert BACKENDS.canonical("xp-numpy") == "xp"
        assert BACKENDS.canonical("array-api") == "xp"

    def test_xp_backend_buildable_without_jax(self, small_target, small_multi_score):
        """The ``xp`` registry entry is the facade tier CI exercises on
        runners without an accelerator wheel — it must always build."""
        from repro.backends import make_backend
        from repro.config import SamplingConfig

        config = SamplingConfig(population_size=8, n_complexes=2, iterations=2)
        backend = make_backend("xp", small_target, small_multi_score, config)
        assert backend.name == "xp-numpy"


@pytest.mark.skipif(not has_jax(), reason="jax wheel not installed")
class TestJaxTier:
    """Numeric agreement of the jit tier (allclose, not bit-equal)."""

    @pytest.fixture(scope="class")
    def jax_kernels(self):
        return bind_kernels("jax")

    def test_pairwise_totals_close(self, rng, jax_kernels):
        points, first, second = _pair_problem(rng)
        sq_contacts = rng.uniform(0.5, 4.0, size=first.size) ** 2
        baseline = indexed_penalty_sum(points, points, first, second, sq_contacts)
        jitted = indexed_penalty_sum(
            points, points, first, second, sq_contacts, kernels=jax_kernels
        )
        np.testing.assert_allclose(baseline, jitted, rtol=1e-12, atol=1e-12)

    def test_dominance_masks_exact(self, rng, jax_kernels):
        """Boolean comparisons have no rounding: the jit tier's dominance
        masks must be exactly the numpy masks."""
        scores = rng.normal(size=(17, 3))
        np.testing.assert_array_equal(
            non_dominated_mask(scores),
            non_dominated_mask(scores, kernels=jax_kernels),
        )

    def test_backbone_coordinates_close(self, rng, jax_kernels):
        target = make_target("prop", 1, 5, seed=31)
        torsions = rng.uniform(-math.pi, math.pi, size=(6, 10))
        coords, closure = build_backbone_batch(
            torsions, target.n_anchor, target.end_phi
        )
        jit_coords = jax_kernels.to_numpy(
            jax_kernels.build_backbone_chain(
                torsions, target.n_anchor, target.end_phi
            )[0]
        )
        np.testing.assert_allclose(coords, jit_coords, rtol=1e-10, atol=1e-10)

    def test_ccd_close(self, rng, jax_kernels):
        target = make_target("prop", 1, 5, seed=31)
        torsions = rng.uniform(-math.pi, math.pi, size=(5, 10))
        base = ccd_close_batch(torsions, target, max_iterations=4, tolerance=0.2)
        jitted = ccd_close_batch(
            torsions, target, max_iterations=4, tolerance=0.2, kernels=jax_kernels
        )
        np.testing.assert_allclose(base.coords, jitted.coords, rtol=1e-8, atol=1e-8)
