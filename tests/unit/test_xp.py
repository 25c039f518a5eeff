"""Unit tests of the repro.xp machinery itself.

The facade's three layers in isolation: namespace resolution and the
attribute-forwarding proxy (:mod:`repro.xp.xp`), the kernel registry and
per-namespace binding cache (:mod:`repro.xp.dispatch`), and the optional
jit/vmap wrapping with its eager numpy fallbacks
(:mod:`repro.xp.compile`).  The numeric contracts of the *ported* kernels
live in ``tests/property/test_xp_facade.py``; this file covers the
plumbing.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro

from repro.xp import (
    ArrayNamespace,
    NamespaceError,
    available_namespaces,
    bind_kernels,
    block_until_ready,
    default_namespace,
    get_namespace,
    has_jax,
    kernel_names,
    maybe_jit,
    maybe_vmap,
    numpy_kernels,
    numpy_namespace,
)
from repro.xp.dispatch import array_kernel


class TestNamespaces:
    def test_numpy_namespace_is_a_singleton(self):
        assert numpy_namespace() is numpy_namespace()
        assert get_namespace("numpy") is numpy_namespace()
        assert get_namespace(None) is default_namespace()

    def test_capability_flags(self):
        ns = numpy_namespace()
        assert ns.eager and ns.mutable
        assert not ns.can_jit and not ns.can_vmap

    def test_attribute_forwarding_and_memoisation(self):
        ns = numpy_namespace()
        assert ns.float64 is np.float64
        # After the first access the attribute is an instance attribute,
        # not a __getattr__ round trip.
        assert "einsum" not in ns.__dict__ or ns.einsum is np.einsum
        _ = ns.einsum
        assert ns.__dict__["einsum"] is np.einsum

    def test_missing_attribute_names_the_namespace(self):
        with pytest.raises(AttributeError, match="numpy"):
            numpy_namespace().definitely_not_an_array_api_function

    def test_update_at_mutates_in_place_on_numpy(self):
        ns = numpy_namespace()
        arr = np.zeros(4)
        out = ns.update_at(arr, 2, 7.0)
        assert out is arr
        np.testing.assert_array_equal(arr, [0.0, 0.0, 7.0, 0.0])

    def test_to_numpy_is_identity_like_on_numpy(self):
        arr = np.arange(3.0)
        np.testing.assert_array_equal(numpy_namespace().to_numpy(arr), arr)

    def test_unknown_namespace_lists_nothing_vague(self):
        with pytest.raises(NamespaceError):
            get_namespace("cuda")

    def test_available_namespaces_reflects_the_jax_probe(self):
        names = available_namespaces()
        assert "numpy" in names
        assert ("jax" in names) == has_jax()


class TestDispatch:
    def test_registry_is_sorted_and_stable(self):
        names = kernel_names()
        assert names == sorted(names)
        assert "ccd_sweep" in names and "dominance_columns" in names

    def test_bundle_is_cached_per_namespace(self):
        assert bind_kernels("numpy") is bind_kernels("np")
        assert numpy_kernels() is bind_kernels("numpy")

    def test_bundle_lookup_by_name_and_attribute(self):
        bundle = numpy_kernels()
        assert bundle["dominance_columns"] is bundle.dominance_columns
        with pytest.raises(KeyError):
            bundle["not_a_kernel"]

    def test_duplicate_kernel_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @array_kernel("dominance_columns")
            def _clash(xp, x):  # pragma: no cover - registration must fail
                return x

    def test_non_identifier_kernel_name_rejected(self):
        with pytest.raises(ValueError, match="identifier"):

            @array_kernel("not an identifier")
            def _bad(xp, x):  # pragma: no cover - registration must fail
                return x

    def test_bound_kernels_do_not_take_xp(self):
        """Binding closes over the namespace: callers pass arrays only."""
        bundle = numpy_kernels()
        scores = np.array([[0.0, 0.0], [1.0, 1.0]])
        mask = bundle.to_numpy(bundle.dominance_columns(scores, scores))
        np.testing.assert_array_equal(mask, [[False, True], [False, False]])


class TestCompile:
    def test_maybe_jit_is_identity_on_numpy(self):
        fn = lambda x: x + 1  # noqa: E731
        assert maybe_jit(fn, "numpy") is fn

    def test_maybe_vmap_numpy_fallback_stacks(self):
        def per_member(row, shift):
            return row * 2.0 + shift

        mapped = maybe_vmap(per_member, "numpy", in_axes=(0, None))
        rows = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(
            mapped(rows, 1.0), rows * 2.0 + 1.0
        )

    def test_maybe_vmap_fallback_handles_tuple_returns(self):
        def pair(row):
            return row.min(), row.max()

        lo, hi = maybe_vmap(pair, "numpy")(np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(lo, [0.0, 2.0, 4.0])
        np.testing.assert_array_equal(hi, [1.0, 3.0, 5.0])

    def test_maybe_vmap_fallback_rejects_ragged_axes(self):
        mapped = maybe_vmap(lambda a, b: a + b, "numpy")
        with pytest.raises(ValueError, match="inconsistent"):
            mapped(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_block_until_ready_passes_values_through(self):
        arr = np.arange(3.0)
        assert block_until_ready(arr) is arr
        out = block_until_ready((arr, [arr]))
        assert out[0] is arr


_FAULTS_SCRIPT = textwrap.dedent(
    """
    import resource
    import numpy as np
    from repro.scoring.pairwise import indexed_penalty_sum

    rng = np.random.default_rng(0)
    coords = rng.normal(scale=6.0, size=(1024, 48, 3))
    first, second = np.triu_indices(48, k=4)
    contacts = np.full(first.size, 9.0)
    indexed_penalty_sum(coords, coords, first, second, contacts)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    indexed_penalty_sum(coords, coords, first, second, contacts)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
)


_ARENA_SCRIPT = textwrap.dedent(
    """
    import resource
    import numpy as np
    from repro.closure.ccd import ccd_close_batch
    from repro.loops.library import LoopLibrary
    from repro.loops.ramachandran import RamachandranModel
    from repro.loops.targets import get_target
    from repro.scoring.distance import DistanceScore
    from repro.scoring.knowledge import build_knowledge_base
    from repro.scoring.pairwise import using_member_threads
    from repro.scoring.vdw import SoftSphereVDW

    # A cell's heap: a closed paper_trajectory-sized population.
    target = get_target("1cex(40:51)")
    kb = build_knowledge_base(LoopLibrary.generate(n_loops=40, lengths=(6, 12), seed=7))
    scorers = [SoftSphereVDW(target), DistanceScore(target, kb)]
    torsions = RamachandranModel().sample_population(
        target.sequence, 7680, np.random.default_rng(5)
    )
    closed = ccd_close_batch(torsions, target, max_iterations=2)
    peaks = []
    for threads in (1, 2):
        with using_member_threads(threads):
            for scorer in scorers:
                scorer.evaluate_batch(closed.coords, closed.torsions)
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    print(*peaks)
    """
)


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="C library has no mallopt")
class TestMallocThresholds:
    def test_blocked_kernel_reuses_heap_pages(self):
        # A fresh process: the thresholds must hold from the first kernel
        # call on, not only after some unrelated large free.  Unpinned,
        # glibc re-faults each block's 3 MiB temporaries (~15,000 minor
        # faults for this second call); pinned, the heap pages are reused.
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _FAULTS_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        assert int(out.stdout.strip()) < 1000

    def test_member_threads_share_one_heap(self):
        # A 2-thread VDW + DIST pass after a 1-thread one: with one arena
        # the second thread's block temporaries reuse the heap pages the
        # first pass freed.  With an arena per thread the helper's arena
        # keeps its own pages (+13% peak RSS here).
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _ARENA_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        one, two = (int(field) for field in out.stdout.split())
        assert two <= 1.05 * one, (one, two)


@pytest.mark.skipif(not has_jax(), reason="jax wheel not installed")
class TestJaxNamespace:
    def test_jax_flags_and_round_trip(self):
        ns = get_namespace("jax")
        assert ns.can_jit and ns.can_vmap and not ns.mutable
        arr = ns.asarray(np.arange(4.0))
        out = ns.update_at(arr, 1, 9.0)
        assert out is not arr  # functional update
        np.testing.assert_array_equal(ns.to_numpy(out), [0.0, 9.0, 2.0, 3.0])

    def test_x64_is_enabled(self):
        ns = get_namespace("jax")
        assert ns.asarray(np.float64(1.0)).dtype == np.float64
