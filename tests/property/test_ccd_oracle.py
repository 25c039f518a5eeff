"""Property: the atom-major CCD closure equals the member-major oracle.

The ``kernels=None`` path of :func:`repro.closure.ccd.ccd_close_batch`
carries the chain as member-innermost coordinate planes sorted by start
index; ``ccd_oracle`` keeps the member-major subset path it replaced.  The
two must agree bit for bit (``np.array_equal``) on every
:class:`~repro.closure.ccd.CCDResult` field — closed torsions,
coordinates, closure atoms, closure error and sweep counts — for a single
member, every start-index pattern the sampler produces, degenerate pivot
axes, members closed before the first sweep and the smallest sweep
budgets, on both the 10- and the 12-residue panel loop — and at 1, 2
and 3 member threads, which split the live members into stripes.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ccd_oracle as oracle
import repro.closure.ccd as ccd_module
from repro.closure.ccd import ccd_close_batch
from repro.loops.ramachandran import RamachandranModel
from repro.loops.targets import get_target, make_target
from repro.moscem.mutation import mutate_population
from repro.scoring.pairwise import using_member_threads
from repro.xp import numpy_kernels

#: The fleet panel's 10-residue loop and the paper cell's 12-residue loop.
PANEL = ("1xif(59:68)", "1cex(40:51)")
FIELDS = ("torsions", "coords", "closure", "closure_error", "iterations")
POPULATION = 48


def assert_same_closure(torsions, target, kernels=None, **kwargs):
    """Run both implementations and compare every result field exactly."""
    new = ccd_close_batch(torsions, target, kernels=kernels, **kwargs)
    old = oracle.ccd_close_batch(torsions, target, **kwargs)
    for field in FIELDS:
        assert np.array_equal(getattr(new, field), getattr(old, field)), field
    return new


@pytest.fixture(scope="module", params=PANEL)
def target(request):
    return get_target(request.param)


@pytest.fixture(scope="module")
def initial(target):
    """A Ramachandran-sampled initial population, as the sampler draws it."""
    rng = np.random.default_rng(7)
    return RamachandranModel().sample_population(target.sequence, POPULATION, rng)


class _CollapsedAxisTarget:
    """A target whose built chain puts CA onto N of one residue for some
    members, so that residue's phi pivot axis has zero length.

    The oracle and the masked route build the chain with ``build_batch``;
    the compiled route builds it straight into planes, which
    :meth:`collapse_planes` collapses the same way."""

    def __init__(self, target, members, residue):
        self._target = target
        self._members = members
        self._residue = residue

    def __getattr__(self, name):
        return getattr(self._target, name)

    def build_batch(self, torsions):
        coords, closure = self._target.build_batch(torsions)
        coords = coords.copy()
        coords[self._members, self._residue, 1] = coords[
            self._members, self._residue, 0
        ]
        return coords, closure

    def collapse_planes(self, monkeypatch):
        """Collapse the same atoms in the compiled route's planes."""
        build = ccd_module._build_planes

        def collapsed(call, members, lib):
            planes = build(call, members, lib)
            columns = np.isin(members, self._members)
            row = self._residue * 4
            planes[:, row + 1, columns] = planes[:, row, columns]
            return planes

        monkeypatch.setattr(ccd_module, "_build_planes", collapsed)


class TestPanelLoops:
    def test_single_member(self, target, initial):
        assert_same_closure(initial[:1], target)

    def test_all_zero_starts(self, target, initial):
        starts = np.zeros(POPULATION, dtype=np.int64)
        assert_same_closure(initial, target, start_indices=starts)

    def test_all_last_starts(self, target, initial):
        starts = np.full(POPULATION, 2 * target.n_residues - 1, dtype=np.int64)
        assert_same_closure(initial, target, start_indices=starts)

    def test_mutation_starts(self, target, initial):
        closed = ccd_close_batch(initial, target)
        rng = np.random.default_rng(11)
        proposals, starts = mutate_population(closed.torsions, target.sequence, rng)
        assert np.unique(starts).size > 1
        assert_same_closure(proposals, target, start_indices=starts)

    def test_zero_length_pivot_axis(self, target, initial, monkeypatch):
        members = np.arange(0, POPULATION, 3)
        collapsed = _CollapsedAxisTarget(target, members, residue=2)
        collapsed.collapse_planes(monkeypatch)
        starts = np.arange(POPULATION, dtype=np.int64) % 6
        result = assert_same_closure(initial, collapsed, start_indices=starts)
        # The collapsed bond is upstream of its own pivot: every rotation
        # moves N and CA together, so the axis stays degenerate.
        assert np.array_equal(
            result.coords[members, 2, 1], result.coords[members, 2, 0]
        )

    def test_members_closed_at_sweep_zero(self, target, initial):
        torsions = initial.copy()
        torsions[::4] = target.native_torsions
        result = assert_same_closure(torsions, target)
        assert np.all(result.iterations[::4] == 0)
        assert np.any(result.iterations > 0)

    @pytest.mark.parametrize("max_iterations", [0, 1])
    def test_smallest_sweep_budgets(self, target, initial, max_iterations):
        starts = np.arange(POPULATION, dtype=np.int64) % (2 * target.n_residues)
        assert_same_closure(
            initial, target, start_indices=starts, max_iterations=max_iterations
        )


torsion_angle = st.floats(
    min_value=-math.pi + 1e-6, max_value=math.pi, allow_nan=False, allow_infinity=False
)


@settings(max_examples=12, deadline=None)
@given(
    arrays(np.float64, (7, 10), elements=torsion_angle),
    arrays(np.int64, (7,), elements=st.integers(min_value=0, max_value=9)),
    st.integers(min_value=0, max_value=8),
    st.sampled_from([0.05, 0.2, 1.0]),
)
def test_random_populations(torsions, starts, max_iterations, tolerance):
    target = make_target("prop", 1, 5, seed=31)
    assert_same_closure(
        torsions,
        target,
        start_indices=starts,
        max_iterations=max_iterations,
        tolerance=tolerance,
    )


def test_masked_blocks_equal_oracle():
    """The numpy kernel-bundle route sweeps the population in blocks; a
    population spanning several blocks and a short remainder gives the
    oracle's bits too."""
    target = make_target("prop", 1, 5, seed=31)
    rng = np.random.default_rng(3)
    torsions = rng.uniform(-math.pi, math.pi, size=(1100, 10))
    starts = rng.integers(0, 10, size=1100)
    assert_same_closure(
        torsions,
        target,
        kernels=numpy_kernels(),
        start_indices=starts,
        max_iterations=3,
        tolerance=0.2,
    )


class _CompilingBundle:
    """The numpy bundle posing as a jit namespace, counting sweep calls."""

    def __init__(self):
        self._kernels = numpy_kernels()
        self.namespace = SimpleNamespace(can_jit=True)
        self.shapes = []

    def to_numpy(self, array):
        return self._kernels.to_numpy(array)

    def ccd_sweep(self, moving, *args):
        self.shapes.append(moving.shape)
        return self._kernels.ccd_sweep(moving, *args)


def test_compiling_namespace_sweeps_whole_population():
    """A jit namespace gets one sweep call of the whole population per
    sweep (one compiled shape), and the oracle's bits."""
    target = make_target("prop", 1, 5, seed=31)
    rng = np.random.default_rng(5)
    torsions = rng.uniform(-math.pi, math.pi, size=(1100, 10))
    bundle = _CompilingBundle()
    result = assert_same_closure(
        torsions, target, kernels=bundle, max_iterations=3, tolerance=0.2
    )
    sweeps = int(result.iterations.max())
    assert sweeps > 0
    assert bundle.shapes == [(1100, 23, 3)] * sweeps


@pytest.fixture()
def small_stripes(monkeypatch):
    """Stripes of any size, so small populations split across threads."""
    monkeypatch.setattr(ccd_module, "_MIN_STRIPE", 1)


class TestMemberThreads:
    """The numpy path at 1, 2 and 3 member threads gives the oracle's bits."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_odd_population(self, target, initial, small_stripes, threads):
        rng = np.random.default_rng(13)
        starts = rng.integers(0, 2 * target.n_residues, size=POPULATION - 1)
        with using_member_threads(threads):
            assert_same_closure(initial[1:], target, start_indices=starts)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_all_converged_population(self, target, small_stripes, threads):
        torsions = np.tile(target.native_torsions, (5, 1))
        with using_member_threads(threads):
            result = assert_same_closure(torsions, target)
        assert np.all(result.iterations == 0)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_live_set_smaller_than_stripe_count(
        self, target, initial, small_stripes, threads
    ):
        torsions = np.tile(target.native_torsions, (9, 1))
        torsions[4] = initial[0]  # the one member still open
        with using_member_threads(threads):
            result = assert_same_closure(torsions, target)
        assert np.count_nonzero(result.iterations) == 1

    def test_default_stripes_split_a_large_population(self):
        """At the default stripe size a population over two stripes long
        really splits, and still gives the oracle's bits."""
        target = make_target("prop", 1, 5, seed=31)
        rng = np.random.default_rng(17)
        pop = 2 * ccd_module._MIN_STRIPE + 3
        torsions = rng.uniform(-math.pi, math.pi, size=(pop, 10))
        starts = rng.integers(0, 10, size=pop)
        with using_member_threads(2):
            assert ccd_module._split(pop) == 2
            assert_same_closure(
                torsions, target, start_indices=starts, max_iterations=2,
                tolerance=0.2,
            )
