"""The compiled CCD passes reproduce the numpy expressions bit for bit.

``pivot_terms`` must equal the numpy squared norm, unit axis and
:func:`~repro.scoring.pairwise._alignment_sums` forms, and ``rotate_tail``
the Rodrigues tree of
:func:`~repro.geometry.rotation._rotate_points_about_axes`, on adversarial
planes as well as ordinary ones, on every lane tier the host runs (not
only the one the passes pick), at widths that are no multiple of the
lane count.  ``exclude_angles`` must equal the masked sweep's exclusion
masks and ``compact_columns`` numpy's boolean indexing.  No tier may
contain an FMA instruction, and the source must compile without its
vector tiers, as on a host that is not x86.  Without a working compiler,
``ccd_close_batch`` runs the masked sweep and still gives the compiled
bits; racing builds into one cache directory leave one whole library,
and loading a built library starts no process.
"""

from __future__ import annotations

import ctypes
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ccd_oracle as oracle
import repro.closure.ccd as ccd_module
from repro import native
from repro.closure.ccd import _EPS, _pivot_indices, _sweep_atom_major, ccd_close_batch
from repro.geometry.internal import backbone_torsions_batch
from repro.geometry.nerf import _build_backbone_chain
from repro.geometry.rotation import _rotate_points_about_axes
from repro.geometry.vectors import einsum_sum3
from repro.loops.ramachandran import RamachandranModel
from repro.loops.targets import get_target, make_target
from repro.moscem.mutation import mutate_population
from repro.scoring.pairwise import _alignment_sums, using_member_threads
from repro.xp import numpy_kernels
from repro.xp.xp import numpy_namespace

SRC = Path(__file__).resolve().parents[2] / "src"
RESIDUES = 4
ROWS = RESIDUES * 4 + 3
FIELDS = ("torsions", "coords", "closure", "closure_error", "iterations")


@pytest.fixture(scope="module")
def lib():
    compiled = native.library()
    if compiled is None:
        pytest.skip("no working C compiler")
    return compiled


def host_tiers(lib):
    """Every lane tier this host runs: 0 (scalar) up to the widest."""
    return range(lib.lane_tier() + 1)


def assert_same_bits(got, want):
    """Equal bit patterns, NaN payloads aside (IEEE leaves them open)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def adversarial_planes(width: int, seed: int = 0) -> np.ndarray:
    """``(3, ROWS, width)`` planes: random columns plus one column each of
    all ``-0.0``, a zero axis at every pivot, a sub-epsilon axis, tiny and
    huge magnitudes, a NaN and an infinity."""
    rng = np.random.default_rng(seed)
    planes = rng.normal(scale=4.0, size=(3, ROWS, width))
    planes[:, :, 0] = -0.0
    planes[:, :, 1] = planes[:, :1, 1]  # every atom at one point
    planes[:, :, 2] = planes[:, :1, 2] + 1e-14 * np.arange(ROWS)
    planes[:, :, 3] *= 1e-300
    planes[:, :, 4] *= 1e300
    planes[1, 5, 5] = np.nan
    planes[2, ROWS - 2, 6] = np.inf
    planes[0, 3, 7] = -np.inf
    return planes


def c_pivot_terms(lib, tier, planes, k, b_idx, c_idx, anchors, stride):
    terms = np.full((6, stride), 7.0)
    lib.pivot_terms(
        tier, planes.ctypes.data, planes.shape[1], planes.shape[2], k, b_idx,
        c_idx, anchors.ctypes.data, terms.ctypes.data, stride,
    )
    return terms


def numpy_pivot_terms(planes, k, b_idx, c_idx, anchors):
    """The numpy forms the C spells out (the retired plane-slice math)."""
    origin = planes[:, b_idx, :k]
    raw = planes[:, c_idx, :k] - origin
    squared = einsum_sum3(raw[0] * raw[0], raw[1] * raw[1], raw[2] * raw[2])
    norm = np.sqrt(squared)
    axes = raw / np.where(norm < _EPS, 1.0, norm)
    a, b = _alignment_sums(
        planes[:, -3:, :k] - origin[:, None, :],
        anchors.T[:, :, None] - origin[:, None, :],
        axes,
    )
    return axes, squared, a, b


@pytest.mark.parametrize("anchor_kind", ["random", "negative_zero", "huge"])
@pytest.mark.parametrize("width,k", [(12, 12), (12, 9), (8, 1)])
def test_pivot_terms_match_numpy(lib, anchor_kind, width, k):
    planes = adversarial_planes(width)
    anchors = {
        "random": np.random.default_rng(1).normal(size=(3, 3)),
        "negative_zero": np.full((3, 3), -0.0),
        "huge": np.random.default_rng(2).normal(size=(3, 3)) * 1e300,
    }[anchor_kind]
    for tier in host_tiers(lib):
        check_pivot_terms(lib, tier, planes, k, anchors)


def check_pivot_terms(lib, tier, planes, k, anchors):
    """Tier ``tier``'s pivot terms of every pivot equal numpy's."""
    with np.errstate(all="ignore"):
        for j in range(2 * RESIDUES):
            b_idx, c_idx, _ = _pivot_indices(j)
            terms = c_pivot_terms(
                lib, tier, planes, k, b_idx, c_idx, anchors, planes.shape[2] + 3
            )
            axes, squared, a, b = numpy_pivot_terms(planes, k, b_idx, c_idx, anchors)
            assert_same_bits(terms[:3, :k], axes)
            assert_same_bits(terms[3, :k], squared)
            assert_same_bits(terms[4, :k], a)
            assert_same_bits(terms[5, :k], b)
            assert np.all(terms[:, k:] == 7.0)  # nothing past the prefix


@pytest.mark.parametrize("width", range(1, 10))
def test_pivot_terms_on_every_tier_at_small_widths(lib, width):
    """Widths 1-9 and every prefix k <= width, so the lane tiers run
    their scalar remainder and k < lane count; the window slides over
    the adversarial columns (degenerate axes, NaN, infinities)."""
    wide = adversarial_planes(16, seed=width)
    anchors = np.random.default_rng(width).normal(size=(3, 3))
    for offset in range(0, 16 - width + 1, max(1, width // 2)):
        planes = np.ascontiguousarray(wide[:, :, offset:offset + width])
        for k in range(1, width + 1):
            for tier in host_tiers(lib):
                check_pivot_terms(lib, tier, planes, k, anchors)


def check_rotate_tail(lib, tier, planes, k, terms, angles, rotating):
    """Tier ``tier``'s rotation of every pivot's tail equals the numpy
    Rodrigues tree on the rotating members and leaves every other byte
    as it was."""
    rows, width = planes.shape[1:]
    c, s = np.cos(angles), np.sin(angles)
    rotating = rotating.astype(np.uint8)
    moved = np.flatnonzero(rotating)
    for j in range(2 * RESIDUES):
        b_idx, _, move_start = _pivot_indices(j)
        before = planes.copy()
        with np.errstate(all="ignore"):
            rotated = _rotate_points_about_axes(
                numpy_namespace(),
                planes[:, move_start:, :k].T,
                planes[:, b_idx, :k].T,
                terms[:3, :k].T,
                angles,
                normalized=True,
            ).T  # (3, tail rows, k)
        lib.rotate_tail(
            tier, planes.ctypes.data, rows, width, k, b_idx, move_start,
            terms.ctypes.data, terms.shape[1], c.ctypes.data, s.ctypes.data,
            rotating.ctypes.data,
        )
        want = before.copy()
        want[:, move_start:, moved] = rotated[:, :, moved]
        assert_same_bits(planes, want)
        # Excluded members, rows above the tail and columns past the
        # prefix stay byte-unchanged.
        untouched = np.ones((3, rows, width), dtype=bool)
        untouched[:, move_start:, moved] = False
        assert before[untouched].tobytes() == planes[untouched].tobytes()


def unit_axes(rng, width, stride):
    raw = rng.normal(size=(3, width))
    terms = np.zeros((6, stride))
    terms[:3, :width] = raw / np.sqrt(einsum_sum3(raw[0] ** 2, raw[1] ** 2, raw[2] ** 2))
    return terms


@pytest.mark.parametrize("adversarial", [False, True])
def test_rotate_tail_matches_rodrigues(lib, adversarial):
    width, k = 40, 33
    rng = np.random.default_rng(3)
    original = (
        adversarial_planes(width, seed=3)
        if adversarial
        else rng.normal(scale=5.0, size=(3, ROWS, width))
    )
    terms = unit_axes(rng, width, width + 2)
    angles = rng.uniform(-np.pi, np.pi, size=k)
    rotating = rng.random(k) < 0.7
    rotating[:8] = True  # the adversarial columns all rotate
    for tier in host_tiers(lib):
        check_rotate_tail(lib, tier, original.copy(), k, terms, angles, rotating)


@pytest.mark.parametrize("mask", ["none", "all", "mixed"])
@pytest.mark.parametrize("width", range(1, 10))
def test_rotate_tail_on_every_tier_at_small_widths(lib, width, mask):
    """Widths 1-9, every prefix k <= width, and all-false, all-true and
    mixed ``rotating`` masks, on plain and adversarial columns."""
    rng = np.random.default_rng(width)
    wide = adversarial_planes(16, seed=width)
    terms = unit_axes(rng, width, width)
    terms[:3, 0] = np.nan  # a lane whose rotation is all NaN
    for offset in (0, 16 - width):
        original = np.ascontiguousarray(wide[:, :, offset:offset + width])
        for k in range(1, width + 1):
            angles = rng.uniform(-np.pi, np.pi, size=k)
            rotating = {
                "none": np.zeros(k, dtype=bool),
                "all": np.ones(k, dtype=bool),
                "mixed": np.arange(k) % 3 != 1,
            }[mask]
            for tier in host_tiers(lib):
                check_rotate_tail(lib, tier, original.copy(), k, terms, angles, rotating)


def test_exclude_angles_matches_the_masked_sweep(lib):
    """The exclusions in place (the ``active`` mask included), and the
    rotating mask and its count, as the masked sweep's numpy computes
    them."""
    rng = np.random.default_rng(17)
    k = 203
    terms = rng.normal(size=(6, k + 5))
    special = np.array([0.0, -0.0, 1e-12, -1e-12, 9e-13, 1e-13, 1e-300, np.nan, np.inf, -np.inf])
    terms[3, :k] = rng.choice(np.concatenate([special ** 2, [1e-24, 2e-24, 0.5]]), size=k)
    terms[4, :k] = rng.choice(np.concatenate([special, [0.3]]), size=k)
    terms[5, :k] = rng.choice(np.concatenate([special, [-0.7]]), size=k)
    squared, a, b = terms[3:, :k]
    with np.errstate(all="ignore"):
        angles = np.arctan2(b, a)
    angles[:20] = rng.choice([1e-10, -1e-10, 1.1e-10, -1.1e-10, 5e-11, np.nan], size=20)
    active = rng.random(k) < 0.8
    want = angles.copy()
    want[((np.abs(a) < _EPS) & (np.abs(b) < _EPS)) | (squared < _EPS * _EPS)] = 0.0
    want[~active] = 0.0
    want_rotating = np.abs(want) > 1e-10
    got = angles.copy()
    rotating = np.full(k, 7, dtype=np.uint8)
    count = lib.exclude_angles(
        got.ctypes.data, terms.ctypes.data, terms.shape[1], k,
        active.astype(np.uint8).ctypes.data, rotating.ctypes.data,
    )
    assert_same_bits(got, want)
    assert rotating.tolist() == want_rotating.astype(np.uint8).tolist()
    assert count == int(want_rotating.sum())
    assert 0 < count < k


@pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 64])
def test_compact_columns_matches_boolean_indexing(lib, width):
    rng = np.random.default_rng(width)
    planes = rng.normal(size=(3, ROWS, width))
    for keep in (
        np.ones(width, dtype=bool),
        np.zeros(width, dtype=bool),
        rng.random(width) < 0.5,
        np.arange(width) == width - 1,
        np.arange(width) == 0,
    ):
        want = planes[:, :, keep]
        buffer = planes.copy()
        kept = lib.compact_columns(
            buffer.ctypes.data, 3 * ROWS, width, keep.ctypes.data
        )
        assert kept == int(keep.sum())
        got = buffer.reshape(-1)[: 3 * ROWS * kept].reshape(3, ROWS, kept)
        assert got.tobytes() == want.tobytes()


def test_sweep_matches_numpy_oracle_sweep(lib):
    """The compiled sweep equals the retired numpy one on real chains."""
    target = get_target("1cex(40:51)")
    rng = np.random.default_rng(11)
    torsions = RamachandranModel().sample_population(target.sequence, 64, rng)
    starts = np.sort(rng.integers(0, 2 * target.n_residues, size=64))
    coords, closure = target.build_batch(torsions)
    moving = np.concatenate([coords.reshape(64, -1, 3), closure], axis=1)
    planes = np.ascontiguousarray(moving.T)
    expected = planes.copy()
    anchors = np.ascontiguousarray(target.c_anchor)
    scratch = np.empty((9, 64))
    active = np.ones(64, dtype=np.uint8)
    for _ in range(3):
        _sweep_atom_major(planes, starts, anchors, scratch, lib, active)
        oracle.sweep_atom_major(expected, starts, anchors)
        assert planes.tobytes() == expected.tobytes()


@pytest.fixture()
def no_compiler(monkeypatch):
    """A fresh process state whose compiler does not exist; records the
    warnings it logs."""
    logged = []
    monkeypatch.setattr(native, "_library", native._UNSET)
    monkeypatch.setattr(native, "_compiler", lambda: ["/nonexistent/cc"])
    monkeypatch.setattr(native._LOG, "warning", lambda *args: logged.append(args))
    return logged


def test_no_compiler_runs_the_masked_sweep(lib, no_compiler, monkeypatch):
    target = get_target("1xif(59:68)")
    rng = np.random.default_rng(5)
    initial = RamachandranModel().sample_population(target.sequence, 40, rng)
    proposals, starts = mutate_population(initial, target.sequence, rng)

    swept = []
    bundle = numpy_kernels()
    masked = bundle.ccd_sweep
    monkeypatch.setattr(
        bundle, "ccd_sweep", lambda *args: swept.append(1) or masked(*args)
    )
    for torsions, start_indices in ((initial, None), (proposals, starts)):
        fallback = ccd_close_batch(torsions, target, start_indices=start_indices)
        reference = oracle.ccd_close_batch(torsions, target, start_indices=start_indices)
        with monkeypatch.context() as compiled_state:
            compiled_state.setattr(native, "_library", lib)
            compiled = ccd_close_batch(torsions, target, start_indices=start_indices)
        for field in FIELDS:
            assert np.array_equal(getattr(fallback, field), getattr(compiled, field)), field
            assert np.array_equal(getattr(fallback, field), getattr(reference, field)), field
    assert swept, "the fallback did not run the masked sweep"
    assert native.library() is None
    assert len(no_compiler) == 1  # logged once, not per call


def test_unwritable_cache_builds_into_a_temp_dir(lib, tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    scratch = tmp_path / "scratch"

    def mkdtemp(prefix):
        scratch.mkdir()
        return str(scratch)

    monkeypatch.setattr(native.tempfile, "mkdtemp", mkdtemp)
    built = native._build_and_load(blocker / "__pycache__")
    assert isinstance(built, ctypes.CDLL)
    assert not scratch.exists()  # removed once the library is mapped


def test_build_reuses_a_built_library(lib, tmp_path, monkeypatch):
    path = native.build(tmp_path)
    monkeypatch.setattr(native, "_compile", lambda *args: pytest.fail("rebuilt"))
    assert native.build(tmp_path) == path


_RACER = """
import sys, time
from pathlib import Path
from repro import native
go = Path(sys.argv[2])
while not go.exists():
    time.sleep(0.001)
lib = native._load(native.build(Path(sys.argv[1])))
print(bool(lib.pivot_terms and lib.rotate_tail))
"""


def test_racing_builds_leave_one_library(lib, tmp_path):
    cache = tmp_path / "cache"
    go = tmp_path / "go"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    racers = [
        subprocess.Popen(
            [sys.executable, "-c", _RACER, str(cache), str(go)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    time.sleep(0.5)  # both processes are up and polling
    go.touch()
    for racer in racers:
        out, err = racer.communicate(timeout=120)
        assert racer.returncode == 0, err
        assert out.strip() == "True"
    left = sorted(path.name for path in cache.iterdir())
    assert len(left) == 1 and left[0].endswith(".so"), left


def test_sweep_rejects_buffers_the_c_cannot_index(lib):
    planes = np.zeros((3, ROWS, 4))
    starts = np.zeros(4, dtype=np.int64)
    anchors = np.zeros((3, 3))
    active = np.ones(4, dtype=np.uint8)
    with pytest.raises(ValueError):
        _sweep_atom_major(
            np.asfortranarray(planes), starts, anchors, np.empty((9, 4)), lib, active
        )
    with pytest.raises(ValueError):
        _sweep_atom_major(planes, starts, anchors, np.empty((9, 3)), lib, active)
    with pytest.raises(ValueError):
        _sweep_atom_major(planes, starts, anchors, np.empty((6, 4)), lib, active)
    with pytest.raises(ValueError):
        _sweep_atom_major(
            planes, starts, anchors.astype(np.float32), np.empty((9, 4)), lib, active
        )
    with pytest.raises(ValueError):
        _sweep_atom_major(planes, starts, anchors, np.empty((9, 4)), lib, active[:3])
    with pytest.raises(ValueError):
        _sweep_atom_major(
            planes, starts, anchors, np.empty((9, 4)), lib, active.astype(bool)
        )


def test_no_fma_in_any_tier(lib):
    """``-ffp-contract=off`` and no ``-march`` flag: no clone of any pass
    fuses a multiply and an add into one rounding."""
    objdump = shutil.which("objdump")
    if objdump is None:
        pytest.skip("no objdump")
    listing = subprocess.run(
        [objdump, "-d", "--no-show-raw-insn", lib._name],
        capture_output=True, check=True, text=True,
    ).stdout
    lanes = ("pivot_terms", "rotate_tail", "build_planes", "dihedral_terms")
    assert all(f"{name}_avx512" in listing for name in lanes)
    fused = re.findall(r"\bv?f(?:n?madd|n?msub)\w*", listing)
    assert not fused, sorted(set(fused))


def test_source_compiles_without_lane_tiers(lib, tmp_path):
    """A host that is not x86 compiles only the scalar passes; the
    source must still build there without a warning."""
    out = tmp_path / "scalar.so"
    subprocess.run(
        [
            *native._compiler(), *native.FLAGS, "-Wall", "-Wextra", "-Werror",
            "-DLANE_TIERS=0", "-x", "c", "-", "-o", str(out),
            f"-L{native._archive().parent}", "-lnpyrandom", "-lm",
        ],
        input=native.SOURCE, capture_output=True, check=True, text=True,
    )
    scalar = ctypes.CDLL(str(out))
    assert scalar.lane_tier() == 0


def test_loading_a_built_library_starts_no_process(lib, monkeypatch):
    """Once the library is built, a fresh process names and loads it
    without running the compiler (not even ``--version``)."""
    def refuse(*args, **kwargs):
        pytest.fail(f"started a process: {args}")

    monkeypatch.setattr(native, "_library", native._UNSET)
    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    loaded = native.library()
    assert isinstance(loaded, ctypes.CDLL)
    assert loaded._name == lib._name


# ---------------------------------------------------------------------------
# The chain build and the torsion re-measure of the compiled path
# ---------------------------------------------------------------------------

#: ``(C_prev, N_1, CA_1)`` anchors: a real one, three collinear atoms
#: (every first-residue frame normal is zero), N on CA (a zero bond) and
#: N 4e-12 from CA (a bond just above the ``norm < EPS`` guard).
ANCHORS = {
    "native": None,
    "collinear": np.array([[0.0, 0.0, 0.0], [1.3, 0.0, 0.0], [2.8, 0.0, 0.0]]),
    "coincident": np.array([[0.0, 0.0, 0.0], [1.3, 0.4, 0.0], [1.3, 0.4, 0.0]]),
    "tiny": np.array([[0.0, 0.0, 0.0], [1.3, 0.4, 0.0], [1.3 + 4e-12, 0.4, 0.0]]),
}


def adversarial_torsions(pop, n, seed):
    """Uniform torsions with NaN, +-inf and huge angles in some members."""
    rng = np.random.default_rng(seed)
    torsions = rng.uniform(-np.pi, np.pi, size=(pop, 2 * n))
    special = [np.nan, np.inf, -np.inf, 1e300, -0.0]
    for i, value in enumerate(special):
        if i < pop:
            torsions[i, (3 * i) % (2 * n)] = value
    return torsions


def anchored(target, kind):
    """``target`` with the anchors ``ANCHORS[kind]``, for the chain build."""
    if ANCHORS[kind] is None:
        return target
    return SimpleNamespace(
        n_anchor=ANCHORS[kind], c_anchor=target.c_anchor, end_phi=target.end_phi
    )


def check_build_planes(lib, torsions, target, members):
    """``_build_planes`` of ``members``, and ``build_planes`` on every
    tier the host runs, equal the numpy chain build of their rows, bit
    for bit."""
    starts = np.zeros(torsions.shape[0], dtype=np.int64)
    with np.errstate(all="ignore"):
        call = ccd_module._new_call(torsions, target, starts, 30, 0.25)
        planes = ccd_module._build_planes(call, members, lib)
        coords, closure = _build_backbone_chain(
            numpy_namespace(), torsions[members], target.n_anchor, target.end_phi
        )
    pop = members.size
    want = np.concatenate([coords.reshape(pop, -1, 3), closure], axis=1).T
    assert_same_bits(planes, want)
    for tier in host_tiers(lib):
        planes = np.full_like(planes, 7.0)
        lib.build_planes(
            tier, planes.ctypes.data, call.n, pop, members.ctypes.data,
            call.cos_t.ctypes.data, call.sin_t.ctypes.data,
            call.n_anchor.ctypes.data, call.bonds.ctypes.data,
        )
        assert_same_bits(planes, want)


@pytest.mark.parametrize("kind", sorted(ANCHORS))
@pytest.mark.parametrize("width", range(1, 10))
def test_build_planes_matches_the_numpy_chain(lib, width, kind):
    """Stripe widths 1-9 (the lane tiers' remainders and k < lanes), each
    a reversed member subset of an adversarial population of a loop of
    1-9 residues, on real and degenerate anchors."""
    target = anchored(make_target("native", 1, width, seed=width), kind)
    torsions = adversarial_torsions(2 * width + 1, width, seed=width)
    members = np.arange(2 * width, -1, -2, dtype=np.int64)[:width]
    check_build_planes(lib, torsions, target, members)


def test_build_planes_at_population_1000(lib):
    target = get_target("1cex(40:51)")
    torsions = adversarial_torsions(1000, target.n_residues, seed=4)
    members = np.random.default_rng(4).permutation(1000)[:700]
    check_build_planes(lib, torsions, target, members)


def c_torsions(lib, tier, chain, n, members, n_anchor):
    """``dihedral_terms`` on lane tier ``tier``, then one ``arctan2``, as
    the compiled path re-measures a stripe."""
    x = np.empty((2 * n, members.size))
    y = np.empty_like(x)
    lib.dihedral_terms(
        tier, chain.ctypes.data, n, members.size, members.ctypes.data,
        n_anchor.ctypes.data, x.ctypes.data, y.ctypes.data,
    )
    with np.errstate(all="ignore"):
        return np.arctan2(y, x).T


@pytest.mark.parametrize(
    "pop,n", [(width + 9, width) for width in range(1, 10)] + [(1000, 12)]
)
def test_dihedral_terms_match_backbone_torsions(lib, pop, n):
    """Stripe widths 7-15 (remainders of every lane count) of loops of
    1-9 residues, and a pop-1,000 case: random chains with NaN, +-inf,
    zero-length bonds and collinear atoms in some members."""
    rows = n * 4 + 3
    rng = np.random.default_rng(n)
    chain = rng.normal(scale=3.0, size=(pop, rows, 3))
    chain[0] = -0.0
    chain[1, :, :] = chain[1, :1, :]  # every atom on one point
    chain[2, :, 1:] = 0.0  # every atom on the x axis
    chain[3, 5, 1] = np.nan
    chain[4, rows - 3, 0] = np.inf
    chain[5, 2, 2] = -np.inf
    chain[6] *= 1e-300
    chain[7] *= 1e300
    chain[8] *= 1e-12  # bonds just above the ``norm < EPS`` guard
    n_anchor = rng.normal(size=(3, 3))
    members = np.ascontiguousarray(rng.permutation(pop)[: pop - 2])
    with np.errstate(all="ignore"):
        want = backbone_torsions_batch(
            chain[members, : n * 4].reshape(-1, n, 4, 3), n_anchor,
            chain[members, n * 4:],
        )
    for tier in host_tiers(lib):
        assert_same_bits(c_torsions(lib, tier, chain, n, members, n_anchor), want)


@pytest.mark.parametrize("compact", [0.0, ccd_module._COMPACT_FRACTION, 0.5])
@pytest.mark.parametrize("threads", [1, 2])
def test_whole_call_equals_the_masked_route_and_the_oracle(
    lib, threads, compact, monkeypatch
):
    """Init- and step-shaped calls, split into several stripes, with the
    planes compacted after every sweep, at the default fall or late:
    every output field equals the numpy-bundle route's and the
    oracle's."""
    monkeypatch.setattr(ccd_module, "_MIN_STRIPE", 64)
    monkeypatch.setattr(ccd_module, "_COMPACT_FRACTION", compact)
    target = get_target("1cex(40:51)")
    rng = np.random.default_rng(21)
    initial = RamachandranModel().sample_population(target.sequence, 300, rng)
    initial[:10:3] = target.native_torsions  # closed at build
    closed = ccd_close_batch(initial, target)
    proposals, starts = mutate_population(closed.torsions, target.sequence, rng)
    sweeps = []
    for torsions, start_indices in ((initial, None), (proposals, starts)):
        with using_member_threads(threads):
            compiled = ccd_close_batch(torsions, target, start_indices=start_indices)
        masked = ccd_close_batch(
            torsions, target, start_indices=start_indices, kernels=numpy_kernels()
        )
        reference = oracle.ccd_close_batch(torsions, target, start_indices=start_indices)
        for field in FIELDS:
            got = getattr(compiled, field)
            assert got.tobytes() == getattr(masked, field).tobytes(), field
            assert got.tobytes() == getattr(reference, field).tobytes(), field
        sweeps.append(compiled.iterations)
    # Members closed at build, part-way and never.
    assert set(np.concatenate(sweeps).tolist()) >= {0, 1, 30}
