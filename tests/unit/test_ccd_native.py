"""The compiled CCD passes reproduce the numpy expressions bit for bit.

``pivot_terms`` must equal the numpy squared norm, unit axis and
:func:`~repro.scoring.pairwise._alignment_sums` forms, and ``rotate_tail``
the Rodrigues tree of
:func:`~repro.geometry.rotation._rotate_points_about_axes`, on adversarial
planes as well as ordinary ones.  Without a working compiler,
``ccd_close_batch`` runs the masked sweep and still gives the compiled
bits; racing builds into one cache directory leave one whole library.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ccd_oracle as oracle
from repro import native
from repro.closure.ccd import _EPS, _pivot_indices, _sweep_atom_major, ccd_close_batch
from repro.geometry.rotation import _rotate_points_about_axes
from repro.geometry.vectors import einsum_sum3
from repro.loops.ramachandran import RamachandranModel
from repro.loops.targets import get_target
from repro.moscem.mutation import mutate_population
from repro.scoring.pairwise import _alignment_sums
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


def c_pivot_terms(lib, planes, k, b_idx, c_idx, anchors, stride):
    terms = np.full((6, stride), 7.0)
    lib.pivot_terms(
        planes.ctypes.data, planes.shape[1], planes.shape[2], k, b_idx, c_idx,
        anchors.ctypes.data, terms.ctypes.data, stride,
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
    with np.errstate(all="ignore"):
        for j in range(2 * RESIDUES):
            b_idx, c_idx, _ = _pivot_indices(j)
            terms = c_pivot_terms(lib, planes, k, b_idx, c_idx, anchors, width + 3)
            axes, squared, a, b = numpy_pivot_terms(planes, k, b_idx, c_idx, anchors)
            assert_same_bits(terms[:3, :k], axes)
            assert_same_bits(terms[3, :k], squared)
            assert_same_bits(terms[4, :k], a)
            assert_same_bits(terms[5, :k], b)
            assert np.all(terms[:, k:] == 7.0)  # nothing past the prefix


@pytest.mark.parametrize("adversarial", [False, True])
def test_rotate_tail_matches_rodrigues(lib, adversarial):
    width, k = 40, 33
    rng = np.random.default_rng(3)
    planes = (
        adversarial_planes(width, seed=3)
        if adversarial
        else rng.normal(scale=5.0, size=(3, ROWS, width))
    )
    raw = rng.normal(size=(3, width))
    terms = np.zeros((6, width + 2))
    terms[:3, :width] = raw / np.sqrt(einsum_sum3(raw[0] ** 2, raw[1] ** 2, raw[2] ** 2))
    angles = rng.uniform(-np.pi, np.pi, size=k)
    rotating = rng.random(k) < 0.7
    rotating[:8] = True  # the adversarial columns all rotate
    c, s = np.cos(angles), np.sin(angles)
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
            planes.ctypes.data, ROWS, width, k, b_idx, move_start,
            terms.ctypes.data, terms.shape[1], c.ctypes.data, s.ctypes.data,
            rotating.ctypes.data,
        )
        want = before.copy()
        want[:, move_start:, np.flatnonzero(rotating)] = rotated[:, :, rotating]
        assert_same_bits(planes, want)
        # Excluded members, rows above the tail and columns past the
        # prefix stay byte-unchanged.
        untouched = np.ones((3, ROWS, width), dtype=bool)
        untouched[:, move_start:, np.flatnonzero(rotating)] = False
        assert before[untouched].tobytes() == planes[untouched].tobytes()


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
    terms = np.empty((6, 64))
    for _ in range(3):
        _sweep_atom_major(planes, starts, anchors, terms, lib)
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
    with pytest.raises(ValueError):
        _sweep_atom_major(np.asfortranarray(planes), starts, anchors, np.empty((6, 4)), lib)
    with pytest.raises(ValueError):
        _sweep_atom_major(planes, starts, anchors, np.empty((6, 3)), lib)
    with pytest.raises(ValueError):
        _sweep_atom_major(planes, starts, anchors.astype(np.float32), np.empty((6, 4)), lib)
