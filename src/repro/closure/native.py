"""The compiled half of the atom-major CCD sweep.

Two C passes per pivot, over the ``(3, rows, width)`` member-innermost
coordinate planes of :func:`repro.closure.ccd._sweep_atom_major`:

* ``pivot_terms`` -- each member's unit pivot axis, the raw axis's
  squared norm and the alignment terms ``(a, b)``: the expressions of
  :func:`~repro.geometry.rotation._normalize_last_axis` and
  :func:`~repro.scoring.pairwise._alignment_sums`, with every sum spelled
  out in the order of :func:`~repro.geometry.vectors.einsum_sum3`,
  :func:`~repro.geometry.vectors.einsum_sum9` and
  :func:`~repro.geometry.vectors.reduce_sum3`, ``+ 0.0`` included;
* ``rotate_tail`` -- the Rodrigues tree of
  :func:`~repro.geometry.rotation._rotate_points_about_axes`, op for op,
  on the rows a pivot moves, skipping the members whose angle is
  excluded (so they keep their coordinates verbatim).

``arctan2``, ``cos``, ``sin`` and the exclusion masks stay in numpy,
between the two calls: only ``+``, ``-``, ``*``, ``/`` and ``sqrt`` run
here, which IEEE 754 rounds exactly once each, so both sides give the
same bits.  ``-ffp-contract=off`` keeps the compiler from fusing
``a * b + c`` into one FMA rounding; ``-ffast-math`` and
``-march=native`` must never be added.

The library is compiled on first use with ``sysconfig``'s ``CC`` into
``__pycache__`` next to this file, named by the sha256 of the source,
the flags, the compiler version and the machine, and written through a
temp file and ``os.replace``, so racing processes each load a whole
library.  A read-only package directory builds into a per-process temp
directory instead.  :func:`library` returns ``None`` when no compiler
works; the caller then runs the masked sweep.  ``ctypes`` releases the
GIL for each call, so member-thread stripes run the passes in parallel.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path
from typing import List, Optional

from repro.io import atomic_write
from repro.utils.logging import get_logger

__all__ = ["FLAGS", "SOURCE", "build", "library"]

#: Compiler flags.  ``-ffp-contract=off`` is what makes the passes
#: bit-identical to numpy; see the module docstring.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

SOURCE = r"""
#include <math.h>

#define EPS 1e-12
/* Members per block of rotate_tail: the block's axes, angles and
   origins stay in L1 while its rows are rotated. */
#define BLOCK 512

/* geometry.vectors.einsum_sum3: t0 + t1 + t2 as np.einsum adds it. */
static double einsum_sum3(double t0, double t1, double t2)
{
    return ((t0 + t2) + t1) + 0.0;
}

/* geometry.vectors.reduce_sum3: t0 + t1 + t2 as .sum(axis=1) adds it. */
static double reduce_sum3(double t0, double t1, double t2)
{
    return ((t0 + t1) + t2) + 0.0;
}

/* The pivot terms of members [0, k) of the (3, rows, width) planes.
   Writes six rows of `terms` (row stride `stride`): the unit axis
   (x, y, z), the raw axis's squared norm, and the alignment terms a, b
   of the closure atoms (the last three plane rows) against `anchors`,
   (3 atoms, 3 coordinates) row-major. */
void pivot_terms(const double *planes, long rows, long width, long k,
                 long b_idx, long c_idx, const double *anchors,
                 double *terms, long stride)
{
    const long plane = rows * width;
    const double *closure = planes + (rows - 3) * width;
    for (long m = 0; m < k; ++m) {
        double o[3], raw[3], r[3][3], f[3][3], r_ax[3], f_ax[3];
        double rf[3][3], cx[3], cy[3], cz[3];
        for (int i = 0; i < 3; ++i) {
            o[i] = planes[i * plane + b_idx * width + m];
            raw[i] = planes[i * plane + c_idx * width + m] - o[i];
        }
        /* rotation._normalize_last_axis */
        const double squared = einsum_sum3(raw[0] * raw[0], raw[1] * raw[1],
                                           raw[2] * raw[2]);
        const double norm = sqrt(squared);
        const double safe = norm < EPS ? 1.0 : norm;
        const double ax = raw[0] / safe;
        const double ay = raw[1] / safe;
        const double az = raw[2] / safe;
        /* pairwise._alignment_sums on r, f as (coordinate, atom) */
        for (int i = 0; i < 3; ++i) {
            for (int q = 0; q < 3; ++q) {
                r[i][q] = closure[i * plane + q * width + m] - o[i];
                f[i][q] = anchors[q * 3 + i] - o[i];
            }
        }
        for (int q = 0; q < 3; ++q) {
            r_ax[q] = einsum_sum3(r[0][q] * ax, r[1][q] * ay, r[2][q] * az);
            f_ax[q] = einsum_sum3(f[0][q] * ax, f[1][q] * ay, f[2][q] * az);
        }
        for (int i = 0; i < 3; ++i) {
            for (int q = 0; q < 3; ++q) {
                rf[i][q] = r[i][q] * f[i][q];
            }
        }
        /* geometry.vectors.einsum_sum9 of rf[i][q], atom-major order */
        const double rf9 = (((((rf[0][2] + rf[1][1]) + rf[2][0]) + rf[0][0])
                             + rf[2][2])
                            + (((rf[1][2] + rf[2][1]) + rf[0][1]) + rf[1][0]))
                           + 0.0;
        const double a = rf9 - einsum_sum3(r_ax[0] * f_ax[0],
                                           r_ax[1] * f_ax[1],
                                           r_ax[2] * f_ax[2]);
        for (int q = 0; q < 3; ++q) {
            cx[q] = r[1][q] * f[2][q] - r[2][q] * f[1][q];
            cy[q] = r[2][q] * f[0][q] - r[0][q] * f[2][q];
            cz[q] = r[0][q] * f[1][q] - r[1][q] * f[0][q];
        }
        const double b = (ax * reduce_sum3(cx[0], cx[1], cx[2])
                          + ay * reduce_sum3(cy[0], cy[1], cy[2]))
                         + az * reduce_sum3(cz[0], cz[1], cz[2]);
        terms[m] = ax;
        terms[stride + m] = ay;
        terms[2 * stride + m] = az;
        terms[3 * stride + m] = squared;
        terms[4 * stride + m] = a;
        terms[5 * stride + m] = b;
    }
}

/* Rodrigues rotation of rows [move_start, rows) of members [0, k) about
   each member's unit axis (rows 0-2 of `terms`) through the origin row
   b_idx, by the angle whose cosine and sine are c, s.  Members with
   rotating[m] == 0 are left untouched. */
void rotate_tail(double *planes, long rows, long width, long k,
                 long b_idx, long move_start, const double *terms,
                 long stride, const double *c, const double *s,
                 const unsigned char *rotating)
{
    const long plane = rows * width;
    const double *ox = planes + b_idx * width;
    const double *oy = ox + plane;
    const double *oz = oy + plane;
    for (long m0 = 0; m0 < k; m0 += BLOCK) {
        const long m1 = m0 + BLOCK < k ? m0 + BLOCK : k;
        for (long row = move_start; row < rows; ++row) {
            double *px = planes + row * width;
            double *py = px + plane;
            double *pz = py + plane;
            for (long m = m0; m < m1; ++m) {
                if (!rotating[m]) {
                    continue;
                }
                const double kx = terms[m];
                const double ky = terms[stride + m];
                const double kz = terms[2 * stride + m];
                const double cm = c[m];
                const double sm = s[m];
                const double x = px[m] - ox[m];
                const double y = py[m] - oy[m];
                const double z = pz[m] - oz[m];
                const double t = ((x * kx + y * ky) + z * kz) * (1.0 - cm);
                px[m] = ((x * cm + (ky * z - kz * y) * sm) + kx * t) + ox[m];
                py[m] = ((y * cm + (kz * x - kx * z) * sm) + ky * t) + oy[m];
                pz[m] = ((z * cm + (kx * y - ky * x) * sm) + kz * t) + oz[m];
            }
        }
    }
}
"""

_LOG = get_logger("closure.native")
_UNSET = object()
_library: object = _UNSET
_lock = threading.Lock()


def _compiler() -> List[str]:
    """``sysconfig``'s ``CC`` as an argv prefix (empty when unset)."""
    return shlex.split(sysconfig.get_config_var("CC") or "")


def _library_name(compiler: List[str]) -> str:
    """The file name: sha256 of the source, flags, compiler version and
    machine, so any change to one of them builds a new library."""
    version = subprocess.run(
        [*compiler, "--version"], capture_output=True, check=True, text=True
    ).stdout
    digest = hashlib.sha256()
    for part in (SOURCE, " ".join(FLAGS), version, os.uname().machine):
        digest.update(part.encode() + b"\0")
    return f"ccd-{digest.hexdigest()}.so"


def _compile(compiler: List[str], path: Path) -> None:
    """Compile :data:`SOURCE` into the shared library ``path``."""
    subprocess.run(
        [*compiler, *FLAGS, "-x", "c", "-", "-o", str(path), "-lm"],
        input=SOURCE,
        capture_output=True,
        check=True,
        text=True,
    )


def build(directory: Path) -> Path:
    """The library in ``directory``, compiled there unless already built.

    Written through a per-process temp file and ``os.replace``, so two
    processes building into one directory both end with a whole file.
    """
    compiler = _compiler()
    if not compiler:
        raise OSError("sysconfig names no C compiler")
    path = Path(directory) / _library_name(compiler)
    if not path.exists():
        atomic_write(path, lambda tmp: _compile(compiler, tmp))
    return path


def _load(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    ptr, size = ctypes.c_void_p, ctypes.c_long
    lib.pivot_terms.argtypes = [ptr, size, size, size, size, size, ptr, ptr, size]
    lib.pivot_terms.restype = None
    lib.rotate_tail.argtypes = [
        ptr, size, size, size, size, size, ptr, size, ptr, ptr, ptr
    ]
    lib.rotate_tail.restype = None
    return lib


def _build_and_load(cache: Path) -> ctypes.CDLL:
    try:
        return _load(build(cache))
    except (OSError, subprocess.CalledProcessError):
        # A read-only install: build into a per-process directory, which
        # may go as soon as the library is mapped.
        scratch = Path(tempfile.mkdtemp(prefix="repro-ccd-"))
        try:
            return _load(build(scratch))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


def library() -> Optional[ctypes.CDLL]:
    """The compiled sweep, built on the first call; ``None`` when no
    compiler works (logged once)."""
    global _library
    with _lock:
        if _library is _UNSET:
            try:
                _library = _build_and_load(Path(__file__).with_name("__pycache__"))
            except (OSError, subprocess.CalledProcessError) as error:
                detail = getattr(error, "stderr", None) or error
                _LOG.warning(
                    "no C compiler works (%s); CCD runs the masked numpy sweep",
                    detail,
                )
                _library = None
        return _library  # type: ignore[return-value]
