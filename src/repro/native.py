"""The compiled kernels: one C library, built on first use.

Every pass spells out, op for op, the numpy expression it replaced, so
the compiled route and the numpy one give the same bits.  Two groups:

* **CCD** (:func:`repro.closure.ccd._sweep_atom_major`), two passes per
  pivot over the ``(3, rows, width)`` member-innermost coordinate
  planes:

  - ``pivot_terms`` -- each member's unit pivot axis, the raw axis's
    squared norm and the alignment terms ``(a, b)``: the expressions of
    :func:`~repro.geometry.rotation._normalize_last_axis` and
    :func:`~repro.scoring.pairwise._alignment_sums`, with every sum in
    the order of :func:`~repro.geometry.vectors.einsum_sum3`,
    :func:`~repro.geometry.vectors.einsum_sum9` and
    :func:`~repro.geometry.vectors.reduce_sum3`, ``+ 0.0`` included;
  - ``rotate_tail`` -- the Rodrigues tree of
    :func:`~repro.geometry.rotation._rotate_points_about_axes` on the
    rows a pivot moves, skipping the members whose angle is excluded
    (so they keep their coordinates verbatim).

  ``arctan2``, ``cos``, ``sin`` and the exclusion masks stay in numpy,
  between the two calls.

* **Scoring** (:mod:`repro.scoring.pairwise`), one call per population
  block of the member threads:

  - ``pair_penalty`` -- the soft-sphere penalty sum over indexed pairs
    (``indexed_penalty_sum``, VDW's three intra-loop terms);
  - ``env_penalty`` -- the penalty of probes against the environment
    atoms of the 27 cells around each probe
    (``EnvironmentGrid.penalty_sum``);
  - ``binned_sum`` -- the table values picked by squared-distance bins
    (``binned_table_sum``, the DIST term).

  Each copies the order numpy adds its sums in, which depends on the
  memory layout numpy gives the temporaries (pinned by
  ``tests/unit/test_reduction_order.py``): a squared distance is
  ``einsum_sum3``; a row of VDW penalties adds term by term from
  ``0.0``, because the ``points[..., first, :]`` gather comes out
  pair-major and ``einsum("pk->p")`` then walks the block column by
  column, except in a one-member block, which is one contiguous row;
  DIST rows and one-member VDW rows add as numpy's two-lane
  ``sum_of_arr`` does; the environment term adds in ``np.bincount``'s
  pair order (slot, neighbour cell, cell-sorted atom).

Only ``+``, ``-``, ``*``, ``/``, ``sqrt``, ``floor`` and comparisons run
here, which IEEE 754 rounds exactly once each (or not at all), so both
sides give the same bits.  ``-ffp-contract=off`` keeps the compiler from
fusing ``a * b + c`` into one FMA rounding; ``-ffast-math`` and
``-march=native`` must never be added.

The library is compiled on the first kernel call (never at import) with
``sysconfig``'s ``CC`` into ``__pycache__`` next to this file, named by
the sha256 of the source, the flags, the compiler version and the
machine, and written through a temp file and ``os.replace``, so racing
processes each load a whole library.  A read-only package directory
builds into a per-process temp directory instead.  :func:`library`
returns ``None`` when no compiler works (logged once); the callers then
run the numpy forms, which give the same bits.  ``ctypes`` releases the
GIL for each call, so member threads run the passes in parallel.
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
#include <limits.h>
#include <math.h>

/* ---- CCD: two passes per pivot ---- */

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

/* ---- Scoring: one call per population block ---- */

/* Padding of EnvironmentGrid's cell array, in cells per side. */
#define PAD 2

/* scoring.pairwise._soft_sphere_penalty_sq of one pair: the where()s
   give 0.0 / 1.0 squared, +0.0, off the overlap mask. */
static double soft_sphere(double sq_d, double sq_c)
{
    if (!(sq_d < sq_c)) {
        return 0.0;
    }
    const double overlap = (sq_c - sq_d) / sq_c;
    return overlap * overlap;
}

/* The squared distance of two points, summed as np.einsum adds a row
   of three. */
static double sq_distance(const double *p, const double *q)
{
    const double dx = p[0] - q[0];
    const double dy = p[1] - q[1];
    const double dz = p[2] - q[2];
    return einsum_sum3(dx * dx, dy * dy, dz * dz);
}

/* A contiguous row summed as np.einsum("pk->p") sums it (numpy's
   sum_of_arr on two SSE2 lanes): each run of eight terms t0..t7 adds
   ((t0 + t2) + (t4 + t6)) to lane 0 and ((t1 + t3) + (t5 + t7)) to
   lane 1, the rest goes to the lanes pair by pair (a missing partner
   is 0.0), and the row is (lane 0 + lane 1) + 0.0.  Terms are fed one
   at a time with lanes_add, then lanes_total gives the row. */
struct lanes {
    double t[8];
    int n;
    double lane0;
    double lane1;
};

static void lanes_add(struct lanes *s, double term)
{
    s->t[s->n++] = term;
    if (s->n == 8) {
        s->lane0 = ((s->t[0] + s->t[2]) + (s->t[4] + s->t[6])) + s->lane0;
        s->lane1 = ((s->t[1] + s->t[3]) + (s->t[5] + s->t[7])) + s->lane1;
        s->n = 0;
    }
}

static double lanes_total(struct lanes *s)
{
    for (int i = 0; i < s->n; i += 2) {
        s->lane0 = s->t[i] + s->lane0;
        s->lane1 = (i + 1 < s->n ? s->t[i + 1] : 0.0) + s->lane1;
    }
    return (s->lane0 + s->lane1) + 0.0;
}

/* Per-member soft-sphere penalty sums of one block of `members`
   members: pair k joins point first[k] of points_a with point second[k]
   of points_b ((members, atoms_a, 3) and (members, atoms_b, 3), C
   order), at squared contact sq_contacts[k].  The gathered
   (members, pairs) penalties are column-major, so np.einsum adds each
   member's terms one by one from 0.0; a one-member block is a
   contiguous row, summed in two lanes. */
void pair_penalty(const double *points_a, long atoms_a,
                  const double *points_b, long atoms_b, long members,
                  const long *first, const long *second, long pairs,
                  const double *sq_contacts, double *totals)
{
    for (long m = 0; m < members; ++m) {
        const double *a = points_a + m * atoms_a * 3;
        const double *b = points_b + m * atoms_b * 3;
        if (members == 1) {
            struct lanes row = {{0.0}, 0, 0.0, 0.0};
            for (long k = 0; k < pairs; ++k) {
                lanes_add(&row, soft_sphere(sq_distance(a + first[k] * 3,
                                                        b + second[k] * 3),
                                            sq_contacts[k]));
            }
            totals[m] = lanes_total(&row);
        } else {
            double total = 0.0;
            for (long k = 0; k < pairs; ++k) {
                total = soft_sphere(sq_distance(a + first[k] * 3,
                                                b + second[k] * 3),
                                    sq_contacts[k])
                        + total;
            }
            totals[m] = total;
        }
    }
}

/* floor(x).astype(int64) as numpy casts it: NaN, the infinities and
   values beyond int64 become INT64_MIN (x86's "integer indefinite"). */
static long floor_to_long(double x)
{
    const double f = floor(x);
    if (f >= -9223372036854775808.0 && f < 9223372036854775808.0) {
        return (long)f;
    }
    return LONG_MIN;
}

/* EnvironmentGrid.penalty_sum over one block: the soft-sphere penalty
   of each member's `slots` probes ((members, slots, 3), C order)
   against the environment atoms of the 27 cells around each probe's
   cell.  The grid has dims[i] cells of edge `edge` from `origin`,
   padded by PAD empty cells per side; padded cell c holds rows
   starts[c] .. starts[c + 1] of the cell-sorted sorted_coords, and
   sq_contacts is (slots, atoms) in that sorted order.  Terms add one
   by one from 0.0 in np.bincount's pair order: slot, neighbour cell
   (offsets ascending), sorted atom. */
void env_penalty(const double *probes, long members, long slots,
                 const double *origin, double edge, const long *dims,
                 const long *starts, const double *sorted_coords,
                 const double *sq_contacts, long atoms, double *totals)
{
    const long p1 = dims[1] + 2 * PAD;
    const long p2 = dims[2] + 2 * PAD;
    for (long m = 0; m < members; ++m) {
        double total = 0.0;
        for (long slot = 0; slot < slots; ++slot) {
            const double *p = probes + (m * slots + slot) * 3;
            const double *contacts = sq_contacts + slot * atoms;
            long cell[3];
            for (int i = 0; i < 3; ++i) {
                /* Clipped into the empty border ring, as np.clip does. */
                long c = floor_to_long((p[i] - origin[i]) / edge);
                c = c < -1 ? -1 : (c > dims[i] ? dims[i] : c);
                cell[i] = c + PAD;
            }
            const long base = (cell[0] * p1 + cell[1]) * p2 + cell[2];
            for (long dx = -1; dx <= 1; ++dx) {
                for (long dy = -1; dy <= 1; ++dy) {
                    for (long dz = -1; dz <= 1; ++dz) {
                        const long id = base + (dx * p1 + dy) * p2 + dz;
                        for (long q = starts[id]; q < starts[id + 1]; ++q) {
                            total = soft_sphere(sq_distance(p, sorted_coords + q * 3),
                                                contacts[q])
                                    + total;
                        }
                    }
                }
            }
        }
        totals[m] = total;
    }
}

/* np.searchsorted(edges, v, side="right") on n sorted, non-NaN edges:
   the first index whose edge is above v, n for NaN.  The guess
   sqrt(v) * scale + 1 is right for uniform squared edges; the
   comparisons decide, so any sorted edges give numpy's answer. */
static long search_right(double v, const double *edges, long n, double scale)
{
    const double guess = sqrt(v) * scale + 1.0;
    long i = guess >= 0.0 && guess < (double)n ? (long)guess : n;
    while (i > 0 && v < edges[i - 1]) {
        --i;
    }
    while (i < n && !(v < edges[i])) {
        ++i;
    }
    return i;
}

/* Per-member sums of table values of one block: pair k joins points
   first[k] and second[k] of each member ((members, atoms, 3), C
   order), and reads row k of `tables` ((pairs, n_cols), C order) at
   the bin of its squared distance among the n_edges sq_edges, clipped
   to [0, n_cols).  np.take's output is C order, so each member's row
   adds in two lanes. */
void binned_sum(const double *points, long atoms, long members,
                const long *first, const long *second, long pairs,
                const double *tables, long n_cols,
                const double *sq_edges, long n_edges, double scale,
                double *totals)
{
    for (long m = 0; m < members; ++m) {
        const double *pm = points + m * atoms * 3;
        struct lanes row = {{0.0}, 0, 0.0, 0.0};
        for (long k = 0; k < pairs; ++k) {
            const double v = sq_distance(pm + first[k] * 3, pm + second[k] * 3);
            long bin = search_right(v, sq_edges, n_edges, scale) - 1;
            bin = bin < 0 ? 0 : (bin > n_cols - 1 ? n_cols - 1 : bin);
            lanes_add(&row, tables[k * n_cols + bin]);
        }
        totals[m] = lanes_total(&row);
    }
}
"""

_LOG = get_logger("native")
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
    return f"kernels-{digest.hexdigest()}.so"


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
    real = ctypes.c_double
    lib.pair_penalty.argtypes = [
        ptr, size, ptr, size, size, ptr, ptr, size, ptr, ptr
    ]
    lib.pair_penalty.restype = None
    lib.env_penalty.argtypes = [
        ptr, size, size, ptr, real, ptr, ptr, ptr, ptr, size, ptr
    ]
    lib.env_penalty.restype = None
    lib.binned_sum.argtypes = [
        ptr, size, size, ptr, ptr, size, ptr, size, ptr, size, real, ptr
    ]
    lib.binned_sum.restype = None
    return lib


def _build_and_load(cache: Path) -> ctypes.CDLL:
    try:
        return _load(build(cache))
    except (OSError, subprocess.CalledProcessError):
        # A read-only install: build into a per-process directory, which
        # may go as soon as the library is mapped.
        scratch = Path(tempfile.mkdtemp(prefix="repro-kernels-"))
        try:
            return _load(build(scratch))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


def library() -> Optional[ctypes.CDLL]:
    """The compiled kernels, built on the first call; ``None`` when no
    compiler works (logged once)."""
    global _library
    with _lock:
        if _library is _UNSET:
            try:
                _library = _build_and_load(Path(__file__).with_name("__pycache__"))
            except (OSError, subprocess.CalledProcessError) as error:
                detail = getattr(error, "stderr", None) or error
                _LOG.warning(
                    "no C compiler works (%s); the compiled kernels run their numpy forms",
                    detail,
                )
                _library = None
        return _library  # type: ignore[return-value]
