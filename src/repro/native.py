"""The compiled kernels: one C library, built on first use.

Every pass spells out, op for op, the numpy expression it replaced, so
the compiled route and the numpy one give the same bits.  Four groups:

* **CCD** (:mod:`repro.closure.ccd`), one member-thread task per stripe
  of the start-sorted members, over the stripe's ``(3, rows, width)``
  member-innermost coordinate planes:

  - ``build_planes`` -- the chain build of
    :func:`~repro.geometry.nerf._build_backbone_chain` straight into the
    planes: each NeRF step of :func:`~repro.geometry.nerf._place_atoms`
    (the ``einsum_sum3`` norm and ``norm < EPS`` guard of
    ``_normalize_last_axis``, ``np.cross``'s ``a1*b2 - a2*b1``
    components, ``((c + d0*bc) + d1*m) + d2*n``) on numpy's cosines and
    sines of the angles and the bond scalars numpy computed;
  - ``check_closure`` -- the closure RMSD of
    :func:`~repro.geometry.rmsd.coordinate_rmsd_batch` (each atom's
    ``.sum(-1)``, then ``np.mean``, then ``sqrt``), the converged sweep,
    and the write-back of the members that stop converging into the
    ``(P, rows, 3)`` chain, which leave the ``active`` mask;
  - per pivot, ``pivot_terms`` -- each member's unit pivot axis, the raw
    axis's squared norm and the alignment terms ``(a, b)``: the
    expressions of :func:`~repro.geometry.rotation._normalize_last_axis`
    and :func:`~repro.scoring.pairwise._alignment_sums`, with every sum
    in the order of :func:`~repro.geometry.vectors.einsum_sum3`,
    :func:`~repro.geometry.vectors.einsum_sum9` and
    :func:`~repro.geometry.vectors.reduce_sum3`, ``+ 0.0`` included;
    ``exclude_angles`` -- the masked sweep's exclusions (the ``active``
    mask's included), in place on the ``arctan2`` angles numpy computed
    from those terms, and the ``rotating`` flags (``|angle| > 1e-10``)
    with their count; ``rotate_tail`` -- the Rodrigues tree of
    :func:`~repro.geometry.rotation._rotate_points_about_axes` on the
    rows a pivot moves, leaving the members that do not rotate
    verbatim;
  - ``compact_columns`` -- the members still converging packed in place
    into a C-contiguous prefix of the planes' buffer, once their count
    has fallen by a fixed fraction;
  - ``write_columns`` -- the members still converging after the last
    sweep, into the chain;
  - ``dihedral_terms`` -- the ``(x, y)`` terms of
    :func:`~repro.geometry.vectors.dihedral_angles_batch` for every
    torsion of :func:`~repro.geometry.internal.backbone_torsions_batch`,
    read from the chain (``np.cross`` order, ``normalize``'s norm and
    guard, the ``einsum_sum3`` dot).

  ``build_planes``, ``pivot_terms``, ``rotate_tail`` and
  ``dihedral_terms`` run across members on SIMD lanes, in GNU C vector
  types, one variant per x86
  tier: 8 lanes on AVX-512F, 4 on AVX2 (``target`` attributes, so no
  ``-m`` or ``-march`` flag is needed), and the scalar loop on the
  baseline tier and on other machines.  ``lane_tier()`` names the widest
  tier the host runs (``__builtin_cpu_supports``) and each pass takes a
  tier, so tests run every tier the host has.  Each lane runs the scalar
  form's operations in its order, and a member that does not rotate
  keeps its coordinates through a bitwise select, not a branch, so every
  tier gives the same bits.  ``arctan2``, ``cos`` and ``sin`` stay in
  numpy, into preallocated buffers.

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

* **Dominance** (:mod:`repro.moscem.dominance`, the [FitAssg] kernels),
  one call per score set, its lexicographic order computed by numpy
  (``np.lexsort``) and passed in:

  - ``non_dominated_mask`` -- the front filter: each row, in that
    order, tested against the front found so far;
  - ``strength_fitness`` -- the filter, each front member's integer
    domination count over the dominated rows, then one division per
    fitness: ``count / n`` on the front, ``1 + count_sum / n`` off it;
  - ``fitness_against`` -- the same reference pass, then each query's
    count over the reference rows or its front dominators' count sum.

  Only comparisons and ``int64`` counts run here; each test is written
  ``!(a <= b)``, so a NaN fails it as it fails numpy's ``<=``.

* **Host draws** (:mod:`repro.loops.ramachandran`,
  :mod:`repro.moscem.mutation`), one call per population, drawing from
  the caller's ``np.random.Generator`` through its ``bitgen_t``
  (:func:`bit_generator`, which holds ``rng.bit_generator.lock`` around
  the call as numpy does around its own draws).  The samplers are
  numpy's own, linked from ``numpy/random/lib/libnpyrandom.a``:
  ``random_standard_uniform`` (``next_double``) for ``random()``,
  ``random_normal`` for ``normal(loc, scale)`` (element by element for
  ``normal(0, sigma, size=k)``) and ``random_bounded_uint64`` in numpy's
  Floyd branch of ``choice(n, k, replace=False)`` (``choose``: a hash set
  of ``1 + mask`` slots, ``mask`` the bit-smear of ``1.2 * k``, then the
  shuffle), so every draw and the generator's state after it equal the
  Python calls':

  - ``sample_rows`` -- the Ramachandran basin draws, row after row and
    residue by residue (``cdf.searchsorted(u, side="right")`` as the
    count of ``cdf <= u``);
  - ``mutate_rows`` -- [Reproduction], member after member: ``random()``,
    then a basin hop or a local normal move, and the CCD start.

  ``distributions.h`` includes ``Python.h``, so ``bitgen_t`` and the
  three prototypes are declared below.

Only ``+``, ``-``, ``*``, ``/``, ``sqrt``, ``fabs``, ``floor``,
comparisons and bitwise selects run in this source, which IEEE 754 rounds exactly once
each (or not at all), on a vector lane as on a scalar, so both sides
give the same bits.  The one exception is numpy's own
code: the ziggurat tail and wedge tests of ``random_normal`` call libm's
``log1p`` and ``exp``, the very calls numpy makes, so the draws are
numpy's bits on every host (making them host-independent is ROADMAP
item 2).
``-ffp-contract=off`` keeps the compiler from fusing ``a * b + c`` into
one FMA rounding, in every tier (``test_no_fma_in_any_tier`` and CI
disassemble the library to check); ``-ffast-math`` and ``-march=native``
must never be added: the first reorders sums, the second would build one
host's tier only and let FMA back in through it.

The library is compiled on the first kernel call (never at import) with
``sysconfig``'s ``CC`` into ``__pycache__`` next to this file, linked
against numpy's ``libnpyrandom.a``, named by the sha256 of the source,
the flags, the compiler (its argv and its driver's resolved path, size
and ``mtime_ns``, so loading a built library starts no process), the
machine, the numpy version and the archive's bytes, and written through a temp file and ``os.replace``, so
racing processes each load a whole library.  A read-only package
directory builds into a per-process temp directory instead.
:func:`library` returns ``None`` when no compiler works or numpy ships
no ``libnpyrandom.a`` (logged once); the callers then run the numpy
forms, which give the same bits.  ``ctypes`` releases the GIL for each
call, so member threads run the passes in parallel.
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
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional

import numpy as np

from repro.io import atomic_write
from repro.utils.logging import get_logger

__all__ = ["FLAGS", "SOURCE", "bit_generator", "build", "draw_library", "library"]

#: Compiler flags.  ``-ffp-contract=off`` is what makes the passes
#: bit-identical to numpy; see the module docstring.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: The vector forms of the two CCD passes, in the names of one x86 tier:
#: ``TIER(name)`` is ``name_<tier>``, ``TARGET`` the target attribute and
#: ``LANES`` the members per vector (see the ``SOURCE`` note above its use).
_LANE_PASSES = r"""
#define VEC CAT(lanes, LANES)
#define MASK CAT(mask, LANES)
/* Lane by lane, `yes` where the mask's bits are set, else `no`. */
#define SELECT(mask, yes, no) \
    ((VEC)((((MASK)(yes)) & (mask)) | (((MASK)(no)) & ~(mask))))

/* pivot_terms_scalar on LANES members at a time, the scalar form on
   the last k % LANES. */
__attribute__((target(TARGET))) static void
TIER(pivot_terms)(const double *planes, long rows, long width, long k,
                  long b_idx, long c_idx, const double *anchors,
                  double *terms, long stride)
{
    const long plane = rows * width;
    const double *closure = planes + (rows - 3) * width;
    long m = 0;
    for (; m + LANES <= k; m += LANES) {
        VEC o[3], raw[3], r[3][3], f[3][3], r_ax[3], f_ax[3];
        VEC rf[3][3], cx[3], cy[3], cz[3], norm, head;
        for (int i = 0; i < 3; ++i) {
            LOAD(o[i], planes + i * plane + b_idx * width + m);
            LOAD(head, planes + i * plane + c_idx * width + m);
            raw[i] = head - o[i];
        }
        const VEC squared = EINSUM_SUM3(raw[0] * raw[0], raw[1] * raw[1],
                                        raw[2] * raw[2]);
        for (int l = 0; l < LANES; ++l) {
            norm[l] = sqrt(squared[l]);
        }
        const VEC one = (VEC){0.0} + 1.0;
        const VEC safe = SELECT((MASK)(norm < EPS), one, norm);
        const VEC ax = raw[0] / safe;
        const VEC ay = raw[1] / safe;
        const VEC az = raw[2] / safe;
        for (int i = 0; i < 3; ++i) {
            for (int q = 0; q < 3; ++q) {
                LOAD(head, closure + i * plane + q * width + m);
                r[i][q] = head - o[i];
                f[i][q] = anchors[q * 3 + i] - o[i];
            }
        }
        for (int q = 0; q < 3; ++q) {
            r_ax[q] = EINSUM_SUM3(r[0][q] * ax, r[1][q] * ay, r[2][q] * az);
            f_ax[q] = EINSUM_SUM3(f[0][q] * ax, f[1][q] * ay, f[2][q] * az);
        }
        for (int i = 0; i < 3; ++i) {
            for (int q = 0; q < 3; ++q) {
                rf[i][q] = r[i][q] * f[i][q];
            }
        }
        const VEC rf9 = (((((rf[0][2] + rf[1][1]) + rf[2][0]) + rf[0][0])
                          + rf[2][2])
                         + (((rf[1][2] + rf[2][1]) + rf[0][1]) + rf[1][0]))
                        + 0.0;
        const VEC a = rf9 - EINSUM_SUM3(r_ax[0] * f_ax[0], r_ax[1] * f_ax[1],
                                        r_ax[2] * f_ax[2]);
        for (int q = 0; q < 3; ++q) {
            cx[q] = r[1][q] * f[2][q] - r[2][q] * f[1][q];
            cy[q] = r[2][q] * f[0][q] - r[0][q] * f[2][q];
            cz[q] = r[0][q] * f[1][q] - r[1][q] * f[0][q];
        }
        const VEC b = (ax * REDUCE_SUM3(cx[0], cx[1], cx[2])
                       + ay * REDUCE_SUM3(cy[0], cy[1], cy[2]))
                      + az * REDUCE_SUM3(cz[0], cz[1], cz[2]);
        STORE(terms + m, ax);
        STORE(terms + stride + m, ay);
        STORE(terms + 2 * stride + m, az);
        STORE(terms + 3 * stride + m, squared);
        STORE(terms + 4 * stride + m, a);
        STORE(terms + 5 * stride + m, b);
    }
    pivot_terms_scalar(planes, rows, width, m, k, b_idx, c_idx, anchors,
                       terms, stride);
}

/* rotate_tail_scalar on LANES members at a time, the scalar form on
   the last k % LANES.  Each block's rotating flags become lane masks
   once, before its rows. */
__attribute__((target(TARGET))) static void
TIER(rotate_tail)(double *planes, long rows, long width, long k,
                  long b_idx, long move_start, const double *terms,
                  long stride, const double *c, const double *s,
                  const unsigned char *rotating)
{
    const long plane = rows * width;
    const double *ox = planes + b_idx * width;
    const double *oy = ox + plane;
    const double *oz = oy + plane;
    const long end = k / LANES * LANES;
    long long keep[BLOCK];
    for (long b0 = 0; b0 < end; b0 += BLOCK) {
        const long b1 = b0 + BLOCK < end ? b0 + BLOCK : end;
        for (long m = b0; m < b1; ++m) {
            keep[m - b0] = rotating[m] ? -1 : 0;
        }
        for (long row = move_start; row < rows; ++row) {
            double *px = planes + row * width;
            double *py = px + plane;
            double *pz = py + plane;
            for (long m = b0; m < b1; m += LANES) {
                VEC kx, ky, kz, cm, sm, qx, qy, qz, x0, y0, z0;
                MASK mask;
                LOAD(kx, terms + m);
                LOAD(ky, terms + stride + m);
                LOAD(kz, terms + 2 * stride + m);
                LOAD(cm, c + m);
                LOAD(sm, s + m);
                LOAD(qx, ox + m);
                LOAD(qy, oy + m);
                LOAD(qz, oz + m);
                LOAD(x0, px + m);
                LOAD(y0, py + m);
                LOAD(z0, pz + m);
                LOAD(mask, keep + (m - b0));
                const VEC x = x0 - qx;
                const VEC y = y0 - qy;
                const VEC z = z0 - qz;
                const VEC t = ((x * kx + y * ky) + z * kz) * (1.0 - cm);
                const VEC nx = ((x * cm + (ky * z - kz * y) * sm) + kx * t) + qx;
                const VEC ny = ((y * cm + (kz * x - kx * z) * sm) + ky * t) + qy;
                const VEC nz = ((z * cm + (kx * y - ky * x) * sm) + kz * t) + qz;
                const VEC outx = SELECT(mask, nx, x0);
                const VEC outy = SELECT(mask, ny, y0);
                const VEC outz = SELECT(mask, nz, z0);
                STORE(px + m, outx);
                STORE(py + m, outy);
                STORE(pz + m, outz);
            }
        }
    }
    rotate_tail_scalar(planes, rows, width, end, k, b_idx, move_start, terms,
                       stride, c, s, rotating);
}

/* place() on LANES members at a time: each lane runs its operations
   in its order (sqrt lane by lane). */
__attribute__((target(TARGET))) static inline void
TIER(unit3)(VEC v[3])
{
    const VEC squared = EINSUM_SUM3(v[0] * v[0], v[1] * v[1], v[2] * v[2]);
    VEC norm;
    for (int l = 0; l < LANES; ++l) {
        norm[l] = sqrt(squared[l]);
    }
    const VEC one = (VEC){0.0} + 1.0;
    const VEC safe = SELECT((MASK)(norm < EPS), one, norm);
    for (int i = 0; i < 3; ++i) {
        v[i] = v[i] / safe;
    }
}

__attribute__((target(TARGET))) static inline void
TIER(place)(const VEC a[3], const VEC b[3], const VEC c[3],
            const double *bond, const VEC *cos_t, const VEC *sin_t,
            VEC d[3])
{
    VEC bc[3], ab[3], n[3], m[3];
    for (int i = 0; i < 3; ++i) {
        bc[i] = c[i] - b[i];
        ab[i] = b[i] - a[i];
    }
    TIER(unit3)(bc);
    CROSS3(ab, bc, n);
    TIER(unit3)(n);
    CROSS3(n, bc, m);
    const VEC d1 = bond[1] * *cos_t;
    const VEC d2 = bond[2] * *sin_t;
    for (int i = 0; i < 3; ++i) {
        d[i] = ((c[i] + bond[0] * bc[i]) + d1 * m[i]) + d2 * n[i];
    }
}

/* build_planes_scalar on LANES members at a time, the scalar form on
   the last width % LANES.  Each lane gathers its member's cosines and
   sines; the placed atoms of LANES adjacent columns store as one
   vector. */
__attribute__((target(TARGET))) static void
TIER(build_planes)(double *planes, long n, long width, const long *members,
                   const double *cos_t, const double *sin_t,
                   const double *n_anchor, const double *bonds)
{
    const long rows = 4 * n + 3;
    const long cols = 3 * n + 2;
    long m = 0;
    for (; m + LANES <= width; m += LANES) {
        const double *c[LANES], *s[LANES];
        for (int l = 0; l < LANES; ++l) {
            c[l] = cos_t + members[m + l] * cols;
            s[l] = sin_t + members[m + l] * cols;
        }
        VEC prev_c[3], n_i[3], ca_i[3], c_i[3], o_i[3], n_next[3], ca_next[3];
        for (int i = 0; i < 3; ++i) {
            prev_c[i] = (VEC){0.0} + n_anchor[i];
            n_i[i] = (VEC){0.0} + n_anchor[3 + i];
            ca_i[i] = (VEC){0.0} + n_anchor[6 + i];
        }
#define ANGLE(t, col) \
    for (int l = 0; l < LANES; ++l) { \
        t##_c[l] = c[l][col]; \
        t##_s[l] = s[l][col]; \
    }
#define PUT(row, atom) \
    for (int xyz = 0; xyz < 3; ++xyz) { \
        STORE(planes + (xyz * rows + (row)) * width + m, atom[xyz]); \
    }
        VEC phi_c, phi_s, o_c, o_s, psi_c, psi_s, omega_c, omega_s;
        ANGLE(omega, 3 * n)
        for (long i = 0; i < n; ++i) {
            ANGLE(phi, i)
            ANGLE(o, n + i)
            ANGLE(psi, 2 * n + i)
            TIER(place)(prev_c, n_i, ca_i, bonds, &phi_c, &phi_s, c_i);
            TIER(place)(n_i, ca_i, c_i, bonds + 3, &o_c, &o_s, o_i);
            TIER(place)(n_i, ca_i, c_i, bonds + 6, &psi_c, &psi_s, n_next);
            TIER(place)(ca_i, c_i, n_next, bonds + 9, &omega_c, &omega_s,
                        ca_next);
            PUT(4 * i, n_i)
            PUT(4 * i + 1, ca_i)
            PUT(4 * i + 2, c_i)
            PUT(4 * i + 3, o_i)
            for (int j = 0; j < 3; ++j) {
                prev_c[j] = c_i[j];
                n_i[j] = n_next[j];
                ca_i[j] = ca_next[j];
            }
        }
        ANGLE(phi, 3 * n + 1)
        TIER(place)(prev_c, n_i, ca_i, bonds, &phi_c, &phi_s, c_i);
        PUT(4 * n, n_i)
        PUT(4 * n + 1, ca_i)
        PUT(4 * n + 2, c_i)
#undef PUT
#undef ANGLE
    }
    build_planes_scalar(planes, n, width, m, members, cos_t, sin_t, n_anchor,
                        bonds);
}

/* dihedral_terms_of on LANES members at a time. */
__attribute__((target(TARGET))) static inline void
TIER(dihedral_terms_of)(const VEC a[3], const VEC b[3], const VEC c[3],
                        const VEC d[3], VEC *x, VEC *y)
{
    VEC b1[3], b2[3], b3[3], n1[3], n2[3], b2n[3], m1[3];
    for (int i = 0; i < 3; ++i) {
        b1[i] = b[i] - a[i];
        b2[i] = c[i] - b[i];
        b3[i] = d[i] - c[i];
        b2n[i] = b2[i];
    }
    CROSS3(b1, b2, n1);
    CROSS3(b2, b3, n2);
    TIER(unit3)(b2n);
    CROSS3(n1, b2n, m1);
    *x = EINSUM_SUM3(n1[0] * n2[0], n1[1] * n2[1], n1[2] * n2[2]);
    *y = EINSUM_SUM3(m1[0] * n2[0], m1[1] * n2[1], m1[2] * n2[2]);
}

/* dihedral_terms_scalar on LANES members at a time, the scalar form on
   the last count % LANES: each lane gathers its member's atoms, and the
   terms of LANES adjacent members store as one vector. */
__attribute__((target(TARGET))) static void
TIER(dihedral_terms)(const double *chain, long n, long count,
                     const long *members, const double *n_anchor, double *x,
                     double *y)
{
    const long rows = 4 * n + 3;
    long m = 0;
    for (; m + LANES <= count; m += LANES) {
        const double *atoms[LANES];
        for (int l = 0; l < LANES; ++l) {
            atoms[l] = chain + members[m + l] * rows * 3;
        }
#define GATHER(v, row) \
    for (int xyz = 0; xyz < 3; ++xyz) { \
        for (int l = 0; l < LANES; ++l) { \
            v[xyz][l] = atoms[l][(row) * 3 + xyz]; \
        } \
    }
        VEC prev_c[3], n_i[3], ca_i[3], c_i[3], next_n[3], tx, ty;
        for (int xyz = 0; xyz < 3; ++xyz) {
            prev_c[xyz] = (VEC){0.0} + n_anchor[xyz];
        }
        GATHER(n_i, 0)
        for (long i = 0; i < n; ++i) {
            GATHER(ca_i, 4 * i + 1)
            GATHER(c_i, 4 * i + 2)
            GATHER(next_n, 4 * i + 4)
            TIER(dihedral_terms_of)(prev_c, n_i, ca_i, c_i, &tx, &ty);
            STORE(x + 2 * i * count + m, tx);
            STORE(y + 2 * i * count + m, ty);
            TIER(dihedral_terms_of)(n_i, ca_i, c_i, next_n, &tx, &ty);
            STORE(x + (2 * i + 1) * count + m, tx);
            STORE(y + (2 * i + 1) * count + m, ty);
            for (int xyz = 0; xyz < 3; ++xyz) {
                prev_c[xyz] = c_i[xyz];
                n_i[xyz] = next_n[xyz];
            }
        }
#undef GATHER
    }
    dihedral_terms_scalar(chain, n, count, m, members, n_anchor, x, y);
}

#undef SELECT
#undef MASK
#undef VEC
"""

#: The x86 tiers of :data:`_LANE_PASSES`: name, target attribute, lanes.
_TIERS = (("avx512", "avx512f", 8), ("avx2", "avx2", 4))


def _tier_source(tier: str, target: str, lanes: int) -> str:
    """:data:`_LANE_PASSES` in the names of one tier."""
    return (
        f'#define TIER(name) name##_{tier}\n#define TARGET "{target}"\n'
        f"#define LANES {lanes}\n{_LANE_PASSES}"
        "#undef LANES\n#undef TARGET\n#undef TIER\n"
    )


SOURCE = r"""
#include <limits.h>
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <string.h>

/* ---- CCD: the passes of each pivot ---- */

#define EPS 1e-12
#define CAT_(a, b) a##b
#define CAT(a, b) CAT_(a, b)
/* Members per block of rotate_tail: the block's axes, angles and
   origins stay in L1 while its rows are rotated. */
#define BLOCK 512

/* geometry.vectors.einsum_sum3: t0 + t1 + t2 as np.einsum adds it. */
#define EINSUM_SUM3(t0, t1, t2) ((((t0) + (t2)) + (t1)) + 0.0)
/* geometry.vectors.reduce_sum3: t0 + t1 + t2 as .sum(axis=1) adds it. */
#define REDUCE_SUM3(t0, t1, t2) ((((t0) + (t1)) + (t2)) + 0.0)

/* The pivot terms of members [m0, k) of the (3, rows, width) planes,
   one member at a time.  Writes six rows of `terms` (row stride
   `stride`): the unit axis (x, y, z), the raw axis's squared norm, and
   the alignment terms a, b of the closure atoms (the last three plane
   rows) against `anchors`, (3 atoms, 3 coordinates) row-major. */
static void pivot_terms_scalar(const double *planes, long rows, long width,
                               long m0, long k, long b_idx, long c_idx,
                               const double *anchors, double *terms,
                               long stride)
{
    const long plane = rows * width;
    const double *closure = planes + (rows - 3) * width;
    for (long m = m0; m < k; ++m) {
        double o[3], raw[3], r[3][3], f[3][3], r_ax[3], f_ax[3];
        double rf[3][3], cx[3], cy[3], cz[3];
        for (int i = 0; i < 3; ++i) {
            o[i] = planes[i * plane + b_idx * width + m];
            raw[i] = planes[i * plane + c_idx * width + m] - o[i];
        }
        /* rotation._normalize_last_axis */
        const double squared = EINSUM_SUM3(raw[0] * raw[0], raw[1] * raw[1],
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
            r_ax[q] = EINSUM_SUM3(r[0][q] * ax, r[1][q] * ay, r[2][q] * az);
            f_ax[q] = EINSUM_SUM3(f[0][q] * ax, f[1][q] * ay, f[2][q] * az);
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
        const double a = rf9 - EINSUM_SUM3(r_ax[0] * f_ax[0],
                                           r_ax[1] * f_ax[1],
                                           r_ax[2] * f_ax[2]);
        for (int q = 0; q < 3; ++q) {
            cx[q] = r[1][q] * f[2][q] - r[2][q] * f[1][q];
            cy[q] = r[2][q] * f[0][q] - r[0][q] * f[2][q];
            cz[q] = r[0][q] * f[1][q] - r[1][q] * f[0][q];
        }
        const double b = (ax * REDUCE_SUM3(cx[0], cx[1], cx[2])
                          + ay * REDUCE_SUM3(cy[0], cy[1], cy[2]))
                         + az * REDUCE_SUM3(cz[0], cz[1], cz[2]);
        terms[m] = ax;
        terms[stride + m] = ay;
        terms[2 * stride + m] = az;
        terms[3 * stride + m] = squared;
        terms[4 * stride + m] = a;
        terms[5 * stride + m] = b;
    }
}

/* Rodrigues rotation of rows [move_start, rows) of members [m0, k)
   about each member's unit axis (rows 0-2 of `terms`) through the
   origin row b_idx, by the angle whose cosine and sine are c, s, one
   member at a time.  Members with rotating[m] == 0 are left
   untouched. */
static void rotate_tail_scalar(double *planes, long rows, long width,
                               long m0, long k, long b_idx, long move_start,
                               const double *terms, long stride,
                               const double *c, const double *s,
                               const unsigned char *rotating)
{
    const long plane = rows * width;
    const double *ox = planes + b_idx * width;
    const double *oy = ox + plane;
    const double *oz = oy + plane;
    for (long b0 = m0; b0 < k; b0 += BLOCK) {
        const long b1 = b0 + BLOCK < k ? b0 + BLOCK : k;
        for (long row = move_start; row < rows; ++row) {
            double *px = planes + row * width;
            double *py = px + plane;
            double *pz = py + plane;
            for (long m = b0; m < b1; ++m) {
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

/* ---- CCD: the chain build and the torsion re-measure, one member at a
   time ---- */

/* rotation._normalize_last_axis of one 3-vector, in place. */
static void unit3(double v[3])
{
    const double norm = sqrt(EINSUM_SUM3(v[0] * v[0], v[1] * v[1],
                                         v[2] * v[2]));
    const double safe = norm < EPS ? 1.0 : norm;
    for (int i = 0; i < 3; ++i) {
        v[i] = v[i] / safe;
    }
}

/* np.cross of two 3-vectors, on doubles or on lanes. */
#define CROSS3(a, b, out) \
    do { \
        (out)[0] = (a)[1] * (b)[2] - (a)[2] * (b)[1]; \
        (out)[1] = (a)[2] * (b)[0] - (a)[0] * (b)[2]; \
        (out)[2] = (a)[0] * (b)[1] - (a)[1] * (b)[0]; \
    } while (0)

/* nerf._place_atoms of one member: atom d from a, b, c and the torsion
   whose cosine and sine are cos_t, sin_t.  bond holds the Python
   scalars (-length * cos(angle), length * sin(angle),
   -length * sin(angle)). */
static void place(const double a[3], const double b[3], const double c[3],
                  const double *bond, double cos_t, double sin_t, double d[3])
{
    double bc[3], ab[3], n[3], m[3];
    for (int i = 0; i < 3; ++i) {
        bc[i] = c[i] - b[i];
        ab[i] = b[i] - a[i];
    }
    unit3(bc);
    CROSS3(ab, bc, n);
    unit3(n);
    CROSS3(n, bc, m);
    const double d1 = bond[1] * cos_t;
    const double d2 = bond[2] * sin_t;
    for (int i = 0; i < 3; ++i) {
        d[i] = ((c[i] + bond[0] * bc[i]) + d1 * m[i]) + d2 * n[i];
    }
}

/* `atom` into row `row` of column m of the (3, rows, width) planes. */
static void put_atom(double *planes, long rows, long width, long m, long row,
                     const double atom[3])
{
    for (int i = 0; i < 3; ++i) {
        planes[(i * rows + row) * width + m] = atom[i];
    }
}

/* nerf._build_backbone_chain of the members members[m0..width) of an
   n-residue loop into the (3, 4n + 3, width) planes, member m in column
   m: rows N, CA, C, O per residue, then the closure atoms.  Member p
   reads row p of the (P, 3n + 2) cosines and sines of its angles
   [phi_1..phi_n | psi_i + pi | psi_i | omega | end_phi].  n_anchor is
   (C_prev, N_1, CA_1) row-major; bonds holds place()'s three scalars
   for the CA-C, C-O, C-N and N-CA bonds, in that order. */
static void build_planes_scalar(double *planes, long n, long width, long m0,
                                const long *members, const double *cos_t,
                                const double *sin_t, const double *n_anchor,
                                const double *bonds)
{
    const long rows = 4 * n + 3;
    const long cols = 3 * n + 2;
    for (long m = m0; m < width; ++m) {
        const double *c = cos_t + members[m] * cols;
        const double *s = sin_t + members[m] * cols;
        double prev_c[3], n_i[3], ca_i[3], c_i[3], o_i[3], n_next[3];
        double ca_next[3];
        memcpy(prev_c, n_anchor, sizeof(prev_c));
        memcpy(n_i, n_anchor + 3, sizeof(n_i));
        memcpy(ca_i, n_anchor + 6, sizeof(ca_i));
        for (long i = 0; i < n; ++i) {
            place(prev_c, n_i, ca_i, bonds, c[i], s[i], c_i);
            place(n_i, ca_i, c_i, bonds + 3, c[n + i], s[n + i], o_i);
            place(n_i, ca_i, c_i, bonds + 6, c[2 * n + i], s[2 * n + i],
                  n_next);
            place(ca_i, c_i, n_next, bonds + 9, c[3 * n], s[3 * n], ca_next);
            put_atom(planes, rows, width, m, 4 * i, n_i);
            put_atom(planes, rows, width, m, 4 * i + 1, ca_i);
            put_atom(planes, rows, width, m, 4 * i + 2, c_i);
            put_atom(planes, rows, width, m, 4 * i + 3, o_i);
            memcpy(prev_c, c_i, sizeof(prev_c));
            memcpy(n_i, n_next, sizeof(n_i));
            memcpy(ca_i, ca_next, sizeof(ca_i));
        }
        place(prev_c, n_i, ca_i, bonds, c[3 * n + 1], s[3 * n + 1], c_i);
        put_atom(planes, rows, width, m, 4 * n, n_i);
        put_atom(planes, rows, width, m, 4 * n + 1, ca_i);
        put_atom(planes, rows, width, m, 4 * n + 2, c_i);
    }
}

/* geometry.vectors.dihedral_angles_batch's (x, y) of the points a-d:
   arctan2(y, x) is the dihedral. */
static void dihedral_terms_of(const double *a, const double *b,
                              const double *c, const double *d, double *x,
                              double *y)
{
    double b1[3], b2[3], b3[3], n1[3], n2[3], b2n[3], m1[3];
    for (int i = 0; i < 3; ++i) {
        b1[i] = b[i] - a[i];
        b2[i] = c[i] - b[i];
        b3[i] = d[i] - c[i];
    }
    CROSS3(b1, b2, n1);
    CROSS3(b2, b3, n2);
    memcpy(b2n, b2, sizeof(b2n));
    unit3(b2n);
    CROSS3(n1, b2n, m1);
    *x = EINSUM_SUM3(n1[0] * n2[0], n1[1] * n2[1], n1[2] * n2[2]);
    *y = EINSUM_SUM3(m1[0] * n2[0], m1[1] * n2[1], m1[2] * n2[2]);
}

/* geometry.internal.backbone_torsions_batch's dihedral terms of the
   members members[m0..count) of an n-residue loop, read from their rows
   of the (P, 4n + 3, 3) chain: torsion 2i is phi_i (C_{i-1}, N_i, CA_i,
   C_i; C_0 is n_anchor's first row), 2i + 1 is psi_i (N_i, CA_i, C_i,
   N_{i+1}; N_{n+1} the first closure atom).  x and y are (2n, count)
   row-major: torsion j of member m at [j, m]. */
static void dihedral_terms_scalar(const double *chain, long n, long count,
                                  long m0, const long *members,
                                  const double *n_anchor, double *x,
                                  double *y)
{
    const long rows = 4 * n + 3;
    for (long m = m0; m < count; ++m) {
        const double *atoms = chain + members[m] * rows * 3;
        const double *prev_c = n_anchor;
        for (long i = 0; i < n; ++i) {
            const double *n_i = atoms + 4 * i * 3;
            const double *ca_i = n_i + 3;
            const double *c_i = n_i + 6;
            const double *next_n = n_i + 12;
            dihedral_terms_of(prev_c, n_i, ca_i, c_i, x + 2 * i * count + m,
                              y + 2 * i * count + m);
            dihedral_terms_of(n_i, ca_i, c_i, next_n,
                              x + (2 * i + 1) * count + m,
                              y + (2 * i + 1) * count + m);
            prev_c = c_i;
        }
    }
}

/* The same four passes on several members at once, in GNU C vector
   types, compiled once per x86 tier (the target attributes of
   _LANE_PASSES): 8 lanes on AVX-512F, 4 on AVX2.  Every lane runs the
   scalar form's + - * / in its order (sqrt lane by lane), so each
   lane's bits are the scalar form's; build_planes and dihedral_terms
   gather each lane's inputs and store LANES adjacent columns at once.  An excluded
   member's lane is computed and then dropped by a bitwise select, so
   the member keeps its coordinates verbatim.  No function takes or
   returns a vector (only pointers to them), so
   no vector crosses a call between tiers (nor draws GCC's -Wpsabi
   note).  The baseline x86 tier and other machines run the scalar
   form: 4 lanes emulated on SSE2 are slower than it. */
#ifndef LANE_TIERS
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define LANE_TIERS 1
#else
#define LANE_TIERS 0
#endif
#endif
#if LANE_TIERS
typedef double lanes8 __attribute__((vector_size(8 * sizeof(double))));
typedef long long mask8 __attribute__((vector_size(8 * sizeof(long long))));
typedef double lanes4 __attribute__((vector_size(4 * sizeof(double))));
typedef long long mask4 __attribute__((vector_size(4 * sizeof(long long))));
#define LOAD(v, p) memcpy(&(v), (p), sizeof(v))
#define STORE(p, v) memcpy((p), &(v), sizeof(v))
""" + "".join(_tier_source(*tier) for tier in _TIERS) + r"""#endif

/* The lane tiers: 0 scalar, 1 AVX2, 2 AVX-512F.  lane_tier() is the
   widest this host runs. */
int lane_tier(void)
{
#if LANE_TIERS
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) {
        return 2;
    }
    if (__builtin_cpu_supports("avx2")) {
        return 1;
    }
#endif
    return 0;
}

/* The pivot terms of members [0, k) on lane tier `tier` (at most
   lane_tier(); a wider one runs the widest the host has). */
void pivot_terms(int tier, const double *planes, long rows, long width,
                 long k, long b_idx, long c_idx, const double *anchors,
                 double *terms, long stride)
{
    const int host = lane_tier();
    switch (tier < host ? tier : host) {
#if LANE_TIERS
    case 2:
        pivot_terms_avx512(planes, rows, width, k, b_idx, c_idx, anchors,
                           terms, stride);
        return;
    case 1:
        pivot_terms_avx2(planes, rows, width, k, b_idx, c_idx, anchors,
                         terms, stride);
        return;
#endif
    default:
        pivot_terms_scalar(planes, rows, width, 0, k, b_idx, c_idx, anchors,
                           terms, stride);
    }
}

/* The masked sweep's exclusions of members [0, k), in place on their
   arctan2 angles: zero the angle where both alignment terms (rows 4, 5
   of `terms`) are below EPS, the squared axis norm (row 3) is below
   EPS * EPS or active[m] is 0, then set rotating[m] where
   |angle| > 1e-10.  Returns the number of rotating members. */
long exclude_angles(double *angles, const double *terms, long stride, long k,
                    const unsigned char *active, unsigned char *rotating)
{
    const double *squared = terms + 3 * stride;
    const double *a = terms + 4 * stride;
    const double *b = terms + 5 * stride;
    long count = 0;
    for (long m = 0; m < k; ++m) {
        if ((fabs(a[m]) < EPS && fabs(b[m]) < EPS) || squared[m] < EPS * EPS
            || !active[m]) {
            angles[m] = 0.0;
        }
        rotating[m] = fabs(angles[m]) > 1e-10;
        count += rotating[m];
    }
    return count;
}

/* The Rodrigues rotation of the pivot's tail rows for members [0, k) on
   lane tier `tier` (see pivot_terms); members with rotating[m] == 0
   keep their coordinates verbatim. */
void rotate_tail(int tier, double *planes, long rows, long width, long k,
                 long b_idx, long move_start, const double *terms,
                 long stride, const double *c, const double *s,
                 const unsigned char *rotating)
{
    const int host = lane_tier();
    switch (tier < host ? tier : host) {
#if LANE_TIERS
    case 2:
        rotate_tail_avx512(planes, rows, width, k, b_idx, move_start, terms,
                           stride, c, s, rotating);
        return;
    case 1:
        rotate_tail_avx2(planes, rows, width, k, b_idx, move_start, terms,
                         stride, c, s, rotating);
        return;
#endif
    default:
        rotate_tail_scalar(planes, rows, width, 0, k, b_idx, move_start,
                           terms, stride, c, s, rotating);
    }
}

/* Keep the columns of the (rows, width) row-major matrix whose
   keep[m] is 1, packed in order into a (rows, kept) row-major prefix
   of the same buffer; returns kept.  Every element is written to the
   next free slot, which advances only past kept ones (no branch on the
   mask).  That slot's index is never above the element's own, and every
   element before it has been read, so the copy never overwrites one it
   has yet to read. */
long compact_columns(double *matrix, long rows, long width,
                     const unsigned char *keep)
{
    long kept = 0;
    for (long m = 0; m < width; ++m) {
        kept += keep[m];
    }
    double *out = matrix;
    for (long row = 0; row < rows; ++row) {
        const double *in = matrix + row * width;
        for (long m = 0; m < width; ++m) {
            const double value = in[m];
            *out = value;
            out += keep[m];
        }
    }
    return kept;
}

/* The chain build of members [0, width) on lane tier `tier` (see
   pivot_terms). */
void build_planes(int tier, double *planes, long n, long width,
                  const long *members, const double *cos_t,
                  const double *sin_t, const double *n_anchor,
                  const double *bonds)
{
    const int host = lane_tier();
    switch (tier < host ? tier : host) {
#if LANE_TIERS
    case 2:
        build_planes_avx512(planes, n, width, members, cos_t, sin_t,
                            n_anchor, bonds);
        return;
    case 1:
        build_planes_avx2(planes, n, width, members, cos_t, sin_t, n_anchor,
                          bonds);
        return;
#endif
    default:
        build_planes_scalar(planes, n, width, 0, members, cos_t, sin_t,
                            n_anchor, bonds);
    }
}

/* The dihedral terms of members [0, count) on lane tier `tier` (see
   pivot_terms). */
void dihedral_terms(int tier, const double *chain, long n, long count,
                    const long *members, const double *n_anchor, double *x,
                    double *y)
{
    const int host = lane_tier();
    switch (tier < host ? tier : host) {
#if LANE_TIERS
    case 2:
        dihedral_terms_avx512(chain, n, count, members, n_anchor, x, y);
        return;
    case 1:
        dihedral_terms_avx2(chain, n, count, members, n_anchor, x, y);
        return;
#endif
    default:
        dihedral_terms_scalar(chain, n, count, 0, members, n_anchor, x, y);
    }
}

/* ---- CCD: the closure check and write-back ---- */

/* Column m of the (3, rows, width) planes into row `member` of the
   (P, rows, 3) chain. */
static void write_column(const double *planes, long rows, long width, long m,
                         long member, double *chain)
{
    double *out = chain + member * rows * 3;
    for (long row = 0; row < rows; ++row) {
        for (int i = 0; i < 3; ++i) {
            out[row * 3 + i] = planes[(i * rows + row) * width + m];
        }
    }
}

/* write_column of every column m whose mask[m] is set, into row
   members[m]. */
void write_columns(const double *planes, long rows, long width,
                   const unsigned char *mask, const long *members,
                   double *chain)
{
    for (long m = 0; m < width; ++m) {
        if (mask[m]) {
            write_column(planes, rows, width, m, members[m], chain);
        }
    }
}

/* The closure check after `sweeps` sweeps, for every column m of the
   planes whose active[m] is set: geometry.rmsd.coordinate_rmsd_batch
   of the closure atoms (the last three rows) against the (3 atoms,
   3 coordinates) anchors, each atom's squared distance summed and the
   three averaged as .sum(-1) and np.mean add them, into
   errors[members[m]].  A member within tolerance converged after
   `sweeps`; one no longer above it (NaN included) leaves: its active[m]
   is cleared and its column written to the chain.  Returns the number
   of columns still active. */
long check_closure(const double *planes, long rows, long width,
                   const double *anchors, unsigned char *active,
                   const long *members, double tolerance, long sweeps,
                   double *errors, long *converged_at, double *chain)
{
    const double *closure = planes + (rows - 3) * width;
    const long plane = rows * width;
    long live = 0;
    for (long m = 0; m < width; ++m) {
        if (!active[m]) {
            continue;
        }
        double atom[3];
        for (int q = 0; q < 3; ++q) {
            double d[3];
            for (int i = 0; i < 3; ++i) {
                d[i] = closure[i * plane + q * width + m] - anchors[q * 3 + i];
            }
            atom[q] = REDUCE_SUM3(d[0] * d[0], d[1] * d[1], d[2] * d[2]);
        }
        const double error = sqrt(REDUCE_SUM3(atom[0], atom[1], atom[2]) / 3.0);
        errors[members[m]] = error;
        if (error <= tolerance) {
            converged_at[members[m]] = sweeps;
        }
        if (error > tolerance) {
            ++live;
        } else {
            active[m] = 0;
            write_column(planes, rows, width, m, members[m], chain);
        }
    }
    return live;
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
    return EINSUM_SUM3(dx * dx, dy * dy, dz * dz);
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

/* ---- Dominance: one call per score set ---- */

/* Whether row a of k scores dominates row b: no greater in every
   column and smaller in one.  Each column tests !(a <= b), so a NaN on
   either side fails it, as in numpy's all(a <= b): a NaN row neither
   dominates nor is dominated. */
static int dominates(const double *a, const double *b, long k)
{
    int smaller = 0;
    for (long j = 0; j < k; ++j) {
        if (!(a[j] <= b[j])) {
            return 0;
        }
        smaller |= a[j] < b[j];
    }
    return smaller;
}

/* The front of the n rows of scores ((n, k), C order).  The rows are
   visited in the lexicographic `order`, in which every row sorts after
   all of its dominators, so a row is on the front when no front member
   found before it dominates it.  Sets is_front[i] to 0 or 1 for every
   row, writes the front's rows in that order to `front` and returns
   their number F. */
static long front_filter(const double *scores, long n, long k,
                         const long *order, unsigned char *is_front,
                         long *front)
{
    long size = 0;
    for (long r = 0; r < n; ++r) {
        const long i = order[r];
        long j = 0;
        while (j < size && !dominates(scores + front[j] * k, scores + i * k, k)) {
            ++j;
        }
        is_front[i] = j == size;
        if (j == size) {
            front[size++] = i;
        }
    }
    return size;
}

/* The F front members' integer domination counts over the dominated
   rows (a front member dominates no front member). */
static void front_counts(const double *scores, long n, long k,
                         const unsigned char *is_front, const long *front,
                         long f, long *counts)
{
    for (long j = 0; j < f; ++j) {
        counts[j] = 0;
    }
    for (long i = 0; i < n; ++i) {
        if (is_front[i]) {
            continue;
        }
        for (long j = 0; j < f; ++j) {
            counts[j] += dominates(scores + front[j] * k, scores + i * k, k);
        }
    }
}

/* The sum of the counts of the front members that dominate `row`, and
   through *dominated whether any does. */
static long dominator_sum(const double *scores, long k, const long *front,
                          long f, const long *counts, const double *row,
                          int *dominated)
{
    long sum = 0;
    *dominated = 0;
    for (long j = 0; j < f; ++j) {
        if (dominates(scores + front[j] * k, row, k)) {
            sum += counts[j];
            *dominated = 1;
        }
    }
    return sum;
}

/* dominance.non_dominated_mask: is_front of the front filter.  `front`
   is n longs of work space. */
void non_dominated_mask(const double *scores, long n, long k,
                        const long *order, unsigned char *is_front,
                        long *front)
{
    front_filter(scores, n, k, order, is_front, front);
}

/* dominance.strength_fitness, Eq. (1): a front member's fitness is its
   count over n, a dominated row's is 1 plus its front dominators'
   count sum over n; one division each, of integers converted exactly.
   is_front, front and counts are n entries of work space. */
void strength_fitness(const double *scores, long n, long k,
                      const long *order, unsigned char *is_front,
                      long *front, long *counts, double *fitness)
{
    const long f = front_filter(scores, n, k, order, is_front, front);
    front_counts(scores, n, k, is_front, front, f, counts);
    for (long j = 0; j < f; ++j) {
        fitness[front[j]] = (double)counts[j] / (double)n;
    }
    for (long i = 0; i < n; ++i) {
        if (!is_front[i]) {
            int dominated;
            const long sum = dominator_sum(scores, k, front, f, counts,
                                           scores + i * k, &dominated);
            fitness[i] = 1.0 + (double)sum / (double)n;
        }
    }
}

/* dominance.fitness_against: the q rows of queries ((q, k), C order)
   scored independently against the n reference rows of scores.  A
   query some front member dominates gets 1 plus its dominators' count
   sum over n; any other query its own count over all n reference rows,
   over n. */
void fitness_against(const double *scores, long n, long k,
                     const long *order, unsigned char *is_front,
                     long *front, long *counts, const double *queries,
                     long q, double *fitness)
{
    const long f = front_filter(scores, n, k, order, is_front, front);
    front_counts(scores, n, k, is_front, front, f, counts);
    for (long p = 0; p < q; ++p) {
        const double *query = queries + p * k;
        int dominated;
        const long sum = dominator_sum(scores, k, front, f, counts, query,
                                       &dominated);
        if (dominated) {
            fitness[p] = 1.0 + (double)sum / (double)n;
        } else {
            long count = 0;
            for (long i = 0; i < n; ++i) {
                count += dominates(query, scores + i * k, k);
            }
            fitness[p] = (double)count / (double)n;
        }
    }
}

/* ---- Host draws: numpy's own samplers on the caller's generator ---- */

/* numpy/random/bitgen.h and three samplers of numpy/random/distributions.h,
   linked from numpy's libnpyrandom.a (the header itself includes
   Python.h). */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

double random_standard_uniform(bitgen_t *bitgen_state);
double random_normal(bitgen_t *bitgen_state, double loc, double scale);
uint64_t random_bounded_uint64(bitgen_t *bitgen_state, uint64_t off,
                               uint64_t rng, uint64_t mask, bool use_masked);

#define PI 3.141592653589793
#define TWO_PI (2.0 * PI)

/* geometry.vectors.wrap_angle of one angle. */
static double wrap(double angle)
{
    const double wrapped = angle - TWO_PI * floor((angle + PI) / TWO_PI);
    return wrapped <= -PI ? wrapped + TWO_PI : wrapped;
}

/* The basin tables of a sequence: residue i's cumulative weights are
   cdf[offset[i] .. offset[i] + size[i]) and basin b's
   (phi_mean, psi_mean, phi_sigma, psi_sigma) is row offset[i] + b of
   params ((rows, 4), C order). */
struct basins {
    const long *offset;
    const long *size;
    const double *cdf;
    const double *params;
};

/* cdf.searchsorted(u, side="right") on a sorted table: the count of
   entries <= u. */
static long basin_of(const struct basins *t, long i, double u)
{
    const double *cdf = t->cdf + t->offset[i];
    long count = 0;
    for (long b = 0; b < t->size[i]; ++b) {
        count += cdf[b] <= u;
    }
    return count;
}

/* The (phi, psi) draw of residue i from basin b into pair[0..1]. */
static void draw_pair(bitgen_t *bg, const struct basins *t, long i, long b,
                      double *pair)
{
    const double *p = t->params + 4 * (t->offset[i] + b);
    pair[0] = wrap(random_normal(bg, p[0], p[2]));
    pair[1] = wrap(random_normal(bg, p[1], p[3]));
}

/* `rows` torsion rows ((rows, 2n), C order) of the n-residue sequence
   described by offset/size, drawn one row after another, residue by
   residue: a residue re-uses its predecessor's basin when a uniform
   falls below `smoothness`, else draws one from its table. */
void sample_rows(bitgen_t *bg, long rows, long n, const long *offset,
                 const long *size, const double *cdf, const double *params,
                 double smoothness, double *out)
{
    const struct basins t = {offset, size, cdf, params};
    for (long r = 0; r < rows; ++r) {
        double *row = out + r * 2 * n;
        long prev = -1;
        for (long i = 0; i < n; ++i) {
            long b;
            if (prev >= 0 && prev < size[i]
                && random_standard_uniform(bg) < smoothness) {
                b = prev;
            } else {
                b = basin_of(&t, i, random_standard_uniform(bg));
            }
            draw_pair(bg, &t, i, b, row + 2 * i);
            prev = b;
        }
    }
}

/* The smallest all-ones mask covering v (numpy's _gen_mask). */
static uint64_t bit_smear(uint64_t v)
{
    v |= v >> 1;
    v |= v >> 2;
    v |= v >> 4;
    v |= v >> 8;
    v |= v >> 16;
    v |= v >> 32;
    return v;
}

/* Generator.choice(pop, k, replace=False) into idx[0..k): numpy's
   Floyd branch (pop <= 10,000), a linear-probing set of 1 + mask slots
   in `slots`, then its shuffle. */
void choose(bitgen_t *bg, uint64_t pop, uint64_t k, uint64_t *slots,
                   int64_t *idx)
{
    const uint64_t empty = UINT64_MAX;
    const uint64_t mask = bit_smear((uint64_t)(1.2 * (double)k));
    for (uint64_t s = 0; s <= mask; ++s) {
        slots[s] = empty;
    }
    for (uint64_t j = pop - k; j < pop; ++j) {
        const uint64_t val = random_bounded_uint64(bg, 0, j, 0, 0);
        uint64_t loc = val & mask;
        while (slots[loc] != empty && slots[loc] != val) {
            loc = (loc + 1) & mask;
        }
        if (slots[loc] == empty) {
            slots[loc] = val;
            idx[j - pop + k] = (int64_t)val;
        } else {
            loc = j & mask;
            while (slots[loc] != empty) {
                loc = (loc + 1) & mask;
            }
            slots[loc] = j;
            idx[j - pop + k] = (int64_t)j;
        }
    }
    for (int64_t i = (int64_t)k - 1; i >= 1; --i) {
        const uint64_t j = random_bounded_uint64(bg, 0, (uint64_t)i, 0, 0);
        const int64_t held = idx[j];
        idx[j] = idx[i];
        idx[i] = held;
    }
}

/* One mutation proposal per member of the (members, 2n) torsions into
   `out`, and its CCD start into `starts`: a uniform below `hop` redraws
   max(1, angles / 2) distinct residues from their basins, else `angles`
   distinct torsions move by normal(0, sigma) and are wrapped.  The
   start is the torsion after the last one moved, at most 2n - 1.
   `slots` holds 1 + bit_smear(1.2 * angles) entries, `idx` angles. */
void mutate_rows(bitgen_t *bg, long members, long n, const double *torsions,
                 const long *offset, const long *size, const double *cdf,
                 const double *params, long angles, double sigma, double hop,
                 uint64_t *slots, int64_t *idx, double *out, long *starts)
{
    const struct basins t = {offset, size, cdf, params};
    const long width = 2 * n;
    for (long m = 0; m < members; ++m) {
        const double *src = torsions + m * width;
        double *dst = out + m * width;
        int64_t last = 0;
        memcpy(dst, src, (size_t)width * sizeof(double));
        if (random_standard_uniform(bg) < hop) {
            const long k = angles / 2 > 1 ? angles / 2 : 1;
            choose(bg, (uint64_t)n, (uint64_t)k, slots, idx);
            for (long r = 0; r < k; ++r) {
                const long i = (long)idx[r];
                draw_pair(bg, &t, i, basin_of(&t, i, random_standard_uniform(bg)),
                          dst + 2 * i);
                last = idx[r] > last ? idx[r] : last;
            }
            last = 2 * last + 1;
        } else {
            choose(bg, (uint64_t)width, (uint64_t)angles, slots, idx);
            for (long r = 0; r < angles; ++r) {
                dst[idx[r]] = wrap(src[idx[r]] + random_normal(bg, 0.0, sigma));
                last = idx[r] > last ? idx[r] : last;
            }
        }
        starts[m] = last + 1 < width - 1 ? (long)last + 1 : width - 1;
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


def _archive() -> Path:
    """numpy's static sampler library, which the host draws link."""
    return Path(np.random.__file__).with_name("lib") / "libnpyrandom.a"


def _compiler_identity(compiler: List[str]) -> str:
    """The compiler argv and its driver's resolved path, size and
    ``mtime_ns``: a compiler upgrade replaces the driver, and no process
    is started to ask for its version."""
    driver = shutil.which(compiler[0])
    if driver is None:
        raise OSError(f"no compiler {compiler[0]!r}")
    resolved = Path(driver).resolve()
    stat = resolved.stat()
    return f"{shlex.join(compiler)}\0{resolved}\0{stat.st_size}\0{stat.st_mtime_ns}"


def _library_name(compiler: List[str]) -> str:
    """The file name: sha256 of the source, flags, compiler identity,
    machine, numpy version and numpy's sampler archive, so any change to
    one of them builds a new library."""
    archive = hashlib.sha256(_archive().read_bytes()).hexdigest()
    digest = hashlib.sha256()
    for part in (
        SOURCE, " ".join(FLAGS), _compiler_identity(compiler), os.uname().machine,
        np.__version__, archive,
    ):
        digest.update(part.encode() + b"\0")
    return f"kernels-{digest.hexdigest()}.so"


def _compile(compiler: List[str], path: Path) -> None:
    """Compile :data:`SOURCE` into the shared library ``path``, linked
    against numpy's sampler archive."""
    subprocess.run(
        [
            *compiler, *FLAGS, "-x", "c", "-", "-o", str(path),
            f"-L{_archive().parent}", "-lnpyrandom", "-lm",
        ],
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
    if not _archive().is_file():
        raise OSError(f"numpy ships no {_archive().name}")
    path = Path(directory) / _library_name(compiler)
    if not path.exists():
        atomic_write(path, lambda tmp: _compile(compiler, tmp))
    return path


def _load(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    ptr, size = ctypes.c_void_p, ctypes.c_long
    tier = ctypes.c_int
    lib.lane_tier.argtypes = []
    lib.lane_tier.restype = tier
    lib.pivot_terms.argtypes = [
        tier, ptr, size, size, size, size, size, ptr, ptr, size
    ]
    lib.pivot_terms.restype = None
    lib.exclude_angles.argtypes = [ptr, ptr, size, size, ptr, ptr]
    lib.exclude_angles.restype = size
    lib.rotate_tail.argtypes = [
        tier, ptr, size, size, size, size, size, ptr, size, ptr, ptr, ptr
    ]
    lib.rotate_tail.restype = None
    lib.compact_columns.argtypes = [ptr, size, size, ptr]
    lib.compact_columns.restype = size
    real = ctypes.c_double
    lib.build_planes.argtypes = [tier, ptr, size, size, ptr, ptr, ptr, ptr, ptr]
    lib.build_planes.restype = None
    lib.write_columns.argtypes = [ptr, size, size, ptr, ptr, ptr]
    lib.write_columns.restype = None
    lib.check_closure.argtypes = [
        ptr, size, size, ptr, ptr, ptr, real, size, ptr, ptr, ptr
    ]
    lib.check_closure.restype = size
    lib.dihedral_terms.argtypes = [tier, ptr, size, size, ptr, ptr, ptr, ptr]
    lib.dihedral_terms.restype = None
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
    lib.non_dominated_mask.argtypes = [ptr, size, size, ptr, ptr, ptr]
    lib.non_dominated_mask.restype = None
    lib.strength_fitness.argtypes = [ptr, size, size, ptr, ptr, ptr, ptr, ptr]
    lib.strength_fitness.restype = None
    lib.fitness_against.argtypes = [
        ptr, size, size, ptr, ptr, ptr, ptr, ptr, size, ptr
    ]
    lib.fitness_against.restype = None
    lib.sample_rows.argtypes = [ptr, size, size, ptr, ptr, ptr, ptr, real, ptr]
    lib.sample_rows.restype = None
    lib.mutate_rows.argtypes = [
        ptr, size, size, ptr, ptr, ptr, ptr, ptr, size, real, real, ptr, ptr, ptr, ptr
    ]
    lib.mutate_rows.restype = None
    lib.choose.argtypes = [ptr, ctypes.c_uint64, ctypes.c_uint64, ptr, ptr]
    lib.choose.restype = None
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
    compiler works or numpy ships no sampler archive (logged once)."""
    global _library
    with _lock:
        if _library is _UNSET:
            try:
                _library = _build_and_load(Path(__file__).with_name("__pycache__"))
            except (OSError, subprocess.CalledProcessError) as error:
                detail = getattr(error, "stderr", None) or error
                _LOG.warning(
                    "the kernels cannot be compiled (%s); they run their numpy forms",
                    detail,
                )
                _library = None
        return _library  # type: ignore[return-value]


def draw_library(rng: np.random.Generator) -> Optional[ctypes.CDLL]:
    """:func:`library` when its host draws can stand in for ``rng``'s
    methods: ``None`` for a ``Generator`` subclass, which may override
    them, so only the numpy forms call them."""
    return library() if type(rng) is np.random.Generator else None


@contextmanager
def bit_generator(rng: np.random.Generator) -> Iterator[int]:
    """The address of ``rng``'s ``bitgen_t``, its lock held, as numpy
    holds it around each of its own draws."""
    bits = rng.bit_generator
    with bits.lock:
        yield bits.ctypes.bit_generator.value
