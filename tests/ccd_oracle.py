"""Test-only oracle: the member-major subset-path CCD closure.

This is the ``kernels=None`` path of :func:`repro.closure.ccd.ccd_close_batch`
as it shipped before the atom-major rewrite, kept verbatim as the
reference the atom-major sweep must reproduce bit for bit
(``np.array_equal`` on every :class:`~repro.closure.ccd.CCDResult` field).
It carries the chain as one ``(P, n*4+3, 3)`` array, gathers the
still-converging members at every sweep, and rotates only the members
whose angle survives the exclusions.  The per-pivot math is the
``einsum`` normalisation and alignment terms the production kernels used
before they spelled their sums out (kept here verbatim, so the oracle
also checks that the explicit sums keep ``einsum``'s bits), and the same
``rotate_points_about_axes_batch`` wrapper as the production code.

:func:`sweep_atom_major` is the numpy atom-major sweep the compiled one
(:mod:`repro.native`) replaced, kept line for line: the C passes
must reproduce each of its plane operations bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.closure.ccd import _ATOMS, _EPS, CCDResult, _pivot_indices
from repro.geometry.internal import backbone_torsions_batch
from repro.geometry.rmsd import coordinate_rmsd_batch
from repro.geometry.rotation import rotate_points_about_axes_batch
from repro.geometry.vectors import einsum_sum3
from repro.loops.loop import LoopTarget
from repro.scoring.pairwise import _alignment_sums

#: Elements per rotation temporary of :func:`sweep_atom_major`.
_CHUNK = 32768


def normalize(v: np.ndarray) -> np.ndarray:
    """Unit-scale along the last axis with the ``einsum`` squared norm."""
    norm = np.sqrt(np.einsum("...i,...i->...", v, v))[..., None]
    return v / np.where(norm < _EPS, 1.0, norm)


def rotation_alignment_terms(points, targets, origins, axes):
    """The CCD alignment terms ``(a, b)`` as ``einsum`` / ``.sum``
    reductions over C-contiguous member-major rows."""
    points = np.ascontiguousarray(points)
    origins = np.ascontiguousarray(origins)
    axes = np.ascontiguousarray(axes)
    r = points - origins[:, None, :]
    f = targets[None, :, :] - origins[:, None, :]
    r_ax = np.einsum("pki,pi->pk", r, axes)
    f_ax = np.einsum("pki,pi->pk", f, axes)
    a = np.einsum("pki,pki->p", r, f) - np.einsum("pk,pk->p", r_ax, f_ax)
    cx = (r[:, :, 1] * f[:, :, 2] - r[:, :, 2] * f[:, :, 1]).sum(axis=1)
    cy = (r[:, :, 2] * f[:, :, 0] - r[:, :, 0] * f[:, :, 2]).sum(axis=1)
    cz = (r[:, :, 0] * f[:, :, 1] - r[:, :, 1] * f[:, :, 0]).sum(axis=1)
    b = axes[:, 0] * cx + axes[:, 1] * cy + axes[:, 2] * cz
    return a, b


def ccd_close_batch(
    torsions: np.ndarray,
    target: LoopTarget,
    start_indices: Optional[np.ndarray] = None,
    max_iterations: int = 30,
    tolerance: float = 0.25,
) -> CCDResult:
    """Close a whole population with CCD in lock-step (subset path).

    Parameters
    ----------
    torsions:
        ``(P, 2n)`` population torsions.
    target:
        The loop target supplying anchors and geometry.
    start_indices:
        Optional ``(P,)`` integer array: the first torsion index CCD may
        adjust for each member.  Pivots below a member's start index leave
        that member unchanged.
    max_iterations:
        Maximum number of CCD sweeps.
    tolerance:
        Closure RMSD below which a member stops being updated.
    """
    torsions = np.asarray(torsions, dtype=np.float64)
    n = target.n_residues
    if torsions.ndim != 2 or torsions.shape[1] != 2 * n:
        raise ValueError(f"torsions must have shape (P, {2 * n})")
    pop = torsions.shape[0]

    if start_indices is None:
        start_indices = np.zeros(pop, dtype=np.int64)
    else:
        start_indices = np.asarray(start_indices, dtype=np.int64)
        if start_indices.shape != (pop,):
            raise ValueError("start_indices must have shape (P,)")
        if np.any((start_indices < 0) | (start_indices >= 2 * n)):
            raise ValueError("start_indices out of range")

    coords, closure = target.build_batch(torsions)
    moving = np.concatenate(
        [coords.reshape(pop, -1, 3), closure], axis=1
    )  # (P, n*4+3, 3)
    anchors = target.c_anchor  # (3, 3)

    errors = coordinate_rmsd_batch(moving[:, -3:, :], anchors)
    converged_at = np.where(errors <= tolerance, 0, max_iterations).astype(np.int64)

    for sweep in range(max_iterations):
        active = errors > tolerance
        if not np.any(active):
            break
        # Converged members are excluded from the whole sweep, not just the
        # rotations: all per-pivot math runs on the active subset only, so
        # the cost of a sweep shrinks as the population closes (matching
        # the scalar kernel, whose converged members simply stop sweeping).
        subset = not np.all(active)
        if subset:
            rows = np.where(active)[0]
            sub = moving[rows]
            sub_starts = start_indices[rows]
        else:
            sub = moving
            sub_starts = start_indices
        for j in range(2 * n):
            b_idx, c_idx, move_start = _pivot_indices(j)
            origins = sub[:, b_idx, :]
            raw_axes = sub[:, c_idx, :] - origins
            axes = normalize(raw_axes)

            # The per-pivot math is the shared pairwise engine's
            # gather-and-reduce primitive (the same expanded perpendicular
            # products _optimal_angle evaluates per member).
            a, b = rotation_alignment_terms(
                sub[:, -3:, :], anchors, origins, axes
            )
            angles = np.arctan2(b, a)
            # Members whose mutation point is after this pivot keep it
            # fixed, as do members whose gradient terms are pure noise and
            # members with a degenerate (zero-length) pivot axis — the
            # scalar kernel skips the latter with its `norm < _EPS` guard,
            # and rotating about a near-zero axis would scale the tail.
            angles = np.where(sub_starts <= j, angles, 0.0)
            angles = np.where((np.abs(a) < _EPS) & (np.abs(b) < _EPS), 0.0, angles)
            angles = np.where(
                np.einsum("pi,pi->p", raw_axes, raw_axes) < _EPS * _EPS, 0.0, angles
            )
            rotating = np.abs(angles) > 1e-10
            if not np.any(rotating):
                continue
            if np.all(rotating):
                sub[:, move_start:, :] = rotate_points_about_axes_batch(
                    sub[:, move_start:, :], origins, axes, angles, normalized=True
                )
            else:
                # Only rotate the members that actually move instead of
                # paying for identity rotations.
                move = np.where(rotating)[0]
                sub[move, move_start:, :] = rotate_points_about_axes_batch(
                    sub[move, move_start:, :],
                    origins[move],
                    axes[move],
                    angles[move],
                    normalized=True,
                )
        if subset:
            moving[rows] = sub

        errors = coordinate_rmsd_batch(moving[:, -3:, :], anchors)
        newly = (errors <= tolerance) & (converged_at == max_iterations)
        converged_at[newly] = sweep + 1

    coords = moving[:, : n * _ATOMS, :].reshape(pop, n, _ATOMS, 3)
    closure = moving[:, n * _ATOMS:, :]
    closed_torsions = backbone_torsions_batch(coords, target.n_anchor, closure)
    return CCDResult(
        torsions=closed_torsions,
        coords=coords,
        closure=closure,
        closure_error=errors,
        iterations=converged_at,
    )


def sweep_atom_major(
    planes: np.ndarray, starts: np.ndarray, anchors: np.ndarray
) -> None:
    """One CCD sweep over every pivot, in place on atom-major planes.

    ``planes`` is ``(3, n*4+3, K)``: one member-innermost plane per
    coordinate for the ``K`` members still converging, sorted by their
    ``starts`` so the members a pivot may move are a column prefix.
    """
    buffers = np.empty((5, max(_CHUNK, planes.shape[2])))
    n_torsions = (planes.shape[1] - 3) // _ATOMS * 2
    prefixes = np.searchsorted(starts, np.arange(n_torsions), side="right")
    for j in range(n_torsions):
        k = int(prefixes[j])
        if k == 0:
            continue
        b_idx, c_idx, move_start = _pivot_indices(j)
        origin = planes[:, b_idx, :k]
        # The masked sweep's ``_normalize_last_axis`` and degenerate-axis
        # test, on ``(3, k)`` rows: one squared norm serves both.
        raw = planes[:, c_idx, :k] - origin
        squared = einsum_sum3(raw[0] * raw[0], raw[1] * raw[1], raw[2] * raw[2])
        norm = np.sqrt(squared)
        axes = raw / np.where(norm < _EPS, 1.0, norm)
        a, b = _alignment_sums(
            planes[:, -3:, :k] - origin[:, None, :],
            anchors.T[:, :, None] - origin[:, None, :],
            axes,
        )
        # The masked sweep's exclusions; the column prefix already applies
        # its start-index and converged masks.
        angles = np.arctan2(b, a)
        angles[((np.abs(a) < _EPS) & (np.abs(b) < _EPS)) | (squared < _EPS * _EPS)] = 0.0
        rotating = np.abs(angles) > 1e-10
        if not np.any(rotating):
            continue

        tail = planes[:, move_start:, :k]
        # Excluded members keep their coordinates verbatim: they are
        # rotated with the rest and put back from a saved copy, because
        # ``(p - origin) + origin`` is a lossy round trip.
        still = np.flatnonzero(~rotating)
        saved = tail[:, :, still]

        # The Rodrigues expression tree of ``_rotate_points_about_axes``,
        # op for op (IEEE ``+``/``*`` commute bitwise, so ``out=`` may
        # swap operands), on ``(atoms, k)`` planes instead of
        # ``(k, atoms)`` rows, a few atom rows at a time so the
        # temporaries stay cache-resident.
        kx, ky, kz = axes
        c = np.cos(angles)
        s = np.sin(angles)
        one_minus_c = 1.0 - c
        rows = max(1, _CHUNK // k)
        for r0 in range(0, tail.shape[1], rows):
            chunk = tail[:, r0:r0 + rows]
            size = chunk.shape[1] * k
            x, y, z, t, u = (
                buf[:size].reshape(chunk.shape[1], k) for buf in buffers
            )
            np.subtract(chunk[0], origin[0], out=x)
            np.subtract(chunk[1], origin[1], out=y)
            np.subtract(chunk[2], origin[2], out=z)
            np.multiply(x, kx, out=t)
            t += np.multiply(y, ky, out=u)
            t += np.multiply(z, kz, out=u)
            t *= one_minus_c
            for out, p, q1, kq1, q2, kq2, kp, o in (
                (chunk[0], x, z, ky, y, kz, kx, origin[0]),
                (chunk[1], y, x, kz, z, kx, ky, origin[1]),
                (chunk[2], z, y, kx, x, ky, kz, origin[2]),
            ):
                # out = p c + (kq1 q1 - kq2 q2) s + kp t + o
                np.multiply(q1, kq1, out=u)
                u -= np.multiply(q2, kq2, out=out)
                u *= s
                np.multiply(p, c, out=out)
                out += u
                out += np.multiply(t, kp, out=u)
                out += o
        tail[:, :, still] = saved
