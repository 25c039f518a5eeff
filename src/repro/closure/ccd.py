"""Cyclic Coordinate Descent loop closure (scalar and batched).

For each pivot torsion (phi rotates about the N-CA bond, psi about the
CA-C bond) CCD computes, in closed form, the rotation angle that minimises
the summed squared distance between the three *moving* end atoms
(``N_{n+1}``, ``CA_{n+1}``, ``C_{n+1}`` as built from the current loop) and
their *fixed* anchor positions, then applies that rotation to every atom
downstream of the pivot.  Sweeps repeat until the closure RMSD drops below
tolerance or the iteration budget is exhausted.

Because the rotations are applied directly to Cartesian coordinates, the
final torsion vector is re-measured from the closed coordinates — the
round-trip property of :mod:`repro.geometry` guarantees the two
representations stay consistent.

The batched kernel has two execution paths that compute the same bits:

* **Atom-major** (the default, ``kernels=None``; the ``gpu`` backend's
  path).  The chain of the members still converging is carried as three
  coordinate planes of shape ``(n*4+3, K)``, member index innermost, as
  the paper's one-thread-per-member ``[CCD]`` kernel lays it out.  Members
  are stable-sorted by start index once per call, so the members a pivot
  may move are a column prefix, and a member leaves the planes when it
  converges.  Each pivot is two compiled passes over the planes
  (:mod:`repro.native`): ``pivot_terms`` computes every member's
  axis, squared norm and alignment terms ``(a, b)``, and ``rotate_tail``
  applies the Rodrigues rotation in place to the rows the pivot moves,
  skipping the members whose angle is excluded.  ``arctan2``, ``cos``,
  ``sin`` and the exclusion masks run in numpy between the two.  The C
  spells every expression out in the order of the masked kernel's numpy
  (:func:`~repro.geometry.vectors.einsum_sum3` and its siblings, the
  Rodrigues tree of
  :func:`~repro.geometry.rotation._rotate_points_about_axes`), so both
  paths agree bit for bit.  The live members are split into strided
  stripes of the start-sorted order, one per member thread
  (:func:`~repro.scoring.pairwise.map_members`), each swept on its own
  planes and written back to its own rows; the compiled passes release
  the GIL.  A stripe is never smaller than :data:`_MIN_STRIPE` members,
  below which the per-pivot numpy calls outweigh the second core.  When
  no C compiler works, this path runs the masked sweep on the numpy
  bundle instead (logged once), which gives the same bits.
* **Masked** (a :class:`~repro.xp.dispatch.KernelBundle` is supplied).
  Each sweep runs the generic :func:`_ccd_sweep` kernel over the
  member-major ``(P, n*4+3, 3)`` chain: every member is swept, and
  excluded members get a ``0.0`` angle and keep their original
  coordinates through a ``where`` selection.  Every array shape stays
  static, which lets the jax tier compile one sweep of the whole
  population as one ``jit`` unit; an eager namespace (the ``xp``
  backend's numpy) calls it on blocks of members instead.  Its sweeps
  run on the calling thread.

Both paths re-measure the closed torsions in contiguous blocks over the
member threads.

The member-major subset path the atom-major one replaced, and the numpy
atom-major sweep the compiled passes replaced, are kept in the test-only
oracle ``tests/ccd_oracle.py``.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro import constants
from repro import native
from repro.geometry.internal import backbone_torsions, backbone_torsions_batch
from repro.geometry.rmsd import coordinate_rmsd, coordinate_rmsd_batch
from repro.geometry.rotation import (
    _normalize_last_axis,
    _rotate_points_about_axes,
    rotate_about_axis,
)
from repro.geometry.vectors import einsum_sum3
from repro.loops.loop import LoopTarget
from repro.scoring.pairwise import (
    _rotation_alignment_terms,
    map_blocks,
    map_members,
    member_threads,
    population_blocks,
)
from repro.xp.dispatch import array_kernel, numpy_kernels

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.xp.dispatch import KernelBundle

__all__ = ["CCDResult", "ccd_close", "ccd_close_batch"]

_EPS = 1e-12
_ATOMS = constants.BACKBONE_ATOMS_PER_RESIDUE
#: Members per masked-sweep call on an eager (numpy) namespace.  At
#: population 15,360 on the same host, 512-member blocks sweep ~1.5x
#: faster than the whole population at once, whose member-major
#: temporaries spill the cache; 128-member blocks gain only ~1.3x, as
#: each block pays the sweep's ~1,000 numpy calls again.
_EAGER_BLOCK = 512
#: Fewest live members per stripe of the threaded compiled path.  The
#: compiled passes run without the GIL, but each stripe still pays the
#: sweep's per-pivot numpy calls (``arctan2``, ``cos``, ``sin``, the
#: exclusion masks) under it, so on the 2-vCPU host above two stripes gain
#: from ~2,500 live members on.  Step-shaped calls (1cex(40:51) mutation
#: proposals, median of 5 alternating runs), 1 vs 2 threads:
#:
#: ===========  ========  =========  =====
#: live         1 thread  2 threads  ratio
#: ===========  ========  =========  =====
#: 511          0.037 s   0.077 s    0.49x
#: 2,046        0.103 s   0.101 s    1.02x
#: 2,558        0.123 s   0.112 s    1.10x
#: 4,094        0.182 s   0.142 s    1.29x
#: 5,118        0.219 s   0.163 s    1.34x
#: 7,678        0.340 s   0.258 s    1.32x
#: 15,352       0.747 s   0.426 s    1.75x
#: ===========  ========  =========  =====
_MIN_STRIPE = 1280
#: The closure atoms: the last three rows of the flattened chain.
_CLOSURE = slice(-3, None)


@dataclass
class CCDResult:
    """Outcome of a CCD closure call.

    Attributes
    ----------
    torsions:
        Closed torsion vector(s): ``(2n,)`` for the scalar call, ``(P, 2n)``
        for the batched call.
    coords:
        Closed loop coordinates, ``(n, 4, 3)`` or ``(P, n, 4, 3)``.
    closure:
        Built closure atoms, ``(3, 3)`` or ``(P, 3, 3)``.
    closure_error:
        Final closure RMSD (scalar or ``(P,)``).
    iterations:
        Number of CCD sweeps executed (scalar or ``(P,)``; for the batched
        call every member reports the sweep at which it converged, or the
        sweep budget if it never did).
    """

    torsions: np.ndarray
    coords: np.ndarray
    closure: np.ndarray
    closure_error: np.ndarray
    iterations: np.ndarray


def _pivot_indices(j: int) -> Tuple[int, int, int]:
    """Map torsion index ``j`` to (axis atom B, axis atom C, first moving atom).

    Indices are into the flattened per-conformation atom array of
    ``n * 4 + 3`` rows (N, CA, C, O per residue, then the three closure
    atoms).  Even ``j`` is a phi torsion of residue ``i = j // 2`` (axis
    N_i -> CA_i, moving atoms start at C_i); odd ``j`` is the psi torsion
    (axis CA_i -> C_i, moving atoms start at O_i).
    """
    i = j // 2
    if j % 2 == 0:
        return i * _ATOMS + 0, i * _ATOMS + 1, i * _ATOMS + 2
    return i * _ATOMS + 1, i * _ATOMS + 2, i * _ATOMS + 3


def _optimal_angle(
    end_atoms: np.ndarray, targets: np.ndarray, origin: np.ndarray, axis: np.ndarray
) -> float:
    """Closed-form optimal CCD rotation angle for one conformation.

    Uses the expanded forms ``r_perp . f_perp = r.f - (r.axis)(f.axis)`` and
    ``(axis x r_perp) . f_perp = axis . (r x f)``, which need no
    perpendicular-component vectors.
    """
    a = 0.0
    b = 0.0
    for k in range(end_atoms.shape[0]):
        r = end_atoms[k] - origin
        f = targets[k] - origin
        a += np.dot(r, f) - np.dot(r, axis) * np.dot(f, axis)
        b += np.dot(axis, np.cross(r, f))
    if abs(a) < _EPS and abs(b) < _EPS:
        return 0.0
    return float(np.arctan2(b, a))


def ccd_close(
    torsions: np.ndarray,
    target: LoopTarget,
    start_index: int = 0,
    max_iterations: int = 30,
    tolerance: float = 0.25,
) -> CCDResult:
    """Close a single loop conformation with CCD (scalar reference version).

    Parameters
    ----------
    torsions:
        ``(2n,)`` torsion vector of the open conformation.
    target:
        The loop target supplying anchors and geometry.
    start_index:
        First torsion index CCD is allowed to adjust.  The paper starts CCD
        at the torsion immediately following the mutated ones, leaving the
        freshly mutated angles untouched.
    max_iterations:
        Maximum number of CCD sweeps.
    tolerance:
        Closure RMSD (A) below which the loop counts as closed.
    """
    torsions = np.asarray(torsions, dtype=np.float64)
    n = target.n_residues
    if torsions.shape != (2 * n,):
        raise ValueError(f"torsions must have shape ({2 * n},)")
    if not (0 <= start_index < 2 * n):
        raise ValueError("start_index out of range")

    coords, closure = target.build(torsions)
    moving = np.concatenate([coords.reshape(-1, 3), closure])  # (n*4+3, 3)
    anchors = target.c_anchor

    error = coordinate_rmsd(moving[-3:], anchors)
    sweeps = 0
    for sweep in range(max_iterations):
        if error <= tolerance:
            break
        sweeps = sweep + 1
        for j in range(start_index, 2 * n):
            b_idx, c_idx, move_start = _pivot_indices(j)
            origin = moving[b_idx]
            axis = moving[c_idx] - origin
            norm = np.linalg.norm(axis)
            if norm < _EPS:
                continue
            axis = axis / norm
            angle = _optimal_angle(moving[-3:], anchors, origin, axis)
            if abs(angle) < 1e-10:
                continue
            moving[move_start:] = rotate_about_axis(
                moving[move_start:], origin, axis, angle
            )
        error = coordinate_rmsd(moving[-3:], anchors)

    coords = moving[: n * _ATOMS].reshape(n, _ATOMS, 3)
    closure = moving[n * _ATOMS:]
    closed_torsions = backbone_torsions(coords, target.n_anchor, closure)
    return CCDResult(
        torsions=closed_torsions,
        coords=coords,
        closure=closure,
        closure_error=np.float64(error),
        iterations=np.int64(sweeps),
    )


@array_kernel("ccd_sweep", static_argnums=(4,))
def _ccd_sweep(xp, moving, anchors, start_indices, active, n_torsions):
    """One full CCD sweep over every pivot, masked, shapes static.

    ``moving`` is the ``(P, n*4+3, 3)`` flattened atom array; ``active``
    the ``(P,)`` mask of members still converging; ``n_torsions`` (static
    under jit) the pivot count ``2n``.  Members excluded by the mask, the
    per-member start indices, the noise guard or a degenerate pivot axis
    get a ``0.0`` angle and their original coordinates are re-selected
    after the rotation, so this computes bit-identical coordinates to the
    atom-major path of :func:`ccd_close_batch`.
    """
    for j in range(n_torsions):
        b_idx, c_idx, move_start = _pivot_indices(j)
        origins = moving[:, b_idx, :]
        raw_axes = moving[:, c_idx, :] - origins
        axes = _normalize_last_axis(xp, raw_axes)

        a, b = _rotation_alignment_terms(
            xp, moving[:, -3:, :], anchors, origins, axes
        )
        angles = xp.arctan2(b, a)
        # Same exclusions as the atom-major path, expressed as masks:
        # pivots before a member's mutation point, pure-noise gradient
        # terms, degenerate axes, converged members, sub-threshold angles.
        angles = xp.where(start_indices <= j, angles, 0.0)
        angles = xp.where((xp.abs(a) < _EPS) & (xp.abs(b) < _EPS), 0.0, angles)
        squared = einsum_sum3(
            raw_axes[:, 0] * raw_axes[:, 0],
            raw_axes[:, 1] * raw_axes[:, 1],
            raw_axes[:, 2] * raw_axes[:, 2],
        )
        angles = xp.where(squared < _EPS * _EPS, 0.0, angles)
        angles = xp.where(active, angles, 0.0)

        # Rotations below the angle threshold are discarded by selection,
        # not by rotating with a zero angle: ``(p - origin) + origin`` is
        # a lossy round trip, so excluded members must keep their original
        # coordinates verbatim for the sweep to match the atom-major path
        # bit for bit.
        rotating = xp.abs(angles) > 1e-10
        tail = moving[:, move_start:, :]
        rotated = _rotate_points_about_axes(
            xp, tail, origins, axes, angles, normalized=True
        )
        tail = xp.where(rotating[:, None, None], rotated, tail)
        moving = xp.concatenate((moving[:, :move_start, :], tail), axis=1)
    return moving


def _sweep_atom_major(
    planes: np.ndarray,
    starts: np.ndarray,
    anchors: np.ndarray,
    terms: np.ndarray,
    lib: ctypes.CDLL,
) -> None:
    """One CCD sweep over every pivot, in place on atom-major planes.

    ``planes`` is ``(3, n*4+3, K)`` C-contiguous: one member-innermost
    plane per coordinate for the ``K`` members still converging, sorted by
    their ``starts`` so the members a pivot may move are a column prefix.
    ``terms`` is ``(6, >= K)`` scratch for the compiled pivot terms.
    """
    _, rows, width = planes.shape
    stride = terms.shape[1]
    # The C indexes these buffers by the shapes it is given.
    if not all(
        array.dtype == np.float64 and array.flags.c_contiguous
        for array in (planes, anchors, terms)
    ) or anchors.shape != (3, 3) or terms.shape[0] != 6 or stride < width:
        raise ValueError("the compiled sweep takes C-contiguous float64 planes, "
                         "(3, 3) anchors and (6, >= K) terms")
    n_torsions = (rows - 3) // _ATOMS * 2
    prefixes = np.searchsorted(starts, np.arange(n_torsions), side="right")
    for j in range(n_torsions):
        k = int(prefixes[j])
        if k == 0:
            continue
        b_idx, c_idx, move_start = _pivot_indices(j)
        lib.pivot_terms(
            planes.ctypes.data, rows, width, k, b_idx, c_idx,
            anchors.ctypes.data, terms.ctypes.data, stride,
        )
        # The masked sweep's exclusions; the column prefix already applies
        # its start-index and converged masks.
        squared, a, b = terms[3:, :k]
        angles = np.arctan2(b, a)
        angles[((np.abs(a) < _EPS) & (np.abs(b) < _EPS)) | (squared < _EPS * _EPS)] = 0.0
        rotating = np.abs(angles) > 1e-10
        if not np.any(rotating):
            continue
        # Excluded members are skipped, not rotated by zero:
        # ``(p - origin) + origin`` is a lossy round trip.
        c = np.cos(angles)
        s = np.sin(angles)
        lib.rotate_tail(
            planes.ctypes.data, rows, width, k, b_idx, move_start,
            terms.ctypes.data, stride, c.ctypes.data, s.ctypes.data,
            rotating.ctypes.data,
        )


def _close_atom_major(
    moving: np.ndarray,
    anchors: np.ndarray,
    live: np.ndarray,
    start_indices: np.ndarray,
    errors: np.ndarray,
    converged_at: np.ndarray,
    max_iterations: int,
    tolerance: float,
    lib: ctypes.CDLL,
) -> None:
    """The compiled CCD sweeps of the members ``live``, updating only their
    rows of ``moving``, ``errors`` and ``converged_at`` in place.

    ``live`` lists members still converging, stable-sorted by start
    index; they are carried as atom-major planes and leave them (written
    back to ``moving``) as soon as they stop converging, since nothing
    moves them afterwards.
    """
    if max_iterations <= 0 or live.size == 0:
        return
    planes = np.ascontiguousarray(moving[live].T)  # (3, n*4+3, K)
    starts = start_indices[live]
    terms = np.empty((6, live.size))
    for sweep in range(max_iterations):
        _sweep_atom_major(planes, starts, anchors, terms, lib)
        swept = coordinate_rmsd_batch(planes[:, _CLOSURE, :].T, anchors)
        errors[live] = swept
        converged_at[live[swept <= tolerance]] = sweep + 1
        going = swept > tolerance
        if not np.all(going):
            moving[live[~going]] = planes[:, :, ~going].T
            live, starts = live[going], starts[going]
            planes = np.ascontiguousarray(planes[:, :, going])
            if live.size == 0:
                return
    moving[live] = planes.T


def _split(members: int) -> int:
    """Parts to split ``members`` into: one per member thread, but none
    smaller than :data:`_MIN_STRIPE`."""
    return max(1, min(member_threads(), members // _MIN_STRIPE))


def ccd_close_batch(
    torsions: np.ndarray,
    target: LoopTarget,
    start_indices: Optional[np.ndarray] = None,
    max_iterations: int = 30,
    tolerance: float = 0.25,
    kernels: Optional["KernelBundle"] = None,
) -> CCDResult:
    """Close a whole population with CCD in lock-step (batched version).

    This is the simulated analogue of the paper's ``[CCD]`` GPU kernel: each
    population member corresponds to one GPU thread, and every pivot update
    is applied to all members simultaneously as a vectorised operation.

    Parameters
    ----------
    torsions:
        ``(P, 2n)`` population torsions.
    target:
        The loop target supplying anchors and geometry.
    start_indices:
        Optional ``(P,)`` integer array: the first torsion index CCD may
        adjust for each member (mirroring the per-thread mutation points).
        Pivots below a member's start index leave that member unchanged.
    max_iterations:
        Maximum number of CCD sweeps.
    tolerance:
        Closure RMSD below which a member stops being updated.
    kernels:
        Optional :class:`~repro.xp.dispatch.KernelBundle`: sweeps run as
        the masked :func:`_ccd_sweep` kernel (one jit unit per sweep on a
        compiling namespace, blocks of members on an eager one) instead
        of the compiled atom-major path.  Both paths produce the same bits.
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
    # The built arrays are dead now; freed here, they do not add a chain
    # copy to the sweeps' peak memory.
    del coords, closure
    anchors = np.ascontiguousarray(target.c_anchor, dtype=np.float64)  # (3, 3)

    errors = coordinate_rmsd_batch(moving[:, -3:, :], anchors)
    converged_at = np.where(errors <= tolerance, 0, max_iterations).astype(np.int64)

    lib = native.library() if kernels is None else None
    if kernels is None and lib is None:
        # No compiler works: the masked sweep gives the same bits.
        kernels = numpy_kernels()
    if lib is not None:
        # Strided stripes of the start-sorted live set, one per member
        # thread: each stripe is start-sorted itself, gets an even share
        # of the converging members and sweeps its own planes.
        order = np.argsort(start_indices, kind="stable")
        live = order[errors[order] > tolerance]
        stripes = _split(live.size)
        map_members(
            lambda stripe: _close_atom_major(
                moving, anchors, live[stripe::stripes], start_indices,
                errors, converged_at, max_iterations, tolerance, lib,
            ),
            stripes,
        )
    else:
        # Members sweep independently, so an eager namespace sweeps them
        # in blocks; a compiling one sweeps the whole population as one
        # jit unit of one shape.
        block_size = pop if kernels.namespace.can_jit else _EAGER_BLOCK
        for sweep in range(max_iterations):
            active = errors > tolerance
            if not np.any(active):
                break
            for block in population_blocks(pop, block_size):
                moving[block] = kernels.to_numpy(
                    kernels.ccd_sweep(
                        moving[block],
                        anchors,
                        start_indices[block],
                        active[block],
                        2 * n,
                    )
                )
            errors = coordinate_rmsd_batch(moving[:, -3:, :], anchors)
            newly = (errors <= tolerance) & (converged_at == max_iterations)
            converged_at[newly] = sweep + 1

    coords = moving[:, : n * _ATOMS, :].reshape(pop, n, _ATOMS, 3)
    closure = moving[:, n * _ATOMS:, :]
    closed_torsions = np.empty((pop, 2 * n))

    def _measure(block: slice) -> None:
        closed_torsions[block] = backbone_torsions_batch(
            coords[block], target.n_anchor, closure[block]
        )

    map_blocks(_measure, pop, -(-pop // _split(pop)))
    return CCDResult(
        torsions=closed_torsions,
        coords=coords,
        closure=closure,
        closure_error=errors,
        iterations=converged_at,
    )
