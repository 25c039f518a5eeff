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
  path).  The members are stable-sorted by start index once per call and
  split into strided stripes of that order, one per member thread
  (:func:`~repro.scoring.pairwise.map_members`).  Each stripe is one
  task, as the paper's one-thread-per-member ``[CCD]`` kernel runs a
  conformation from its chain build to its closed torsions, and every
  step of it is a compiled pass of :mod:`repro.native`, which releases
  the GIL:

  - ``build_planes`` places the stripe's chains straight into three
    coordinate planes of shape ``(n*4+3, K)``, member index innermost,
    from numpy's ``cos`` and ``sin`` of the call's angle matrix (one call
    each, before the split);
  - ``check_closure`` measures each member's closure RMSD on the planes;
    a member that stops converging (at build or after a sweep) is
    written to the ``(P, n*4+3, 3)`` chain the result views, and masked
    out of rotation;
  - each sweep's pivots are three passes around numpy's ``arctan2``,
    ``cos`` and ``sin``, which write into preallocated buffers:
    ``pivot_terms`` computes every member's axis, squared norm and
    alignment terms ``(a, b)``, ``exclude_angles`` zeroes the excluded
    angles (the masked-out members' included) in place and flags the
    rotating members, and ``rotate_tail`` applies the Rodrigues rotation
    in place to the rows the pivot moves, leaving the other members
    verbatim.  The start-sorted order makes the members a pivot may move
    a column prefix;
  - ``compact_columns`` packs the members still converging into a
    contiguous prefix of the planes once their count has fallen by
    :data:`_COMPACT_FRACTION`;
  - ``write_columns`` writes the members still converging after the
    last sweep, and ``dihedral_terms`` computes the ``(x, y)`` terms of
    every closed torsion from the chain, followed by one numpy
    ``arctan2`` per stripe.

  ``build_planes``, ``pivot_terms``, ``rotate_tail`` and
  ``dihedral_terms`` run on SIMD lanes across members on AVX-512F and
  AVX2 hosts, with the same bits as their scalar loops.  The C spells every expression out in the order of the
  numpy it stands for (:func:`~repro.geometry.vectors.einsum_sum3` and
  its siblings, ``np.cross``, the NeRF step of
  :func:`~repro.geometry.nerf._place_atoms`, the Rodrigues tree of
  :func:`~repro.geometry.rotation._rotate_points_about_axes`,
  :func:`~repro.geometry.rmsd.coordinate_rmsd_batch` and
  :func:`~repro.geometry.vectors.dihedral_angles_batch`), so both paths
  agree bit for bit; each column is swept independently, so no
  partition into stripes moves a bit.  Only the per-pivot ``arctan2``,
  ``cos`` and ``sin``, the angle matrix's ``cos``/``sin`` and the
  re-measure's ``arctan2`` stay in numpy.  A stripe is never smaller than
  :data:`_MIN_STRIPE` members, below which the per-pivot numpy calls
  outweigh the second core.  When no C compiler works, this path runs
  the masked route on the numpy bundle instead (logged once), which
  gives the same bits.
* **Masked** (a :class:`~repro.xp.dispatch.KernelBundle` is supplied).
  The chain is built by ``target.build_batch``, and each sweep runs the
  generic :func:`_ccd_sweep` kernel over the member-major
  ``(P, n*4+3, 3)`` chain: every member is swept, and excluded members
  get a ``0.0`` angle and keep their original coordinates through a
  ``where`` selection.  Every array shape stays static, which lets the
  jax tier compile one sweep of the whole population as one ``jit``
  unit; an eager namespace (the ``xp`` backend's numpy) calls it on
  blocks of members instead.  Its sweeps run on the calling thread, and
  it re-measures the closed torsions with
  :func:`~repro.geometry.internal.backbone_torsions_batch` in contiguous
  blocks over the member threads.

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
from repro.geometry.nerf import _C_N, _C_O, _CA_C, _N_CA
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
#: Fewest members per stripe of the threaded compiled path.  The compiled
#: passes run without the GIL, but each stripe still pays the sweep's
#: per-pivot numpy calls (``arctan2``, ``cos``, ``sin``) under it, so on
#: the 2-vCPU host above two stripes gain only from ~3,000-5,000 members
#: on.  Step-shaped calls (1cex(40:51) mutation proposals of a closed
#: population, median of 7 alternating runs), 1 vs 2 threads, each stripe
#: building, sweeping and re-measuring its own members, on a host whose
#: second vCPU was shared (two threads of independent numpy work ran
#: 1.0-2.0x as fast as one during the runs; a run on a busier host put
#: the crossover between 4,096 and 5,120 members, so the split point of
#: 4,096 stays):
#:
#: ===========  ========  =========  =====
#: members      1 thread  2 threads  ratio
#: ===========  ========  =========  =====
#: 512          0.024 s   0.047 s    0.50x
#: 2,048        0.062 s   0.072 s    0.85x
#: 2,560        0.073 s   0.076 s    0.96x
#: 3,072        0.085 s   0.079 s    1.07x
#: 4,096        0.111 s   0.095 s    1.17x
#: 5,120        0.138 s   0.106 s    1.31x
#: 7,680        0.200 s   0.134 s    1.50x
#: 15,360       0.397 s   0.237 s    1.68x
#: ===========  ========  =========  =====
_MIN_STRIPE = 2048
#: Fall in a stripe's live count, as a fraction of its planes' width,
#: at which the compiled path compacts the planes.  Until then the
#: members that left stay in place, masked out of rotation.  A
#: compaction costs about a fifth of a sweep; of 0 (every sweep), 1/16,
#: 1/8 and 1/4, 1/16 gave the fastest pop-7,680 calls.
_COMPACT_FRACTION = 0.0625
#: The scalars ``(-length * cos(angle), length * sin(angle),
#: -length * sin(angle))`` of ``nerf._place_atoms`` for the four bonds
#: the chain build places, in ``build_planes``' order.
_BONDS = np.array([(d0, s, -s) for d0, s in (_CA_C, _C_O, _C_N, _N_CA)])


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
    scratch: np.ndarray,
    lib: ctypes.CDLL,
    active: np.ndarray,
) -> None:
    """One CCD sweep over every pivot, in place on atom-major planes.

    ``planes`` is ``(3, n*4+3, K)`` C-contiguous: one member-innermost
    plane per coordinate for ``K`` members, sorted by their ``starts`` so
    the members a pivot may move are a column prefix.  ``scratch`` is
    ``(9, >= K)``: the six compiled pivot-term rows, then the angles,
    their cosines and their sines.  ``active`` is the ``(K,)`` ``uint8``
    mask of the members still converging; the others keep their
    coordinates verbatim.
    """
    _, rows, width = planes.shape
    stride = scratch.shape[1]
    # The C indexes these buffers by the shapes it is given.
    if not all(
        array.dtype == np.float64 and array.flags.c_contiguous
        for array in (planes, anchors, scratch)
    ) or anchors.shape != (3, 3) or scratch.shape[0] != 9 or stride < width or (
        active.dtype != np.uint8 or active.shape != (width,)
    ):
        raise ValueError("the compiled sweep takes C-contiguous float64 planes, "
                         "(3, 3) anchors, (9, >= K) scratch and a (K,) uint8 mask")
    tier = lib.lane_tier()
    a, b, angles, c, s = scratch[4:]
    rotating = np.empty(width, dtype=np.uint8)
    data, terms, fixed = planes.ctypes.data, scratch.ctypes.data, anchors.ctypes.data
    angle_data, cos_data, sin_data = (row.ctypes.data for row in (angles, c, s))
    active_data, rotating_data = active.ctypes.data, rotating.ctypes.data
    n_torsions = (rows - 3) // _ATOMS * 2
    prefixes = np.searchsorted(starts, np.arange(n_torsions), side="right")
    for j, k in enumerate(prefixes.tolist()):
        if k == 0:
            continue
        b_idx, c_idx, move_start = _pivot_indices(j)
        lib.pivot_terms(
            tier, data, rows, width, k, b_idx, c_idx, fixed, terms, stride
        )
        # The masked sweep's exclusions, in place on the angles; the
        # column prefix already applies its start-index mask.
        np.arctan2(b[:k], a[:k], out=angles[:k])
        if lib.exclude_angles(
            angle_data, terms, stride, k, active_data, rotating_data
        ) == 0:
            continue
        # Excluded members keep their coordinates (skipped, or dropped
        # by a select on the lanes), not rotated by zero:
        # ``(p - origin) + origin`` is a lossy round trip.
        np.cos(angles[:k], out=c[:k])
        np.sin(angles[:k], out=s[:k])
        lib.rotate_tail(
            tier, data, rows, width, k, b_idx, move_start, terms, stride,
            cos_data, sin_data, rotating_data,
        )


@dataclass
class _Call:
    """What every stripe of one compiled ``ccd_close_batch`` call shares:
    its inputs, and the ``(P, ...)`` outputs each stripe writes only its
    own rows of."""

    n: int
    cos_t: np.ndarray  # (P, 3n+2) cosines of the chain's angles
    sin_t: np.ndarray
    n_anchor: np.ndarray  # (3, 3)
    anchors: np.ndarray  # (3, 3), the C-terminal anchor
    bonds: np.ndarray  # (4, 3), ``place``'s scalars of the four bonds
    start_indices: np.ndarray
    max_iterations: int
    tolerance: float
    chain: np.ndarray  # (P, n*4+3, 3)
    errors: np.ndarray
    converged_at: np.ndarray
    torsions: np.ndarray  # (P, 2n), the closed torsions


def _build_planes(call: _Call, members: np.ndarray, lib: ctypes.CDLL) -> np.ndarray:
    """The ``(3, n*4+3, K)`` atom-major chains of the ``K`` ``members``
    (C-contiguous ``int64``), built by the compiled ``build_planes``."""
    planes = np.empty((3, call.n * _ATOMS + 3, members.size))
    lib.build_planes(
        lib.lane_tier(), planes.ctypes.data, call.n, members.size,
        members.ctypes.data,
        call.cos_t.ctypes.data, call.sin_t.ctypes.data,
        call.n_anchor.ctypes.data, call.bonds.ctypes.data,
    )
    return planes


def _close_stripe(call: _Call, members: np.ndarray, lib: ctypes.CDLL) -> None:
    """Close the start-sorted ``members``, writing only their rows of the
    call's outputs.

    Their chains are built straight into atom-major planes and checked
    for closure; the members still converging are swept, and a member
    that stops converging is written to the chain and masked out of
    rotation.  The planes are compacted only once the live count has
    fallen by :data:`_COMPACT_FRACTION`.  Last, the closed torsions are
    re-measured from the chain.
    """
    members = np.ascontiguousarray(members, dtype=np.int64)
    planes = buffer = _build_planes(call, members, lib)
    _, rows, width = planes.shape
    active = np.ones(width, dtype=np.uint8)

    def check_closure(sweeps: int) -> int:
        return lib.check_closure(
            planes.ctypes.data, rows, planes.shape[2], call.anchors.ctypes.data,
            active.ctypes.data, members.ctypes.data, call.tolerance, sweeps,
            call.errors.ctypes.data, call.converged_at.ctypes.data,
            call.chain.ctypes.data,
        )

    live = check_closure(0)
    swept, starts = members, call.start_indices[members]
    scratch = np.empty((9, width))
    for sweep in range(call.max_iterations):
        if live == 0:
            break
        if live <= (1.0 - _COMPACT_FRACTION) * planes.shape[2]:
            lib.compact_columns(
                planes.ctypes.data, 3 * rows, planes.shape[2], active.ctypes.data
            )
            keep = active.view(bool)
            members, starts = members[keep], starts[keep]
            planes = buffer.reshape(-1)[: 3 * rows * live].reshape(3, rows, live)
            active = np.ones(live, dtype=np.uint8)
        _sweep_atom_major(planes, starts, call.anchors, scratch, lib, active)
        live = check_closure(sweep + 1)
    lib.write_columns(
        planes.ctypes.data, rows, planes.shape[2], active.ctypes.data,
        members.ctypes.data, call.chain.ctypes.data,
    )
    del planes, buffer, scratch
    x = np.empty((2 * call.n, swept.size))
    y = np.empty_like(x)
    lib.dihedral_terms(
        lib.lane_tier(), call.chain.ctypes.data, call.n, swept.size,
        swept.ctypes.data, call.n_anchor.ctypes.data, x.ctypes.data,
        y.ctypes.data,
    )
    call.torsions[swept] = np.arctan2(y, x).T


def _new_call(
    torsions: np.ndarray,
    target: LoopTarget,
    start_indices: np.ndarray,
    max_iterations: int,
    tolerance: float,
) -> _Call:
    """The shared inputs and empty outputs of one compiled call."""
    pop, two_n = torsions.shape
    n = two_n // 2
    # The angles of nerf._build_backbone_chain's placements, one column
    # each: phi (C), psi + pi (O), psi (N), omega (CA), then end_phi.
    angles = np.empty((pop, 3 * n + 2))
    angles[:, :n] = torsions[:, 0::2]
    np.add(torsions[:, 1::2], np.pi, out=angles[:, n:2 * n])
    angles[:, 2 * n:3 * n] = torsions[:, 1::2]
    angles[:, 3 * n] = constants.OMEGA_TRANS
    angles[:, 3 * n + 1] = target.end_phi
    return _Call(
        n=n,
        cos_t=np.cos(angles),
        sin_t=np.sin(angles),
        n_anchor=np.ascontiguousarray(target.n_anchor, dtype=np.float64),
        anchors=np.ascontiguousarray(target.c_anchor, dtype=np.float64),
        bonds=_BONDS,
        start_indices=start_indices,
        max_iterations=max_iterations,
        tolerance=float(tolerance),
        chain=np.empty((pop, n * _ATOMS + 3, 3)),
        errors=np.empty(pop),
        converged_at=np.full(pop, max_iterations, dtype=np.int64),
        torsions=np.empty((pop, 2 * n)),
    )


def _close_compiled(
    torsions: np.ndarray,
    target: LoopTarget,
    start_indices: np.ndarray,
    max_iterations: int,
    tolerance: float,
    lib: ctypes.CDLL,
) -> CCDResult:
    """The compiled path of :func:`ccd_close_batch`: one
    :func:`_close_stripe` task per member thread."""
    call = _new_call(torsions, target, start_indices, max_iterations, tolerance)
    # Strided stripes of the start-sorted members, one per member
    # thread: each stripe is start-sorted itself and gets an even share
    # of every start index.
    order = np.argsort(start_indices, kind="stable")
    stripes = _split(order.size)
    map_members(
        lambda stripe: _close_stripe(call, order[stripe::stripes], lib), stripes
    )
    pop, n = order.size, call.n
    return CCDResult(
        torsions=call.torsions,
        coords=call.chain[:, : n * _ATOMS, :].reshape(pop, n, _ATOMS, 3),
        closure=call.chain[:, n * _ATOMS:, :],
        closure_error=call.errors,
        iterations=call.converged_at,
    )


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
        Optional :class:`~repro.xp.dispatch.KernelBundle`: the chain is
        built by ``target.build_batch``, sweeps run as the masked
        :func:`_ccd_sweep` kernel (one jit unit per sweep on a compiling
        namespace, blocks of members on an eager one) and the torsions
        are re-measured in numpy, instead of the compiled atom-major
        path.  Both paths produce the same bits.
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

    lib = native.library() if kernels is None else None
    if lib is not None:
        return _close_compiled(
            torsions, target, start_indices, max_iterations, tolerance, lib
        )
    if kernels is None:
        # No compiler works: the masked sweep gives the same bits.
        kernels = numpy_kernels()

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

    # Members sweep independently, so an eager namespace sweeps them in
    # blocks; a compiling one sweeps the whole population as one jit unit
    # of one shape.
    size = pop if kernels.namespace.can_jit else _EAGER_BLOCK
    for sweep in range(max_iterations):
        active = errors > tolerance
        if not np.any(active):
            break
        for block in population_blocks(pop, size):
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

    blocks = list(population_blocks(pop, -(-pop // _split(pop))))

    def _measure(index: int) -> None:
        block = blocks[index]
        closed_torsions[block] = backbone_torsions_batch(
            coords[block], target.n_anchor, closure[block]
        )

    map_members(_measure, len(blocks))
    return CCDResult(
        torsions=closed_torsions,
        coords=coords,
        closure=closure,
        closure_error=errors,
        iterations=converged_at,
    )
