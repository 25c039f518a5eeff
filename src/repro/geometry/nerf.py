"""NeRF (Natural Extension Reference Frame) backbone construction.

Loop conformations are represented by their backbone torsion angles
(phi_i, psi_i); the omega torsions are fixed at 180 degrees and bond
lengths/angles are ideal (Section III.A of the paper).  This module converts
a torsion vector into Cartesian backbone coordinates given the fixed
N-terminal anchor atoms, in both a scalar and a population-batched form.

Chain-building convention
-------------------------
The N-terminal anchor supplies three fixed atoms: the carbonyl carbon of the
residue preceding the loop (``C_prev``) and the ``N`` and ``CA`` atoms of the
first loop residue.  The torsion vector ``(phi_1, psi_1, ..., phi_n, psi_n)``
then determines, in order:

* ``C_i``  from ``phi_i``,
* ``O_i``  from ``psi_i`` (anti-planar to the following nitrogen),
* ``N_{i+1}`` from ``psi_i``,
* ``CA_{i+1}`` from the fixed omega torsion,

and finally the three *closure atoms* ``N_{n+1}, CA_{n+1}, C_{n+1}`` — the
moving copies of the C-terminal anchor backbone, which CCD tries to
superimpose onto their fixed target positions.

The batched variants are generic :mod:`repro.xp` kernels: the per-step
placement (:func:`place_atoms_batch`) and the whole chain build
(:func:`build_backbone_batch`, a functional rewrite whose residue loop
unrolls at trace time) compile under the jax tier; the numpy bindings
perform the same operations as the pre-facade code and are bit-identical.

The scalar builder (:func:`build_backbone`, which builds the loop library
and the targets' native loops) runs each NeRF step on Python floats with
an explicit cross product; ``np.cross`` forms the same three differences
of rounded products.  Each norm still goes through ``ndarray.dot``, the
BLAS ``ddot`` that ``np.linalg.norm`` calls.  BLAS kernels may contract
their tail into fused multiply-adds, so on an OpenBLAS host
``x*x + y*y + z*z`` (and ``np.einsum``) round differently for about a
fifth of random vectors, which would move the library's coordinates and
with them the knowledge-base bins.  The batched builder normalises
through ``_normalize_last_axis`` instead and differs from the scalar one
by up to ~7e-14, so the two are not interchangeable.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro import constants
from repro.geometry.rotation import _normalize_last_axis
from repro.xp.dispatch import array_kernel
from repro.xp.xp import numpy_namespace

#: Numpy namespace the public wrappers bind the generic kernels to.
_XP = numpy_namespace()

__all__ = [
    "place_atom",
    "place_atoms_batch",
    "build_backbone",
    "build_backbone_batch",
    "loop_atom_count",
]

_EPS = 1e-12


def _unit(x: float, y: float, z: float) -> Tuple[float, float, float]:
    """``v / max(|v|, _EPS)``, with ``|v|`` computed as ``np.linalg.norm`` does."""
    v = np.array((x, y, z))
    norm = max(math.sqrt(v.dot(v)), _EPS)
    return x / norm, y / norm, z / norm


def _place(a, b, c, d0: float, s: float, cos_t: float, sin_t: float):
    """One NeRF step on float triples.

    ``d0 = -bond_length * cos(bond_angle)`` and ``s = bond_length *
    sin(bond_angle)``; ``cos_t``/``sin_t`` are the torsion's cosine and sine.
    """
    ax, ay, az = a
    bx, by, bz = b
    cx, cy, cz = c
    ux, uy, uz = _unit(cx - bx, cy - by, cz - bz)
    abx, aby, abz = bx - ax, by - ay, bz - az
    nx, ny, nz = _unit(aby * uz - abz * uy, abz * ux - abx * uz, abx * uy - aby * ux)
    mx, my, mz = ny * uz - nz * uy, nz * ux - nx * uz, nx * uy - ny * ux
    d1 = s * cos_t
    d2 = -s * sin_t
    return (
        cx + d0 * ux + d1 * mx + d2 * nx,
        cy + d0 * uy + d1 * my + d2 * ny,
        cz + d0 * uz + d1 * mz + d2 * nz,
    )


def _bond_terms(bond_length: float, bond_angle: float) -> Tuple[float, float]:
    """``(-bond_length * cos(bond_angle), bond_length * sin(bond_angle))``."""
    return (
        float(-bond_length * np.cos(bond_angle)),
        float(bond_length * np.sin(bond_angle)),
    )


#: :func:`_bond_terms` of the four ideal bonds the chain builder places.
_CA_C = _bond_terms(constants.BOND_CA_C, constants.ANGLE_N_CA_C)
_C_O = _bond_terms(constants.BOND_C_O, constants.ANGLE_CA_C_O)
_C_N = _bond_terms(constants.BOND_C_N, constants.ANGLE_CA_C_N)
_N_CA = _bond_terms(constants.BOND_N_CA, constants.ANGLE_C_N_CA)


def place_atom(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    bond_length: float,
    bond_angle: float,
    torsion: float,
) -> np.ndarray:
    """Place atom D such that |C-D| = ``bond_length``, angle(B,C,D) =
    ``bond_angle`` and dihedral(A,B,C,D) = ``torsion``.

    This is the scalar NeRF step used by the reference CPU backend.  The
    sign of the out-of-plane component is chosen so that the dihedral
    measured by :func:`repro.geometry.vectors.dihedral_angle` on the placed
    atom equals ``torsion`` exactly (round-trip property).
    """
    d0, s = _bond_terms(bond_length, bond_angle)
    point = _place(
        np.asarray(a, dtype=np.float64).tolist(),
        np.asarray(b, dtype=np.float64).tolist(),
        np.asarray(c, dtype=np.float64).tolist(),
        d0, s, float(np.cos(torsion)), float(np.sin(torsion)),
    )
    return np.array(point)


@array_kernel("place_atoms", static_argnums=(3, 4))
def _place_atoms(xp, a, b, c, bond_length, bond_angle, torsions):
    """Vectorised NeRF placement; ``bond_length``/``bond_angle`` are static.

    Replays :func:`place_atoms_batch` exactly — same normalisation fast
    path (:func:`repro.geometry.rotation._normalize_last_axis`), same
    local-frame arithmetic — so the numpy binding is bit-identical.
    """
    a = xp.asarray(a, dtype=xp.float64)
    b = xp.asarray(b, dtype=xp.float64)
    c = xp.asarray(c, dtype=xp.float64)
    torsions = xp.asarray(torsions, dtype=xp.float64)

    bc = _normalize_last_axis(xp, c - b)
    ab = b - a
    n = _normalize_last_axis(xp, xp.cross(ab, bc))
    m = xp.cross(n, bc)

    sin_t = xp.sin(bond_angle)
    d0 = -bond_length * xp.cos(bond_angle)
    d1 = bond_length * sin_t * xp.cos(torsions)
    d2 = -bond_length * sin_t * xp.sin(torsions)
    return c + d0 * bc + d1[:, None] * m + d2[:, None] * n


def place_atoms_batch(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    bond_length: float,
    bond_angle: float,
    torsions: np.ndarray,
) -> np.ndarray:
    """Vectorised NeRF placement: one atom per population member.

    Parameters
    ----------
    a, b, c:
        Arrays of shape ``(P, 3)`` holding the three reference atoms of each
        population member.
    bond_length, bond_angle:
        Scalars (ideal geometry shared by the whole population).
    torsions:
        Array of shape ``(P,)`` of per-member torsion angles.

    Returns
    -------
    numpy.ndarray
        ``(P, 3)`` coordinates of the newly placed atoms.
    """
    return _place_atoms(_XP, a, b, c, bond_length, bond_angle, torsions)


def loop_atom_count(n_residues: int) -> int:
    """Number of backbone atoms built for an ``n_residues`` loop (N,CA,C,O each)."""
    return constants.BACKBONE_ATOMS_PER_RESIDUE * n_residues


def build_backbone(
    torsions: np.ndarray,
    n_anchor: np.ndarray,
    end_phi: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Build loop backbone coordinates from a torsion vector (scalar version).

    Parameters
    ----------
    torsions:
        Shape ``(2n,)`` vector ``(phi_1, psi_1, ..., phi_n, psi_n)`` in radians.
    n_anchor:
        Shape ``(3, 3)`` fixed coordinates of ``C_prev``, ``N_1`` and ``CA_1``.
    end_phi:
        The (fixed) phi torsion of the first C-terminal anchor residue, used
        to place the third closure atom ``C_{n+1}``.

    Returns
    -------
    (coords, closure)
        ``coords`` has shape ``(n, 4, 3)`` with atoms ordered N, CA, C, O per
        residue; ``closure`` has shape ``(3, 3)`` holding the built positions
        of ``N_{n+1}``, ``CA_{n+1}``, ``C_{n+1}``.
    """
    torsions = np.asarray(torsions, dtype=np.float64)
    if torsions.ndim != 1 or torsions.size % 2 != 0:
        raise ValueError("torsions must be a flat vector of 2n angles")
    n = torsions.size // 2
    if n < 1:
        raise ValueError("the loop must contain at least one residue")
    n_anchor = np.asarray(n_anchor, dtype=np.float64)
    if n_anchor.shape != (3, 3):
        raise ValueError("n_anchor must have shape (3, 3): C_prev, N_1, CA_1")

    # Cosine and sine of every torsion the chain uses, taken once with
    # numpy's ufuncs, as place_atom takes them.
    phi, psi = torsions[0::2], torsions[1::2]
    angles = np.concatenate([phi, psi + np.pi, psi, [constants.OMEGA_TRANS, end_phi]])
    cos_t, sin_t = np.cos(angles).tolist(), np.sin(angles).tolist()
    cos_omega, sin_omega = cos_t[3 * n], sin_t[3 * n]

    prev_c, n_i, ca_i = n_anchor.tolist()  # prev_c: carbonyl C before residue i
    atoms = []
    for i in range(n):
        # C_i from phi_i: dihedral(C_{i-1}, N_i, CA_i, C_i)
        c_i = _place(prev_c, n_i, ca_i, *_CA_C, cos_t[i], sin_t[i])
        # O_i from psi_i: anti-planar to the next nitrogen.
        o_i = _place(n_i, ca_i, c_i, *_C_O, cos_t[n + i], sin_t[n + i])
        atoms += (n_i, ca_i, c_i, o_i)
        # N_{i+1} from psi_i: dihedral(N_i, CA_i, C_i, N_{i+1})
        n_next = _place(n_i, ca_i, c_i, *_C_N, cos_t[2 * n + i], sin_t[2 * n + i])
        # CA_{i+1} from omega (fixed trans): dihedral(CA_i, C_i, N_{i+1}, CA_{i+1})
        ca_next = _place(ca_i, c_i, n_next, *_N_CA, cos_omega, sin_omega)
        prev_c, n_i, ca_i = c_i, n_next, ca_next

    # Closure atoms: moving copy of the C-terminal anchor backbone.
    c_end = _place(prev_c, n_i, ca_i, *_CA_C, cos_t[-1], sin_t[-1])
    coords = np.array(atoms).reshape(n, constants.BACKBONE_ATOMS_PER_RESIDUE, 3)
    return coords, np.array((n_i, ca_i, c_end))


def build_backbone_batch(
    torsions: np.ndarray,
    n_anchor: np.ndarray,
    end_phi: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Population-batched backbone construction.

    This is the simulated-GPU analogue of :func:`build_backbone`: the chain
    is still built atom by atom along the loop (the dependency is inherent),
    but each step places the corresponding atom of *every* population member
    in one vectorised operation — one "thread" per conformation, exactly the
    SIMT work decomposition of the paper.

    Parameters
    ----------
    torsions:
        Shape ``(P, 2n)`` population torsion matrix.
    n_anchor:
        Shape ``(3, 3)`` fixed anchor coordinates, shared by all members.
    end_phi:
        Fixed phi torsion of the first C-terminal anchor residue.

    Returns
    -------
    (coords, closure)
        ``coords`` has shape ``(P, n, 4, 3)``; ``closure`` has shape
        ``(P, 3, 3)``.
    """
    torsions = np.asarray(torsions, dtype=np.float64)
    if torsions.ndim != 2 or torsions.shape[1] % 2 != 0:
        raise ValueError("torsions must have shape (P, 2n)")
    pop, two_n = torsions.shape
    n = two_n // 2
    if n < 1:
        raise ValueError("the loop must contain at least one residue")
    n_anchor = np.asarray(n_anchor, dtype=np.float64)
    if n_anchor.shape != (3, 3):
        raise ValueError("n_anchor must have shape (3, 3): C_prev, N_1, CA_1")

    coords, closure = _build_backbone_chain(_XP, torsions, n_anchor, end_phi)
    return coords, closure


@array_kernel("build_backbone_chain")
def _build_backbone_chain(xp, torsions, n_anchor, end_phi):
    """Generic batched chain build; the residue loop unrolls at trace time.

    A functional rewrite of the original buffer-writing loop: per-residue
    atom rows are collected and stacked instead of assigned into a
    preallocated array.  Every placed coordinate comes from the same
    :func:`_place_atoms` calls in the same order, so the stacked result
    is bit-identical to the buffer version.
    """
    torsions = xp.asarray(torsions, dtype=xp.float64)
    n_anchor = xp.asarray(n_anchor, dtype=xp.float64)
    pop, two_n = torsions.shape
    n = two_n // 2

    prev_c = xp.broadcast_to(n_anchor[0], (pop, 3))
    n_i = xp.broadcast_to(n_anchor[1], (pop, 3))
    ca_i = xp.broadcast_to(n_anchor[2], (pop, 3))

    residues = []
    closure = None
    for i in range(n):
        phi = torsions[:, 2 * i]
        psi = torsions[:, 2 * i + 1]

        c_i = _place_atoms(
            xp, prev_c, n_i, ca_i,
            constants.BOND_CA_C, constants.ANGLE_N_CA_C, phi,
        )
        o_i = _place_atoms(
            xp, n_i, ca_i, c_i,
            constants.BOND_C_O, constants.ANGLE_CA_C_O, psi + np.pi,
        )
        residues.append(xp.stack((n_i, ca_i, c_i, o_i), axis=1))

        n_next = _place_atoms(
            xp, n_i, ca_i, c_i,
            constants.BOND_C_N, constants.ANGLE_CA_C_N, psi,
        )
        ca_next = _place_atoms(
            xp, ca_i, c_i, n_next,
            constants.BOND_N_CA, constants.ANGLE_C_N_CA,
            xp.full(pop, constants.OMEGA_TRANS),
        )
        if i + 1 < n:
            n_i, ca_i = n_next, ca_next
        else:
            c_end = _place_atoms(
                xp, c_i, n_next, ca_next,
                constants.BOND_CA_C, constants.ANGLE_N_CA_C,
                xp.full(pop, end_phi),
            )
            closure = xp.stack((n_next, ca_next, c_end), axis=1)
        prev_c = c_i

    return xp.stack(residues, axis=1), closure
