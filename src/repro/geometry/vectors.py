"""Elementary vector operations: norms, bond angles, dihedral angles.

The dihedral angle convention follows the IUPAC definition used in protein
backbone torsions: looking along the B->C bond, the dihedral is the signed
angle from the plane (A, B, C) to the plane (B, C, D), positive clockwise,
in the range (-pi, pi].
"""

from __future__ import annotations

import numpy as np

from repro.constants import TWO_PI

__all__ = [
    "einsum_sum3",
    "einsum_sum9",
    "reduce_sum3",
    "normalize",
    "wrap_angle",
    "angle_between",
    "dihedral_angle",
    "dihedral_angles_batch",
    "angle_difference",
]

_EPS = 1e-12


def einsum_sum3(t0, t1, t2):
    """``t0 + t1 + t2`` with the bits of an ``np.einsum`` 3-term product sum.

    ``np.einsum`` sums the products of each C-contiguous row in two
    zero-started SIMD lanes: blocks of eight terms in reverse pairs
    (``t6, t4, t2, t0`` into lane 0, ``t7, t5, t3, t1`` into lane 1), then
    the remaining terms pair by pair, then lane 0 + lane 1.  Three terms
    (``"pi,pi->p"``, ``"pki,pi->pk"``, ``"pk,pk->p"`` over a 3-long axis)
    thus sum as ``(t0 + t2) + t1``.  Spelled out with plain elementwise
    operations, the sum keeps those bits in any memory layout -- an
    atom-major ``(3, K)`` plane reduces as a member-major ``(K, 3)`` row
    does -- and on every ``xp`` namespace.  The final ``+ 0.0`` turns an
    all-``-0.0`` sum into the lanes' ``+0.0``.  Pass the products in row
    order.  A numpy build whose lanes are wider, or fuse the multiply-add,
    sums differently: ``tests/unit/test_reduction_order.py`` pins these
    sums against ``einsum`` and names the one that moved.
    """
    return ((t0 + t2) + t1) + 0.0


def einsum_sum9(t0, t1, t2, t3, t4, t5, t6, t7, t8):
    """The 9-term ``np.einsum`` product sum (``"pki,pki->p"`` over
    ``(P, 3, 3)``), in the lane order of :func:`einsum_sum3`."""
    return (((((t6 + t4) + t2) + t0) + t8) + (((t7 + t5) + t3) + t1)) + 0.0


def reduce_sum3(t0, t1, t2):
    """``t0 + t1 + t2`` with the bits of ``.sum(axis=1)`` over ``(P, 3)``.

    numpy's add-reduce over a contiguous axis of length 3 adds left to
    right from a zero start: ``(t0 + t1) + t2``, never ``-0.0``.
    """
    return ((t0 + t1) + t2) + 0.0


def normalize(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Return ``v`` scaled to unit length along ``axis``.

    Zero-length vectors are returned unchanged (all zeros) rather than
    producing NaNs, which keeps the batched kernels free of invalid-value
    warnings when a degenerate conformation appears in the population.
    3-vectors along the last axis get the squared norm of
    :func:`einsum_sum3`, so their bits do not depend on the memory layout
    of ``v`` and equal the kernels' ``_normalize_last_axis``.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1:] == (3,) and (axis == -1 or axis == v.ndim - 1):
        # Fast path for the ubiquitous last-axis 3-vector case.
        x, y, z = v[..., 0], v[..., 1], v[..., 2]
        norm = np.sqrt(einsum_sum3(x * x, y * y, z * z))[..., None]
    else:
        norm = np.linalg.norm(v, axis=axis, keepdims=True)
    safe = np.where(norm < _EPS, 1.0, norm)
    return v / safe


def wrap_angle(angle):
    """Wrap angles into the interval (-pi, pi].

    Works element-wise on arrays of any shape and on Python scalars.
    """
    arr = np.asarray(angle, dtype=np.float64)
    wrapped = arr - TWO_PI * np.floor((arr + np.pi) / TWO_PI)
    # floor maps +pi to +pi (not -pi); enforce the half-open convention.
    wrapped = np.where(wrapped <= -np.pi, wrapped + TWO_PI, wrapped)
    if np.isscalar(angle) or np.ndim(angle) == 0:
        return float(wrapped)
    return wrapped


def angle_difference(a, b):
    """Smallest signed difference ``a - b`` between two angles (radians)."""
    return wrap_angle(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))


def angle_between(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """Bond angle at vertex ``b`` formed by points ``a``-``b``-``c`` (radians)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    u = a - b
    v = c - b
    cosang = np.dot(u, v) / max(np.linalg.norm(u) * np.linalg.norm(v), _EPS)
    return float(np.arccos(np.clip(cosang, -1.0, 1.0)))


def dihedral_angle(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> float:
    """Signed dihedral angle A-B-C-D in radians, in (-pi, pi]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)

    b1 = b - a
    b2 = c - b
    b3 = d - c

    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    m1 = np.cross(n1, b2 / max(np.linalg.norm(b2), _EPS))

    x = np.dot(n1, n2)
    y = np.dot(m1, n2)
    return float(np.arctan2(y, x))


def dihedral_angles_batch(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """Vectorised dihedral angles for stacked point quadruples.

    Parameters
    ----------
    a, b, c, d:
        Arrays of shape ``(..., 3)``; the dihedral is computed independently
        for each leading index.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(...,)`` of signed dihedral angles in (-pi, pi].
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)

    b1 = b - a
    b2 = c - b
    b3 = d - c

    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    b2n = normalize(b2)
    m1 = np.cross(n1, b2n)

    x = np.einsum("...i,...i->...", n1, n2)
    y = np.einsum("...i,...i->...", m1, n2)
    return np.arctan2(y, x)
