"""Rotation matrices: axis-angle construction and point rotation.

The CCD loop-closure kernel repeatedly rotates the downstream part of a loop
about a pivot bond.  The batched variants build one rotation matrix per
population member in a single vectorised call.

The batched rotation :func:`rotate_points_about_axes_batch` is a generic
:mod:`repro.xp` kernel: the innermost operation of the masked CCD sweep
that kernel bundles (the ``xp`` and ``jax`` backends) run, so the jax tier
compiles it.  The default numpy CCD path rotates atom-major coordinate
planes in place instead, replaying this kernel's Rodrigues expression
tree op for op, so the two agree bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geometry.vectors import einsum_sum3, normalize
from repro.utils.rng import spawn_rng
from repro.xp.dispatch import array_kernel
from repro.xp.xp import numpy_namespace

#: Numpy namespace the public wrappers bind the generic kernels to.
_XP = numpy_namespace()
_EPS = 1e-12

__all__ = [
    "axis_angle_matrix",
    "axis_angle_matrices_batch",
    "rotate_about_axis",
    "rotate_points_about_axes_batch",
    "random_rotation_matrix",
]


def axis_angle_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation matrix for a rotation of ``angle`` radians about ``axis``.

    Uses the Rodrigues formula.  The axis need not be normalised.
    """
    axis = normalize(np.asarray(axis, dtype=np.float64))
    x, y, z = axis
    c = np.cos(angle)
    s = np.sin(angle)
    t = 1.0 - c
    return np.array(
        [
            [t * x * x + c, t * x * y - s * z, t * x * z + s * y],
            [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
            [t * x * z - s * y, t * y * z + s * x, t * z * z + c],
        ],
        dtype=np.float64,
    )


def axis_angle_matrices_batch(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Batched Rodrigues rotation matrices.

    Parameters
    ----------
    axes:
        Array of shape ``(..., 3)``; normalised internally.
    angles:
        Array broadcastable to the leading shape of ``axes``.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(..., 3, 3)`` of rotation matrices.
    """
    axes = normalize(np.asarray(axes, dtype=np.float64))
    angles = np.asarray(angles, dtype=np.float64)
    x = axes[..., 0]
    y = axes[..., 1]
    z = axes[..., 2]
    c = np.cos(angles)
    s = np.sin(angles)
    t = 1.0 - c

    mats = np.empty(axes.shape[:-1] + (3, 3), dtype=np.float64)
    mats[..., 0, 0] = t * x * x + c
    mats[..., 0, 1] = t * x * y - s * z
    mats[..., 0, 2] = t * x * z + s * y
    mats[..., 1, 0] = t * x * y + s * z
    mats[..., 1, 1] = t * y * y + c
    mats[..., 1, 2] = t * y * z - s * x
    mats[..., 2, 0] = t * x * z - s * y
    mats[..., 2, 1] = t * y * z + s * x
    mats[..., 2, 2] = t * z * z + c
    return mats


def rotate_about_axis(
    points: np.ndarray, origin: np.ndarray, axis: np.ndarray, angle: float
) -> np.ndarray:
    """Rotate ``points`` (``(m, 3)``) about a line through ``origin`` along ``axis``."""
    points = np.asarray(points, dtype=np.float64)
    origin = np.asarray(origin, dtype=np.float64)
    rot = axis_angle_matrix(axis, angle)
    return (points - origin) @ rot.T + origin


def _normalize_last_axis(xp, v):
    """Unit-scale 3-vectors along the last axis; zero vectors pass through.

    Replays the 3-vector fast path of :func:`repro.geometry.vectors.normalize`
    exactly (the same explicit :func:`~repro.geometry.vectors.einsum_sum3`
    squared norm, the same epsilon guard), so the numpy binding is
    bit-identical to calling ``normalize`` directly, in any memory layout.
    """
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    norm = xp.sqrt(einsum_sum3(x * x, y * y, z * z))[..., None]
    safe = xp.where(norm < _EPS, 1.0, norm)
    return v / safe


@array_kernel("rotate_points_about_axes", static_argnames=("normalized",))
def _rotate_points_about_axes(xp, points, origins, axes, angles, normalized=False):
    """Rodrigues rotation of each ``(m, 3)`` point set about its own axis.

    ``normalized`` is a trace-time flag (static under jit): true skips the
    axis normalisation pass.
    """
    points = xp.asarray(points, dtype=xp.float64)
    origins = xp.asarray(origins, dtype=xp.float64)
    axes = xp.asarray(axes, dtype=xp.float64)
    if not normalized:
        axes = _normalize_last_axis(xp, axes)
    angles = xp.asarray(angles, dtype=xp.float64)

    c = xp.cos(angles)[:, None]
    s = xp.sin(angles)[:, None]
    # One coordinate at a time, so every temporary is a dense (P, m)
    # array rather than a stride-3 view.
    ox, oy, oz = origins[:, 0, None], origins[:, 1, None], origins[:, 2, None]
    x = points[..., 0] - ox
    y = points[..., 1] - oy
    z = points[..., 2] - oz
    kx = axes[:, 0, None]
    ky = axes[:, 1, None]
    kz = axes[:, 2, None]
    t = (x * kx + y * ky + z * kz) * (1.0 - c)
    return xp.stack(
        (
            x * c + (ky * z - kz * y) * s + kx * t + ox,
            y * c + (kz * x - kx * z) * s + ky * t + oy,
            z * c + (kx * y - ky * x) * s + kz * t + oz,
        ),
        axis=-1,
    )


def rotate_points_about_axes_batch(
    points: np.ndarray,
    origins: np.ndarray,
    axes: np.ndarray,
    angles: np.ndarray,
    normalized: bool = False,
) -> np.ndarray:
    """Rotate each batch of points about its own axis.

    Parameters
    ----------
    points:
        ``(P, m, 3)`` point sets.
    origins:
        ``(P, 3)`` per-batch rotation origins.
    axes:
        ``(P, 3)`` per-batch rotation axes (not necessarily normalised).
    angles:
        ``(P,)`` per-batch rotation angles in radians.
    normalized:
        Set true when ``axes`` are already unit vectors to skip the
        normalisation pass (the batched CCD kernel normalises its pivot
        axes itself).

    Returns
    -------
    numpy.ndarray
        ``(P, m, 3)`` rotated point sets.

    Notes
    -----
    Applies the Rodrigues formula to the points directly,
    ``p' = p cos(a) + (k x p) sin(a) + k (k . p)(1 - cos(a))``, rather than
    building per-member matrices first.  It is the innermost operation of
    the masked CCD sweep (once per pivot per sweep) that kernel bundles
    run; the default numpy CCD path rotates atom-major planes with the
    same expression tree instead (see :mod:`repro.closure.ccd`).
    """
    return _rotate_points_about_axes(
        _XP, points, origins, axes, angles, normalized=normalized
    )


def random_rotation_matrix(rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Uniformly random rotation matrix (Haar measure on SO(3)).

    Used by tests to verify rotational invariance of RMSD and scoring.
    """
    rng = rng if rng is not None else spawn_rng(None)
    # Shoemake's method via a random unit quaternion.
    u1, u2, u3 = rng.random(3)
    q = np.array(
        [
            np.sqrt(1.0 - u1) * np.sin(2.0 * np.pi * u2),
            np.sqrt(1.0 - u1) * np.cos(2.0 * np.pi * u2),
            np.sqrt(u1) * np.sin(2.0 * np.pi * u3),
            np.sqrt(u1) * np.cos(2.0 * np.pi * u3),
        ]
    )
    w, x, y, z = q[3], q[0], q[1], q[2]
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ],
        dtype=np.float64,
    )
