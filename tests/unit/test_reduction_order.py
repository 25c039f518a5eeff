"""Pin: the explicit sums keep the bits of numpy's reductions.

The CCD kernels (atom-major planes and the masked member-major sweep),
``normalize`` and ``_normalize_last_axis`` spell their small sums out as
plain elementwise operations, in the order numpy's ``einsum`` and
``.sum(axis=1)`` add a C-contiguous row.  That is what keeps their outputs
equal to the ``einsum`` code they replaced, and to each other in any
memory layout.  The compiled scoring passes (``repro.native``) copy three
more orders, the row sums of the scoring kernels: two-lane ``einsum``
rows (DIST), the term-by-term sum of a pair-major gather (VDW) and
``np.bincount``'s (the environment term).  A numpy or CPU change that
moves a reduction's order (an FMA lane, a wider SIMD accumulator) fails
here, by formula, instead of as a digest drift.  Rows are random over ~600 decades plus adversarial
values: zeros of both signs, subnormals, huge magnitudes.  Results are
compared bit for bit, sign of zero included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.rmsd import coordinate_rmsd_batch
from repro.geometry.rotation import _normalize_last_axis
from repro.geometry.vectors import einsum_sum3, einsum_sum9, normalize, reduce_sum3
from repro.scoring.pairwise import (
    _alignment_sums,
    _indexed_penalty_block,
    _soft_sphere_penalty_sq,
    rotation_alignment_terms,
)

import ccd_oracle
from repro.xp.xp import numpy_namespace

ROWS = 40_000
SPECIAL = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-200, 1e200, -1e150, 1.0, -1.0]
)


def _rows(rng, shape):
    """``(ROWS, *shape)`` values: wide-range random, unit normal, specials."""
    size = (ROWS // 3,) + shape
    wide = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size=size)
    unit = rng.standard_normal(size)
    special = rng.choice(SPECIAL, size=size)
    return np.concatenate([wide, unit, special])


def assert_same_bits(explicit, reference):
    explicit, reference = np.asarray(explicit), np.asarray(reference)
    assert explicit.shape == reference.shape
    nan = np.isnan(reference)
    assert np.array_equal(np.isnan(explicit), nan)
    assert np.array_equal(explicit[~nan].view(np.int64), reference[~nan].view(np.int64))


def _dot(rng):
    u, v = _rows(rng, (3,)), _rows(rng, (3,))
    explicit = einsum_sum3(u[:, 0] * v[:, 0], u[:, 1] * v[:, 1], u[:, 2] * v[:, 2])
    return explicit, np.einsum("pi,pi->p", u, v)


def _squared_norm(rng):
    u = _rows(rng, (3,))
    explicit = einsum_sum3(u[:, 0] * u[:, 0], u[:, 1] * u[:, 1], u[:, 2] * u[:, 2])
    return explicit, np.einsum("...i,...i->...", u, u)


def _point_axis(rng):
    r, axes = _rows(rng, (3, 3)), _rows(rng, (3,))
    explicit = einsum_sum3(
        r[:, :, 0] * axes[:, 0, None],
        r[:, :, 1] * axes[:, 1, None],
        r[:, :, 2] * axes[:, 2, None],
    )
    return explicit, np.einsum("pki,pi->pk", r, axes)


def _dihedral_dot(rng):
    """``dihedral_angles_batch``'s dot over ``(P, n, 3)`` cross products
    (the compiled ``dihedral_terms``)."""
    u = _rows(rng, (3,))[:39996].reshape(-1, 12, 3)
    v = _rows(rng, (3,))[:39996].reshape(-1, 12, 3)
    explicit = einsum_sum3(u[..., 0] * v[..., 0], u[..., 1] * v[..., 1], u[..., 2] * v[..., 2])
    return explicit, np.einsum("...i,...i->...", u, v)


def _closure_rmsd(rng):
    """``coordinate_rmsd_batch`` on the transposed ``(K, 3, 3)`` closure
    view of atom-major planes: each atom's ``.sum(-1)`` and the mean over
    the atoms add left to right (the compiled ``check_closure``)."""
    planes = _rows(rng, (3, 7)).transpose(1, 2, 0).copy() * 1e-150  # (3, 7, K)
    anchors = rng.normal(scale=5.0, size=(3, 3))
    d = planes[:, -3:, :] - anchors.T[:, :, None]  # (coordinate, atom, K)
    atoms = [reduce_sum3(d[0, q] * d[0, q], d[1, q] * d[1, q], d[2, q] * d[2, q])
             for q in range(3)]
    explicit = np.sqrt(reduce_sum3(*atoms) / 3.0)
    return explicit, coordinate_rmsd_batch(planes[:, -3:, :].T, anchors)


def _pair_products(rng):
    x, y = _rows(rng, (3,)), _rows(rng, (3,))
    explicit = einsum_sum3(x[:, 0] * y[:, 0], x[:, 1] * y[:, 1], x[:, 2] * y[:, 2])
    return explicit, np.einsum("pk,pk->p", x, y)


def _nine_terms(rng):
    r, f = _rows(rng, (3, 3)), _rows(rng, (3, 3))
    terms = r * f
    explicit = einsum_sum9(*(terms[:, k, i] for k in range(3) for i in range(3)))
    return explicit, np.einsum("pki,pki->p", r, f)


def _atom_sum(rng):
    c = _rows(rng, (3,))
    return reduce_sum3(c[:, 0], c[:, 1], c[:, 2]), c.sum(axis=1)


def _normalize(rng):
    v = _rows(rng, (3,))
    with np.errstate(all="ignore"):
        norm = np.sqrt(np.einsum("...i,...i->...", v, v))[..., None]
        return normalize(v), v / np.where(norm < 1e-12, 1.0, norm)


def _normalize_kernel(rng):
    v = _rows(rng, (3,))
    with np.errstate(all="ignore"):
        return _normalize_last_axis(numpy_namespace(), v), normalize(np.asfortranarray(v))


def _alignment_terms(rng):
    """The explicit alignment terms, on the atom-major sweep's ``(3, 3, K)``
    blocks and through the member-major kernel, equal the ``einsum``
    reductions of ``tests/ccd_oracle.py``."""
    rng_points = np.random.default_rng(rng.integers(1 << 32))
    points = rng_points.normal(scale=5.0, size=(ROWS, 3, 3))
    targets = rng_points.normal(scale=5.0, size=(3, 3))
    origins = rng_points.normal(scale=5.0, size=(ROWS, 3))
    axes = normalize(rng_points.normal(size=(ROWS, 3)))
    # The atom-major sweep's call: C-contiguous coordinate-major blocks.
    planes = np.ascontiguousarray(points.transpose(2, 1, 0))
    origin = np.ascontiguousarray(origins.T)
    a, b = _alignment_sums(
        planes - origin[:, None, :],
        targets.T[:, :, None] - origin[:, None, :],
        np.ascontiguousarray(axes.T),
    )
    a_mm, b_mm = rotation_alignment_terms(points, targets, origins, axes)
    a_ref, b_ref = ccd_oracle.rotation_alignment_terms(points, targets, origins, axes)
    return np.concatenate([a, b, a_mm, b_mm]), np.concatenate([a_ref, b_ref] * 2)


def two_lane_rows(terms):
    """Each row of ``terms`` summed as numpy's two-lane ``sum_of_arr``
    adds a contiguous row: runs of eight into two lanes, the rest pair by
    pair, then ``(lane0 + lane1) + 0.0`` (the compiled ``lanes_total``)."""
    rows, count = terms.shape
    lane0, lane1 = np.zeros(rows), np.zeros(rows)
    k = 0
    while k + 8 <= count:
        t = [terms[:, k + i] for i in range(8)]
        lane0 = ((t[0] + t[2]) + (t[4] + t[6])) + lane0
        lane1 = ((t[1] + t[3]) + (t[5] + t[7])) + lane1
        k += 8
    while k < count:
        lane0 = terms[:, k] + lane0
        lane1 = (terms[:, k + 1] if k + 1 < count else 0.0) + lane1
        k += 2
    return (lane0 + lane1) + 0.0


def serial_rows(terms):
    """Each row of ``terms`` added term by term from ``0.0``."""
    total = np.zeros(terms.shape[0])
    for k in range(terms.shape[1]):
        total = terms[:, k] + total
    return total


def _contiguous_rows(rng):
    """``einsum("pk->p")`` on C-contiguous rows (``np.take``'s output in
    the DIST kernel) sums each row in two lanes, at every remainder."""
    explicit, reference = [], []
    for count in list(range(1, 34)) + [1056]:
        terms = np.ascontiguousarray(_rows(rng, (count,))[:: 3 * (1 + count // 64)])
        explicit.append(two_lane_rows(terms))
        reference.append(np.einsum("pk->p", terms))
    return np.concatenate(explicit), np.concatenate(reference)


def _gathered_penalties(rng):
    """The VDW kernel's ``points[..., first, :]`` gather comes out
    pair-major, so ``einsum("pk->p")`` adds each member's penalties term
    by term from 0.0; a one-member block is one contiguous row, summed in
    two lanes."""
    points = rng.normal(scale=1.5, size=(400, 24, 3))
    first, second = np.triu_indices(24, k=1)
    sq_contacts = rng.uniform(0.5, 20.0, size=(1, first.size))
    diff = points[:, first, :] - points[:, second, :]
    sq = einsum_sum3(diff[..., 0] ** 2, diff[..., 1] ** 2, diff[..., 2] ** 2)
    terms = np.ascontiguousarray(_soft_sphere_penalty_sq(numpy_namespace(), sq, sq_contacts))
    ns = numpy_namespace()
    block = _indexed_penalty_block(ns, points, points, first, second, sq_contacts)
    single = np.concatenate(
        [
            _indexed_penalty_block(ns, points[m : m + 1], points[m : m + 1], first, second, sq_contacts)
            for m in range(points.shape[0])
        ]
    )
    # The two orders differ on these rows, so each pin has teeth.
    assert np.any(serial_rows(terms) != two_lane_rows(terms))
    return (
        np.concatenate([serial_rows(terms), two_lane_rows(terms)]),
        np.concatenate([block, single]),
    )


def _bincount_order(rng):
    """``np.bincount(ids, weights)`` adds each bin's weights one by one
    from 0.0 in array order (the VDW environment term's pair order)."""
    ids = np.sort(rng.integers(0, 50, size=4000))
    weights = _rows(rng, ())[:4000]
    explicit = np.zeros(50)
    for index, weight in zip(ids.tolist(), weights.tolist()):
        explicit[index] = weight + explicit[index]
    return explicit, np.bincount(ids, weights=weights, minlength=50)


FORMULAS = {
    "einsum pi,pi->p": _dot,
    "einsum ...i,...i->... (squared norm)": _squared_norm,
    "einsum pki,pi->pk": _point_axis,
    "einsum pk,pk->p": _pair_products,
    "einsum ...i,...i->... over (P, n, 3)": _dihedral_dot,
    "coordinate_rmsd_batch on a transposed (K, 3, 3) view": _closure_rmsd,
    "einsum pki,pki->p (9 terms)": _nine_terms,
    "sum(axis=1) over 3": _atom_sum,
    "normalize": _normalize,
    "_normalize_last_axis": _normalize_kernel,
    "alignment terms": _alignment_terms,
    "einsum pk->p on contiguous rows (two lanes)": _contiguous_rows,
    "einsum pk->p on a pair-major gather (term by term)": _gathered_penalties,
    "bincount weights (array order)": _bincount_order,
}


@pytest.mark.parametrize("formula", sorted(FORMULAS))
def test_explicit_sum_matches_numpy(formula):
    rng = np.random.default_rng(sorted(FORMULAS).index(formula))
    with np.errstate(all="ignore"):
        explicit, reference = FORMULAS[formula](rng)
    assert_same_bits(explicit, reference)
