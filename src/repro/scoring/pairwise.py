"""Population-batched pairwise-distance kernel engine.

All of the paper's scoring hot paths reduce to the same primitive: gather
pairs of points, measure how far apart they are, and fold a per-pair term
into a per-conformation total.  This module is the shared engine those hot
paths are built on:

* **Squared-distance math end-to-end** — no square root is taken anywhere;
  the soft-sphere penalty is evaluated directly on ``d^2`` and distance
  binning is performed against pre-squared bin edges, so the only kernels
  that would ever need a ``sqrt`` are ones that genuinely consume metric
  distances (none of the three scoring functions do).
* **Environment pruning** — :class:`EnvironmentGrid` is a uniform cell list
  over the *fixed* environment atoms, built once per scorer, with cell edge
  equal to the maximum contact radius.  Querying it touches O(neighbours)
  candidate pairs instead of all ``(P, n*4, M)`` combinations, and its
  pruned totals are bit-identical to the dense ones (the test-only oracle
  ``tests/env_oracle.py``) because the excluded pairs contribute exact
  zeros in the same accumulation order.
* **Population chunking** — :func:`population_blocks` splits a population
  into blocks of :data:`DEFAULT_BLOCK_SIZE` = 128 members, the paper's
  threads per block, so the generic kernels' pair temporaries stay
  cache-resident at paper-scale populations (15,360 members).
* **Member threads** — the blocks of every block loop are mapped over one
  process-wide thread pool (:func:`map_blocks`), each block writing only
  its own rows of the totals; CCD maps its member stripes over the same
  pool (:func:`map_members`).  The thread count is the running cell's
  share of the host (:func:`member_thread_count`), set around each cell
  by the runtime (:func:`using_member_threads`); it is never part of a
  cell spec, a journal or any other replay surface, because it changes
  no computed bit.

Every helper is deterministic per member: a member's numbers do not
depend on which block it lands in or which thread runs that block, which
is what lets blocks run on any thread in any order.  One exception: the
penalty sum of a one-member block (a scalar ``evaluate``, or a last
block holding one member) adds its terms in two lanes where larger
blocks add them one by one (see :func:`_indexed_penalty_block`), so it
may differ in the last bits.

The per-pair math lives in *generic kernels* registered with the
:mod:`repro.xp` facade (functions taking an array namespace ``xp`` as
first argument); the optional ``kernels=`` parameter routes them through
a :class:`~repro.xp.dispatch.KernelBundle` resolved at stack-assembly
time (jit-compiled on the JAX tier).  Without a bundle, the three block
loops run the compiled passes of :mod:`repro.native` instead
(``pair_penalty``, ``binned_sum``, ``env_penalty``), one GIL-free call
per block, which add every sum in the order the numpy forms do and so
give their bits.  When no C compiler works, or the points are not
float64, the same loops run the generic kernels bound to numpy (and the
cell-list query plus ``np.bincount`` for the environment term).
Host-side orchestration — block slicing, total accumulation, building
the :class:`EnvironmentGrid` cell list — stays numpy.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro import native
from repro.geometry.vectors import einsum_sum3, einsum_sum9, reduce_sum3
from repro.xp.dispatch import array_kernel
from repro.xp.xp import numpy_namespace

if TYPE_CHECKING:
    from repro.xp.dispatch import KernelBundle

#: The numpy namespace the public wrappers are bound to (resolved once).
_XP = numpy_namespace()

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "population_blocks",
    "member_thread_count",
    "member_threads",
    "using_member_threads",
    "map_members",
    "map_blocks",
    "soft_sphere_penalty_sq",
    "indexed_sq_distances",
    "indexed_penalty_sum",
    "rotation_alignment_terms",
    "squared_bin_edges",
    "bin_squared_distances",
    "binned_table_sum",
    "EnvironmentGrid",
]

#: Population members per block of every block loop: the paper's
#: threads per block.  Fixed, not derived from the member-thread count: a
#: one-member block adds its VDW terms in two lanes (see
#: :func:`_indexed_penalty_block`), so a partition that followed the
#: thread count would make bits depend on it.
DEFAULT_BLOCK_SIZE: int = 128


def population_blocks(
    population_size: int, size: Optional[int] = None
) -> Iterator[slice]:
    """Yield slices covering ``[0, population_size)`` in blocks of ``size``
    members (:data:`DEFAULT_BLOCK_SIZE`, read at call time, by default)."""
    step = DEFAULT_BLOCK_SIZE if size is None else size
    for start in range(0, population_size, step):
        yield slice(start, min(start + step, population_size))


#: Threads the population kernels split their members across; set around
#: each cell by :func:`using_member_threads`, one outside any cell.
_MEMBER_THREADS: int = 1
#: Processes sharing the host's cores with this one, itself included; set
#: by :func:`sharing_cores` (the experiment processes of
#: ``repro-experiments --workers N``).
_PROCESSES: int = 1
#: The helper threads of :func:`map_members` (the calling thread is the
#: last member thread), built on first use and grown on demand.
_POOL: Optional[ThreadPoolExecutor] = None
_POOL_SIZE: int = 0
#: Marks the threads running a member task, whose nested maps run inline.
_TASK = threading.local()


def _forget_pool() -> None:
    """Drop the pool in a forked child: its threads did not survive the
    fork, so a task submitted to it would never run."""
    global _POOL, _POOL_SIZE
    _POOL, _POOL_SIZE = None, 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def member_thread_count(slots: int) -> int:
    """A cell's member threads: its share of the cores this process may
    run on, ``max(1, cores // slots)``, where ``slots`` is the number of
    cells running at once on the host (times the processes inside
    :func:`sharing_cores`)."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API
        cores = os.cpu_count() or 1
    return max(1, cores // (max(1, int(slots)) * _PROCESSES))


@contextlib.contextmanager
def sharing_cores(processes: int) -> Iterator[None]:
    """Count ``processes`` processes (this one included) on the host's
    cores in :func:`member_thread_count` for the enclosed block."""
    global _PROCESSES
    previous = _PROCESSES
    _PROCESSES = max(1, int(processes))
    try:
        yield
    finally:
        _PROCESSES = previous


def member_threads() -> int:
    """The member threads the population kernels run on right now."""
    return _MEMBER_THREADS


@contextlib.contextmanager
def using_member_threads(count: int) -> Iterator[None]:
    """Run the enclosed kernels on ``count`` member threads (process-wide).

    Outputs do not depend on the count: every kernel that maps over the
    member threads computes each member's bits as one thread would.
    """
    global _MEMBER_THREADS
    previous = _MEMBER_THREADS
    _MEMBER_THREADS = max(1, int(count))
    try:
        yield
    finally:
        _MEMBER_THREADS = previous


def _helpers(count: int) -> ThreadPoolExecutor:
    global _POOL, _POOL_SIZE
    if _POOL is None or _POOL_SIZE < count:
        if _POOL is not None:
            _POOL.shutdown(wait=False)
        _POOL = ThreadPoolExecutor(count, thread_name_prefix="member")
        _POOL_SIZE = count
    return _POOL


def map_members(fn: Callable[[int], None], count: int) -> None:
    """Call ``fn(i)`` for every ``i`` in ``range(count)`` across the
    member threads, the calling thread included; returns when all are done.

    Tasks are handed out in index order to whichever thread is free, so
    each ``fn(i)`` must write only its own rows.  Ledger sections and
    spans stay with the caller, around the whole map.  A map inside a
    task runs inline.
    """
    threads = min(_MEMBER_THREADS, count)
    if threads <= 1 or getattr(_TASK, "running", False):
        for index in range(count):
            fn(index)
        return
    tasks = itertools.count()

    def _drain() -> None:
        _TASK.running = True
        try:
            index = next(tasks)
            while index < count:
                fn(index)
                index = next(tasks)
        finally:
            _TASK.running = False

    pool = _helpers(threads - 1)
    futures = [pool.submit(_drain) for _ in range(threads - 1)]
    try:
        _drain()
    finally:
        wait(futures)
    for future in futures:
        future.result()


def map_blocks(fn: Callable[[slice], None], population_size: int) -> None:
    """:func:`map_members` over the :func:`population_blocks` slices."""
    blocks: List[slice] = list(population_blocks(population_size))
    map_members(lambda index: fn(blocks[index]), len(blocks))


def _row(array: np.ndarray, index: int) -> int:
    """The address of row ``index`` of a C-contiguous ``array``, for the
    compiled passes, which each run on one block of rows."""
    return array.ctypes.data + index * array.strides[0]


def _c_points(*points: np.ndarray) -> bool:
    """Whether the compiled passes can read ``points``: float64
    ``(P, A, 3)`` arrays with one common ``P``."""
    return all(
        p.dtype == np.float64 and p.ndim == 3 and p.shape[2] == 3
        and p.shape[0] == points[0].shape[0]
        for p in points
    )


def _pair_index(index: np.ndarray, size: int) -> np.ndarray:
    """``index`` into an axis of length ``size`` as the compiled passes
    read it: int64, C order, negatives wrapped, out-of-range entries
    raising ``IndexError`` as numpy's gather does."""
    return np.arange(size, dtype=np.int64)[index]


@array_kernel("soft_sphere_penalty_sq")
def _soft_sphere_penalty_sq(xp, sq_distances, sq_contacts):
    """Generic soft-sphere penalty on squared distances (see wrapper)."""
    sq_distances = xp.asarray(sq_distances, dtype=xp.float64)
    sq_contacts = xp.asarray(sq_contacts, dtype=xp.float64)
    # d^2 < r0^2 already implies r0^2 > 0, so one comparison covers both the
    # overlap condition and the zero-contact guard.
    mask = sq_distances < sq_contacts
    denom = xp.where(mask, sq_contacts, 1.0)
    overlap = xp.where(mask, sq_contacts - sq_distances, 0.0) / denom
    return overlap * overlap


def soft_sphere_penalty_sq(
    sq_distances: np.ndarray, sq_contacts: np.ndarray
) -> np.ndarray:
    """Soft-sphere overlap penalty computed on *squared* distances.

    ``((r0^2 - d^2) / r0^2)^2`` where ``d^2 < r0^2``, zero otherwise.  The
    mask is applied before any division, so no invalid values are ever
    produced and no warning suppression is needed.  ``sq_distances`` and
    ``sq_contacts`` must broadcast together.
    """
    return _soft_sphere_penalty_sq(_XP, sq_distances, sq_contacts)


@array_kernel("indexed_sq_distances")
def _indexed_sq_distances(xp, points_a, points_b, first, second):
    """Generic squared distances of indexed point pairs (see wrapper)."""
    diff = points_a[..., first, :] - points_b[..., second, :]
    return xp.einsum("...k,...k->...", diff, diff)


def indexed_sq_distances(
    points_a: np.ndarray,
    points_b: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
) -> np.ndarray:
    """Squared distances of indexed point pairs.

    ``points_a[..., first, :]`` is paired with ``points_b[..., second, :]``;
    the result has shape ``points_a.shape[:-2] + (len(first),)``.
    """
    return _indexed_sq_distances(_XP, points_a, points_b, first, second)


@array_kernel("indexed_penalty_block")
def _indexed_penalty_block(xp, points_a, points_b, first, second, sq_contacts):
    """Per-member penalty sum of one population block (fused pair math).

    ``sq_contacts`` arrives pre-broadcast as ``(1, n_pairs)``.  The
    einsum row-sum reduces each member independently (``np.sum``'s
    pairwise blocking would not), but in an order set by the gather's
    memory layout.  On C-ordered points the gather is pair-major, so each
    member's terms add one by one in a block of two or more members, and
    a one-member block is one contiguous row, added in two lanes (pinned
    in ``tests/unit/test_reduction_order.py``); the compiled
    ``pair_penalty`` pass adds in these orders whatever the layout.
    """
    sq_d = _indexed_sq_distances(xp, points_a, points_b, first, second)
    return xp.einsum("pk->p", _soft_sphere_penalty_sq(xp, sq_d, sq_contacts))


def indexed_penalty_sum(
    points_a: np.ndarray,
    points_b: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    sq_contacts: np.ndarray,
    kernels: Optional["KernelBundle"] = None,
) -> np.ndarray:
    """Per-member soft-sphere penalty sum over indexed pairs, in
    :func:`population_blocks`.

    Parameters
    ----------
    points_a / points_b:
        ``(P, A, 3)`` / ``(P, B, 3)`` population point sets (they may be the
        same array for intra-set pairs).
    first / second:
        Pair index arrays into the second axis of ``points_a`` and
        ``points_b`` respectively.
    sq_contacts:
        ``(len(first),)`` squared contact radii per pair.
    kernels:
        Optional :class:`~repro.xp.dispatch.KernelBundle` the per-block
        pair math runs through; ``None`` (the default) runs the compiled
        ``pair_penalty`` pass on float64 ``(P, A, 3)`` points, or else
        the numpy-bound kernel, with the same bits.
    """
    pop = points_a.shape[0]
    totals = np.zeros(pop, dtype=np.float64)
    if first.size == 0:
        return totals
    lib = None
    if kernels is None and _c_points(points_a, points_b):
        lib = native.library()
    if lib is not None:
        points_a = np.ascontiguousarray(points_a)
        points_b = np.ascontiguousarray(points_b)
        first = _pair_index(first, points_a.shape[1])
        second = _pair_index(second, points_b.shape[1])
        # One contact per pair, broadcast as the generic kernel would.
        contacts = np.ascontiguousarray(
            np.broadcast_to(sq_contacts, first.shape), dtype=np.float64
        )

        def _block(block: slice) -> None:
            lib.pair_penalty(
                _row(points_a, block.start), points_a.shape[1],
                _row(points_b, block.start), points_b.shape[1],
                block.stop - block.start,
                first.ctypes.data, second.ctypes.data, first.size,
                contacts.ctypes.data, _row(totals, block.start),
            )
    else:
        sq_contacts = sq_contacts[None, :]

        def _block(block: slice) -> None:
            if kernels is None:
                totals[block] = _indexed_penalty_block(
                    _XP, points_a[block], points_b[block], first, second, sq_contacts
                )
            else:
                totals[block] = kernels.to_numpy(
                    kernels.indexed_penalty_block(
                        points_a[block], points_b[block], first, second, sq_contacts
                    )
                )

    map_blocks(_block, pop)
    return totals


def _alignment_sums(r, f, axes):
    """The CCD alignment terms ``(a, b)`` from coordinate-major blocks.

    ``r`` and ``f`` are the moving and the fixed closure atoms relative to
    each member's pivot origin, ``(3, 3, M)`` as coordinate x atom x
    member; ``axes`` is ``(3, M)``.  Any memory layout gives the same
    bits: every sum is spelled out in the order ``einsum`` / ``.sum`` add
    a member-major C-contiguous row.  Plain operators only, so it runs on
    every ``xp`` namespace; the atom-major CCD sweep calls it on its
    plane slices, the generic kernel on transposed member-major arrays.
    """
    ax, ay, az = axes[0], axes[1], axes[2]
    r_ax = einsum_sum3(r[0] * ax, r[1] * ay, r[2] * az)
    f_ax = einsum_sum3(f[0] * ax, f[1] * ay, f[2] * az)
    rf = r * f
    # The 9-term r.f in member-major row order: atom-major, then coordinate.
    rf = einsum_sum9(*(rf[i, k] for k in range(3) for i in range(3)))
    a = rf - einsum_sum3(r_ax[0] * f_ax[0], r_ax[1] * f_ax[1], r_ax[2] * f_ax[2])
    cx = r[1] * f[2] - r[2] * f[1]
    cy = r[2] * f[0] - r[0] * f[2]
    cz = r[0] * f[1] - r[1] * f[0]
    b = (
        ax * reduce_sum3(cx[0], cx[1], cx[2])
        + ay * reduce_sum3(cy[0], cy[1], cy[2])
        + az * reduce_sum3(cz[0], cz[1], cz[2])
    )
    return a, b


@array_kernel("rotation_alignment_terms")
def _rotation_alignment_terms(xp, points, targets, origins, axes):
    """Generic CCD alignment reduction (see wrapper)."""
    r = points - origins[:, None, :]
    f = targets[None, :, :] - origins[:, None, :]
    return _alignment_sums(r.T, f.T, axes.T)


def rotation_alignment_terms(
    points: np.ndarray,
    targets: np.ndarray,
    origins: np.ndarray,
    axes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-member closed-form rotation-alignment terms ``(a, b)``.

    The gather-and-reduce primitive behind CCD's per-pivot update: for each
    member ``p`` with unit rotation axis ``axes[p]`` anchored at
    ``origins[p]``, the three point pairs (moving ``points[p, k]``, fixed
    ``targets[k]``) are reduced to

    ``a = sum_k  r.f - (r.axis)(f.axis)``  and
    ``b = sum_k  axis.(r x f)``

    where ``r``/``f`` are the moving/fixed points relative to the origin —
    the expanded perpendicular products, so no ``r_perp``/``f_perp``
    temporaries are materialised, and the triple product is summed
    componentwise to avoid the dispatch overhead of ``np.cross`` on small
    populations.  ``arctan2(b, a)`` is then the rotation angle about the
    axis minimising the summed squared pair distance (both terms ~0 means
    the gradient is pure noise and the member should not rotate).

    Parameters
    ----------
    points:
        ``(P, 3, 3)`` moving points per member (CCD's three closure atoms).
    targets:
        ``(3, 3)`` fixed target points shared by all members.
    origins:
        ``(P, 3)`` rotation-axis anchor per member.
    axes:
        ``(P, 3)`` unit rotation axis per member.

    Notes
    -----
    Every sum is spelled out in the order numpy's ``einsum`` / ``.sum``
    give it on C-contiguous rows (:func:`~repro.geometry.vectors.einsum_sum3`,
    :func:`~repro.geometry.vectors.einsum_sum9`,
    :func:`~repro.geometry.vectors.reduce_sum3`), so the terms do not
    depend on the memory layout of the inputs; the atom-major CCD sweep
    computes the same terms on its ``(3, 3, K)`` planes.
    """
    return _rotation_alignment_terms(_XP, points, targets, origins, axes)


def squared_bin_edges(max_value: float, n_bins: int) -> np.ndarray:
    """Squared edges of ``n_bins`` uniform bins over ``[0, max_value)``.

    Suitable for binning squared distances with ``np.searchsorted`` without
    ever taking a square root.
    """
    if n_bins <= 0:
        raise ValueError("n_bins must be positive")
    if max_value <= 0.0:
        raise ValueError("max_value must be positive")
    edges = np.linspace(0.0, float(max_value), n_bins + 1)
    return edges * edges


@array_kernel("bin_squared_distances")
def _bin_squared_distances(xp, sq_distances, sq_edges):
    """Generic squared-distance binning (see wrapper)."""
    bins = xp.searchsorted(sq_edges, sq_distances, side="right") - 1
    return xp.clip(bins, 0, sq_edges.shape[0] - 1)


def bin_squared_distances(sq_distances: np.ndarray, sq_edges: np.ndarray) -> np.ndarray:
    """Bin squared distances against pre-squared edges.

    Values in ``[sq_edges[k], sq_edges[k+1])`` map to bin ``k``; values at
    or beyond the last edge map to the overflow bin ``len(sq_edges) - 1``.
    The single binning implementation shared by the knowledge-base builder
    and the scoring kernels, so histogram counts and runtime lookups can
    never disagree at bin edges.
    """
    return _bin_squared_distances(_XP, sq_distances, sq_edges)


@array_kernel("binned_gather_sum", static_argnums=(6,))
def _binned_gather_sum(
    xp, points, first, second, flat_tables, sq_edges, row_offsets, n_cols
):
    """Per-member table-gather sum of one population block.

    The fused gather-and-accumulate pass: the searchsorted output is
    turned into flat indices over the ravelled table (bin clamp, then
    per-pair row offsets) and gathered with ``take`` — same bin rule as
    :func:`bin_squared_distances`: values in ``[edge[k], edge[k+1])``
    land in bin ``k``, everything at or beyond the last edge in the
    overflow column ``n_cols - 1``.  ``n_cols`` is static under jit.
    """
    sq_d = _indexed_sq_distances(xp, points, points, first, second)
    indices = xp.searchsorted(sq_edges, sq_d, side="right") - 1
    indices = xp.clip(indices, 0, n_cols - 1) + row_offsets
    # Chunk-size-invariant row reduction (see indexed_penalty_sum).
    return xp.einsum("pk->p", xp.take(flat_tables, indices))


def binned_table_sum(
    points: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    pair_tables: np.ndarray,
    sq_edges: np.ndarray,
    kernels: Optional["KernelBundle"] = None,
) -> np.ndarray:
    """Per-member sum of table values selected by squared-distance binning.

    Per block, one fused gather-and-accumulate kernel: flat indices over
    the ravelled table, one ``take`` gather, one row reduction.  Nothing
    of shape ``(P, n_pairs)`` is ever materialised outside the block.
    Bin decisions, gathered values and the reduction are exactly those of
    the two-step ``searchsorted`` + row-lookup path (see
    ``tests/unit/test_pairwise.py``), so the fusion is bit-identical for
    every block size.

    Parameters
    ----------
    points:
        ``(P, A, 3)`` population point sets.
    first / second:
        Pair index arrays into the second axis of ``points``.
    pair_tables:
        ``(len(first), n_bins + 1)`` per-pair value rows.  The final column
        is the *overflow* bin: pairs at or beyond the last edge read it, so
        out-of-range pairs can be given a neutral (zero) value.
    sq_edges:
        ``(n_bins + 1,)`` squared bin edges from :func:`squared_bin_edges`.
    kernels:
        Optional :class:`~repro.xp.dispatch.KernelBundle` the per-block
        gather runs through; ``None`` runs the compiled ``binned_sum``
        pass on float64 ``(P, A, 3)`` points, or else the numpy-bound
        kernel, with the same bits.
    """
    pop = points.shape[0]
    totals = np.zeros(pop, dtype=np.float64)
    if first.size == 0:
        return totals
    n_cols = pair_tables.shape[1]
    flat_tables = np.ascontiguousarray(pair_tables, dtype=np.float64).ravel()
    lib = native.library() if kernels is None and _c_points(points) else None
    if lib is not None:
        points = np.ascontiguousarray(points)
        first = _pair_index(first, points.shape[1])
        second = _pair_index(second, points.shape[1])
        if pair_tables.ndim != 2 or pair_tables.shape[0] < first.size:
            raise IndexError("pair_tables needs one row per pair")
        edges = np.ascontiguousarray(sq_edges, dtype=np.float64)
        top = float(edges[-1])
        # Bin guess for uniform metric edges; exact comparisons decide.
        scale = (edges.size - 1) / math.sqrt(top) if 0.0 < top < math.inf else 0.0

        def _block(block: slice) -> None:
            lib.binned_sum(
                _row(points, block.start), points.shape[1],
                block.stop - block.start,
                first.ctypes.data, second.ctypes.data, first.size,
                flat_tables.ctypes.data, n_cols,
                edges.ctypes.data, edges.size, scale,
                _row(totals, block.start),
            )
    else:
        row_offsets = np.arange(first.size, dtype=np.intp) * n_cols

        def _block(block: slice) -> None:
            if kernels is None:
                totals[block] = _binned_gather_sum(
                    _XP, points[block], first, second,
                    flat_tables, sq_edges, row_offsets, n_cols,
                )
            else:
                totals[block] = kernels.to_numpy(
                    kernels.binned_gather_sum(
                        points[block], first, second,
                        flat_tables, sq_edges, row_offsets, n_cols,
                    )
                )

    map_blocks(_block, pop)
    return totals


#: The 27 cell offsets of a 3x3x3 neighbourhood.
_NEIGHBOUR_OFFSETS = np.array(
    [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)],
    dtype=np.int64,
)


class EnvironmentGrid:
    """Uniform cell list over a fixed set of environment atoms.

    The grid is built once (the environment never moves during sampling)
    with cell edge at least the query cutoff (normally equal; enlarged
    only when the cutoff is so small the cell count would exceed
    ``_MAX_CELLS``), so every atom within ``cutoff`` of a probe point lies
    in the probe's own cell or one of its 26 neighbours.  The cell array carries a two-cell empty border, which
    removes every bounds check from the query: probe cells are clipped into
    the border, neighbour offsets become plain integer adds on ravelled
    cell ids, and out-of-box probes simply read empty cells.

    Candidate pairs come out in the canonical *(probe, cell-sorted atom)*
    order — the same order :meth:`dense_pairs` enumerates — so pruned and
    dense accumulations see the shared pairs in the same sequence and their
    per-member totals are bit-identical (the pairs pruning drops lie beyond
    ``cutoff`` and contribute exact zeros).
    """

    #: Width of the empty border of cells around the occupied box.
    _PAD = 2

    #: Upper bound on the total (unpadded) cell count.  When the cutoff is
    #: tiny relative to the environment extent, the cell edge is enlarged
    #: to respect this bound — a coarser grid prunes less but stays
    #: correct, since the 27-cell guarantee only needs edge >= cutoff.
    _MAX_CELLS = 1 << 21

    def __init__(self, coords: np.ndarray, cutoff: float) -> None:
        coords = np.ascontiguousarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ValueError("coords must have shape (M, 3)")
        if not (cutoff > 0.0):
            raise ValueError("cutoff must be positive")
        self.coords = coords
        self.cutoff = float(cutoff)
        self.n_atoms = coords.shape[0]

        pad = self._PAD
        if self.n_atoms == 0:
            self._origin = np.zeros(3)
            self._dims = np.ones(3, dtype=np.int64)
            self._cell_edge = self.cutoff
            self._sorted_atoms = np.empty(0, dtype=np.int64)
            self._sorted_coords = np.empty((0, 3), dtype=np.float64)
            self._starts = np.zeros(2, dtype=np.int64)
            self._offset_ids = np.zeros(27, dtype=np.int64)
            return

        self._origin = coords.min(axis=0)
        extent = coords.max(axis=0) - self._origin
        edge = self.cutoff
        dims = np.floor(extent / edge).astype(np.int64) + 1
        while int(dims.prod()) > self._MAX_CELLS:
            edge *= 2.0
            dims = np.floor(extent / edge).astype(np.int64) + 1
        self._cell_edge = edge
        self._dims = dims
        padded = self._dims + 2 * pad
        cells = np.floor((coords - self._origin) / self._cell_edge).astype(np.int64)
        # Atoms on the far boundary land exactly on dims; pull them in.
        np.minimum(cells, self._dims - 1, out=cells)
        cell_ids = self._ravel_padded(cells + pad)
        # Stable sort keeps atoms ascending within each cell.
        order = np.argsort(cell_ids, kind="stable")
        self._sorted_atoms = order
        self._sorted_coords = coords[order]
        counts = np.bincount(cell_ids, minlength=int(padded.prod()))
        self._starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)]
        )
        # Ravelled-id deltas of the 27 neighbour cells.  The lexicographic
        # offset order is ascending in ravelled ids, which is what keeps a
        # probe's candidate runs sorted by cell without any extra sort.
        self._offset_ids = (
            _NEIGHBOUR_OFFSETS[:, 0] * padded[1] + _NEIGHBOUR_OFFSETS[:, 1]
        ) * padded[2] + _NEIGHBOUR_OFFSETS[:, 2]

    # ------------------------------------------------------------------
    # Cell arithmetic
    # ------------------------------------------------------------------

    def _ravel_padded(self, cells: np.ndarray) -> np.ndarray:
        padded = self._dims + 2 * self._PAD
        return (cells[..., 0] * padded[1] + cells[..., 1]) * padded[2] + cells[..., 2]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def candidate_pairs(self, probes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate (probe, atom) pairs from the cell neighbourhood.

        Returns two equally long index arrays in canonical (probe,
        cell-sorted atom) order.  The candidate set is a superset of all
        pairs closer than ``cutoff``; pairs it omits are guaranteed to be
        farther apart than ``cutoff``.
        """
        probes = np.asarray(probes, dtype=np.float64)
        n_probes = probes.shape[0]
        empty = np.empty(0, dtype=np.int64)
        if n_probes == 0 or self.n_atoms == 0:
            return empty, empty

        cells = np.floor((probes - self._origin) / self._cell_edge).astype(np.int64)
        # Clip far-out probes into the first border ring; border cells are
        # empty, and any probe clipped this way is farther than cutoff from
        # every atom, so spurious candidates only cost (exactly zero) work.
        np.clip(cells, -1, self._dims, out=cells)
        base_ids = self._ravel_padded(cells + self._PAD)
        # (Q, 27): bounded by the fixed 27-cell neighbourhood, not (P, P).
        cell_ids = base_ids[:, None] + self._offset_ids[None, :]
        starts = self._starts[cell_ids]
        counts = self._starts[cell_ids + 1] - starts

        flat_counts = counts.ravel()
        total = int(flat_counts.sum())
        if total == 0:
            return empty, empty
        # Ragged gather: positions into the cell-sorted atom array.  Within
        # a probe the 27 runs have ascending cell ids, so the positions are
        # strictly increasing — already canonically ordered.
        bases = np.repeat(starts.ravel(), flat_counts)
        cum = np.cumsum(flat_counts) - flat_counts
        within = np.arange(total, dtype=np.int64) - np.repeat(cum, flat_counts)
        positions = bases + within
        probe_ids = np.repeat(
            np.arange(n_probes, dtype=np.int64), counts.sum(axis=1)
        )
        return probe_ids, positions

    def candidate_neighbors(self, probes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate pairs as (probe index, *original* atom index).

        Like :meth:`candidate_pairs`, but with the cell-sorted positions
        mapped back to the indices of the coordinate array the grid was
        built from — the form consumers that index their own per-atom data
        (e.g. the batch-RMSD pruning) need.
        """
        probe_ids, positions = self.candidate_pairs(probes)
        return probe_ids, self._sorted_atoms[positions]

    def penalty_sum(
        self,
        probes: np.ndarray,
        sq_contacts: np.ndarray,
    ) -> np.ndarray:
        """Per-member soft-sphere penalty of probes against the environment.

        Each block runs the compiled ``env_penalty`` pass, which walks the
        27 cells around every probe and adds the pairs in the order of
        the numpy form (:meth:`candidate_pairs` plus ``np.bincount``),
        the route taken when no C compiler works; both give the same
        bits.

        Parameters
        ----------
        probes:
            ``(P, A, 3)`` probe positions (``A`` probe slots per member).
        sq_contacts:
            ``(A, M)`` squared contact radii between each probe slot and
            each environment atom.  The grid cutoff must be at least the
            largest corresponding metric contact, otherwise pruning could
            drop pairs with non-zero penalty.
        """
        probes = np.ascontiguousarray(probes, dtype=np.float64)
        if probes.ndim != 3 or probes.shape[2] != 3:
            raise ValueError("probes must have shape (P, A, 3)")
        pop, slots = probes.shape[0], probes.shape[1]
        totals = np.zeros(pop, dtype=np.float64)
        if self.n_atoms == 0 or slots == 0:
            return totals
        # Each slot's contacts in cell-sorted atom order.
        contacts = np.ascontiguousarray(
            np.asarray(sq_contacts, dtype=np.float64)[
                np.arange(slots)[:, None], self._sorted_atoms
            ]
        )
        lib = native.library()
        if lib is not None:

            def _block(block: slice) -> None:
                lib.env_penalty(
                    _row(probes, block.start), block.stop - block.start, slots,
                    self._origin.ctypes.data, self._cell_edge, self._dims.ctypes.data,
                    self._starts.ctypes.data, self._sorted_coords.ctypes.data,
                    contacts.ctypes.data, self.n_atoms, _row(totals, block.start),
                )
        else:

            def _block(block: slice) -> None:
                chunk = probes[block]
                members = chunk.shape[0]
                flat = chunk.reshape(members * slots, 3)
                probe_ids, positions = self.candidate_pairs(flat)
                if probe_ids.size == 0:
                    return
                diff = flat[probe_ids] - self._sorted_coords[positions]
                sq_d = np.einsum("ij,ij->i", diff, diff)
                sq_c = contacts[probe_ids % slots, positions]
                penalties = soft_sphere_penalty_sq(sq_d, sq_c)
                totals[block] = np.bincount(
                    probe_ids // slots, weights=penalties, minlength=members
                )

        map_blocks(_block, pop)
        return totals
