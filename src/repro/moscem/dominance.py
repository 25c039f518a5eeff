"""Pareto dominance and the strength-based fitness assignment of Eq. (1).

All objectives are minimised.  A conformation ``a`` *dominates* ``b`` when
``a`` is no worse than ``b`` in every scoring function and strictly better
in at least one.  Following the paper:

* the *strength* ``s_i`` of a non-dominated conformation is the proportion
  of the population it dominates;
* the *fitness* of a non-dominated conformation is its strength (always
  < 1);
* the fitness of a dominated conformation is 1 plus the sum of the
  strengths of the non-dominated conformations that dominate it (always
  >= 1).

Hence "fitness < 1" identifies the current Pareto-optimal front, the
property the sampler uses when harvesting decoys.

Front first
-----------
Only the F front members carry a strength, so the passes never compare all
N x N pairs (the maxima-of-vectors filter of Kung, Luccio & Preparata,
JACM 1975, as used for MOEAs by Jensen, IEEE TEVC 2003):

1. **Find the front.**  Rows are sorted lexicographically
   (:func:`numpy.lexsort`).  A dominator is no greater in every column and
   smaller in one, so it sorts strictly before every member it dominates.
   The sorted rows are walked in :func:`~repro.scoring.pairwise.population_blocks`
   chunks of B members; each chunk is tested against the front found so far,
   then against itself.  Dominance is transitive, so a dominated member is
   dominated by some front member, and that member sorts before it: either
   in an earlier chunk (already in the front) or in the same chunk.
2. **Count over dominated columns only.**  A front member dominates only
   dominated members, so the domination counts are an F x D pass over the
   D = N - F dominated columns, and each dominated member's sum of its front
   dominators' counts is a second F x D pass.

The cost is O(N * (F + B)) pairs instead of N^2; when every member is on
the front the filter compares each pair once, about N^2 / 2 pairs.  The
result is bit-identical to the full N x N streaming passes (kept as a
test-only oracle): the front is a set, so the sort order only decides
the comparison schedule, not the outcome; counts and count sums are
integers; and each fitness is one division of an integer by N, exactly as
before.

Two routes, one set of bits
---------------------------
With no kernel bundle, each pass is one call of the compiled
``non_dominated_mask`` / ``strength_fitness`` / ``fitness_against`` of
:mod:`repro.native`: the lexicographic order still comes from
:func:`numpy.lexsort`, then each member is tested against the front found
before it (B = 1, no temporaries), and the counts, count sums and the one
division per fitness run in C on the same integers.  A kernel bundle, or
a host without a working compiler, runs the *generic* passes on the
bundle's namespace (numpy without a compiler) with the same bits; only
there is every temporary ``(F, B, K)`` or ``(B, N, K)``, bounded along
one axis by the fixed block of
:data:`~repro.scoring.pairwise.DEFAULT_BLOCK_SIZE` = 128 members.  No
option selects a route.

Non-finite scores
-----------------
A row holding any NaN fails every ``<=`` and ``<`` comparison, on both
routes, so it is never dominated and dominates nothing: it is a front
member with fitness 0.  :func:`numpy.lexsort` puts a NaN after every
number of its key, so such a row lands after the rows that tie with it on
the preceding keys; where it lands does not matter, since it has no
dominance relation to any row.  ``+inf`` and ``-inf`` compare like any
other value, and ``-0.0`` ties with ``0.0``.

The generic route's per-block comparison — its only dense array math — is
the :func:`_dominance_columns` kernel registered with the :mod:`repro.xp`
facade; the generic passes are host orchestration and take an optional
:class:`~repro.xp.dispatch.KernelBundle` to route the block comparisons
through a compiled namespace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro import native
from repro.scoring.pairwise import population_blocks
from repro.xp.dispatch import array_kernel
from repro.xp.xp import numpy_namespace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.xp.dispatch import KernelBundle

#: Numpy namespace the public wrappers bind the generic kernels to.
_XP = numpy_namespace()

__all__ = [
    "dominates",
    "dominance_matrix",
    "non_dominated_mask",
    "strength_fitness",
    "fitness_against",
]


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether score vector ``a`` Pareto-dominates ``b`` (minimisation)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return bool(np.all(a <= b) and np.any(a < b))


def dominance_matrix(scores: np.ndarray) -> np.ndarray:
    """Boolean matrix ``D`` with ``D[i, j]`` true when member i dominates j.

    Parameters
    ----------
    scores:
        ``(N, K)`` score matrix (lower is better in every column).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("scores must have shape (N, K)")
    return _dominance_columns(_XP, scores, scores)


@array_kernel("dominance_columns")
def _dominance_columns(xp, scores, column_scores):
    """``(N, B)`` block: whether each of N members dominates each column."""
    leq = xp.all(scores[:, None, :] <= column_scores[None, :, :], axis=-1)
    lt = xp.any(scores[:, None, :] < column_scores[None, :, :], axis=-1)
    return leq & lt


def _dominance_block(
    scores: np.ndarray,
    column_scores: np.ndarray,
    kernels: Optional["KernelBundle"],
) -> np.ndarray:
    """Host-side ``(N, B)`` dominance block, via the selected bundle."""
    if kernels is None:
        return _dominance_columns(_XP, scores, column_scores)
    return kernels.to_numpy(kernels.dominance_columns(scores, column_scores))


def _score_matrix(scores: np.ndarray, name: str = "scores") -> np.ndarray:
    """``scores`` as a C-ordered float64 ``(N, K)`` matrix, the layout the
    compiled passes read; anything but two dimensions raises."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"{name} must have shape (N, K)")
    return np.ascontiguousarray(scores)


def _compiled_pass(compiled, scores: np.ndarray, *tail) -> np.ndarray:
    """Run the compiled dominance pass ``compiled`` on the reference set
    ``scores`` (C-ordered float64 ``(N, K)``): the pass takes the scores,
    their shape, their lexicographic order and two O(N) buffers, then
    ``tail`` (arrays by address).  Returns the is-front mask it set."""
    n, k = scores.shape
    order = _lexicographic_order(scores).astype(np.int64, copy=False)
    is_front = np.empty(n, dtype=bool)
    front = np.empty(n, dtype=np.int64)
    compiled(*[
        arg.ctypes.data if isinstance(arg, np.ndarray) else arg
        for arg in (scores, n, k, order, is_front, front, *tail)
    ])
    return is_front


def _lexicographic_order(scores: np.ndarray) -> np.ndarray:
    """Row order, first column most significant, in which every member
    sorts strictly after all of its dominators (NaN sorts last per key)."""
    if scores.shape[1] == 0:  # no objectives: nothing dominates anything
        return np.arange(scores.shape[0])
    return np.lexsort(scores.T[::-1])


def _front(
    scores: np.ndarray, kernels: Optional["KernelBundle"] = None
) -> np.ndarray:
    """Indices of the non-dominated members, in lexicographic order.

    Walks the lexicographic order in chunks; each chunk is filtered against
    the front found so far and then against itself (see the module
    docstring for why that is sufficient).
    """
    n, k = scores.shape
    order = _lexicographic_order(scores)
    front = np.empty(n, dtype=np.intp)
    front_scores = np.empty((n, k), dtype=np.float64)
    size = 0
    for block in population_blocks(n):
        members = order[block]
        member_scores = scores[members]
        if size:
            keep = ~np.any(
                _dominance_block(front_scores[:size], member_scores, kernels), axis=0
            )
            members, member_scores = members[keep], member_scores[keep]
        keep = ~np.any(_dominance_block(member_scores, member_scores, kernels), axis=0)
        added = int(keep.sum())
        front[size : size + added] = members[keep]
        front_scores[size : size + added] = member_scores[keep]
        size += added
    return front[:size]


def _strength_pass(
    scores: np.ndarray, kernels: Optional["KernelBundle"] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Front indices, their integer domination counts and dominated indices.

    Front members dominate only dominated members, so the counts stream
    over the dominated columns alone; they are integer sums, so the result
    does not depend on the block size.
    """
    front = _front(scores, kernels)
    is_dominated = np.ones(scores.shape[0], dtype=bool)
    is_dominated[front] = False
    dominated = np.flatnonzero(is_dominated)
    front_scores = scores[front]
    counts = np.zeros(front.size, dtype=np.int64)
    for block in population_blocks(dominated.size):
        counts += _dominance_block(
            front_scores, scores[dominated[block]], kernels
        ).sum(axis=1)
    return front, counts, dominated


def non_dominated_mask(
    scores: np.ndarray, kernels: Optional["KernelBundle"] = None
) -> np.ndarray:
    """Boolean mask of the members not dominated by any other member.

    Parameters
    ----------
    scores:
        ``(N, K)`` score matrix.
    kernels:
        Optional kernel bundle the block comparisons run through;
        ``None`` runs the compiled pass (or, with no compiler, the
        generic one on numpy), with the same result.
    """
    scores = _score_matrix(scores)
    lib = native.library() if kernels is None else None
    if lib is not None:
        return _compiled_pass(lib.non_dominated_mask, scores)
    mask = np.zeros(scores.shape[0], dtype=bool)
    mask[_front(scores, kernels)] = True
    return mask


def strength_fitness(
    scores: np.ndarray, kernels: Optional["KernelBundle"] = None
) -> np.ndarray:
    """Fitness of every member of a score set, per the paper's Eq. (1).

    Parameters
    ----------
    scores:
        ``(N, K)`` score matrix.
    kernels:
        Optional kernel bundle the block comparisons run through;
        ``None`` runs the compiled pass (or, with no compiler, the
        generic one on numpy), with the same bits.

    Returns
    -------
    numpy.ndarray
        ``(N,)`` fitness values; values below 1 identify the non-dominated
        (Pareto-front) members.
    """
    scores = _score_matrix(scores)
    n = scores.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    lib = native.library() if kernels is None else None
    if lib is not None:
        fitness = np.empty(n, dtype=np.float64)
        _compiled_pass(
            lib.strength_fitness, scores, np.empty(n, dtype=np.int64), fitness
        )
        return fitness
    front, counts, dominated = _strength_pass(scores, kernels)

    fitness = np.empty(n, dtype=np.float64)
    # Non-dominated: fitness equals own strength (< 1 by construction).
    fitness[front] = counts / float(n)
    # Dominated: 1 + sum of strengths of the front members that dominate
    # them.  The strengths share the denominator n, so the sum is
    # accumulated on the integer domination counts and divided once —
    # exact, hence independent of the chunking.
    front_scores = scores[front]
    for block in population_blocks(dominated.size):
        cols = dominated[block]
        dominators = _dominance_block(front_scores, scores[cols], kernels)
        count_sums = (counts[:, None] * dominators).sum(axis=0)
        fitness[cols] = 1.0 + count_sums / float(n)
    return fitness


def fitness_against(
    reference_scores: np.ndarray,
    query_scores: np.ndarray,
    kernels: Optional["KernelBundle"] = None,
) -> np.ndarray:
    """Fitness of query conformations evaluated against a reference set.

    Used by the Metropolis step: the fitness of a proposed conformation (and
    of the conformation it would replace) is computed against the members of
    its complex.  Each query is scored independently, i.e. queries do not
    affect each other's fitness.

    Parameters
    ----------
    reference_scores:
        ``(N, K)`` scores of the reference set (the complex).
    query_scores:
        ``(Q, K)`` scores of the query conformations, or one ``(K,)``
        query.
    kernels:
        Optional kernel bundle the block comparisons run through;
        ``None`` runs the compiled pass (or, with no compiler, the
        generic one on numpy), with the same bits.

    Returns
    -------
    numpy.ndarray
        ``(Q,)`` fitness values on the same scale as
        :func:`strength_fitness`.

    Raises
    ------
    ValueError
        When the reference set is not 2-D, the queries are not 1-D or
        2-D, or their number of objectives differs from the reference's.
    """
    reference_scores = _score_matrix(reference_scores, "reference_scores")
    query_scores = np.asarray(query_scores, dtype=np.float64)
    if query_scores.ndim == 1:
        query_scores = query_scores[None, :]
    query_scores = _score_matrix(query_scores, "query_scores")
    n, k = reference_scores.shape
    q = query_scores.shape[0]
    if query_scores.shape[1] != k:
        raise ValueError(
            f"query_scores have {query_scores.shape[1]} objectives, "
            f"the reference set {k}"
        )
    if n == 0:
        return np.zeros(q, dtype=np.float64)
    lib = native.library() if kernels is None else None
    if lib is not None:
        fitness = np.empty(q, dtype=np.float64)
        _compiled_pass(
            lib.fitness_against, reference_scores, np.empty(n, dtype=np.int64),
            query_scores, q, fitness,
        )
        return fitness

    ref_front, ref_counts, _ = _strength_pass(reference_scores, kernels)
    front_scores = reference_scores[ref_front]

    fitness = np.empty(q, dtype=np.float64)
    for block in population_blocks(q):
        queries = query_scores[block]
        # (F, B): front member i dominates query j of the block.  By
        # transitivity a query dominated by any reference member is
        # dominated by a front member.
        front_dominates_query = _dominance_block(front_scores, queries, kernels)
        query_nd = ~np.any(front_dominates_query, axis=0)  # (B,)
        block_fitness = np.empty(queries.shape[0], dtype=np.float64)

        # Non-dominated queries: strength relative to the reference set
        # (integer domination counts over the full reference axis).
        if np.any(query_nd):
            # (B_nd, N): non-dominated query i dominates reference member j.
            query_dominates_ref = _dominance_block(
                queries[query_nd], reference_scores, kernels
            )
            block_fitness[query_nd] = query_dominates_ref.sum(axis=1) / float(n)
        # Dominated queries: 1 + sum of strengths of dominating front
        # members, as integer counts divided once (see strength_fitness).
        dominated = ~query_nd
        if np.any(dominated):
            dominators = front_dominates_query[:, dominated]
            count_sums = (ref_counts[:, None] * dominators).sum(axis=0)
            block_fitness[dominated] = 1.0 + count_sums / float(n)
        fitness[block] = block_fitness
    return fitness
