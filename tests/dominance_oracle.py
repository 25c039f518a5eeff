"""Test-only oracle: the streaming O(N^2) dominance passes.

These are the column-streaming ``_strength_pass``, ``non_dominated_mask``,
``strength_fitness`` and ``fitness_against`` that
:mod:`repro.moscem.dominance` shipped before its front-first rewrite,
kept verbatim as the reference the front-first passes must reproduce
bit for bit (``np.array_equal``).  Every member is compared with every
other member, so the oracle compares at least N^2 pairs.  Block
comparisons go through the same ``_dominance_block`` as the production
code, so a counting kernel bundle sees both implementations' work.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.moscem.dominance import _dominance_block
from repro.scoring.pairwise import population_blocks

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.xp.dispatch import KernelBundle


def _strength_pass(
    scores: np.ndarray,
    block_size: Optional[int],
    kernels: Optional["KernelBundle"] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Chunked first pass: non-dominated mask and integer domination counts.

    Streams column blocks of the dominance matrix; the dominated mask is an
    any-reduction and the domination counts are integer sums, so the result
    does not depend on the block size.  Counts of dominated members are
    zeroed — they never contribute to fitness sums.
    """
    n = scores.shape[0]
    dominated = np.zeros(n, dtype=bool)
    counts = np.zeros(n, dtype=np.int64)
    for block in population_blocks(n, block_size):
        dom = _dominance_block(scores, scores[block], kernels)
        dominated[block] = np.any(dom, axis=0)
        counts += dom.sum(axis=1)
    nd_mask = ~dominated
    counts[dominated] = 0
    return nd_mask, counts


def non_dominated_mask(
    scores: np.ndarray,
    block_size: Optional[int] = None,
    kernels: Optional["KernelBundle"] = None,
) -> np.ndarray:
    """Boolean mask of the members not dominated by any other member.

    Parameters
    ----------
    scores:
        ``(N, K)`` score matrix.
    block_size:
        Column chunk size (see :func:`repro.scoring.pairwise.population_blocks`);
        the peak temporary is ``(N, B, K)`` instead of ``(N, N, K)``.
    kernels:
        Optional kernel bundle the block comparisons run through.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("scores must have shape (N, K)")
    n = scores.shape[0]
    dominated = np.zeros(n, dtype=bool)
    for block in population_blocks(n, block_size):
        dominated[block] = np.any(
            _dominance_block(scores, scores[block], kernels), axis=0
        )
    return ~dominated


def strength_fitness(
    scores: np.ndarray,
    block_size: Optional[int] = None,
    kernels: Optional["KernelBundle"] = None,
) -> np.ndarray:
    """Fitness of every member of a score set, per the paper's Eq. (1).

    Parameters
    ----------
    scores:
        ``(N, K)`` score matrix.
    block_size:
        Population chunk size bounding the dominance temporaries (``None``
        or ``0`` selects the engine default); the result is bit-identical
        for every value.
    kernels:
        Optional kernel bundle the block comparisons run through.

    Returns
    -------
    numpy.ndarray
        ``(N,)`` fitness values; values below 1 identify the non-dominated
        (Pareto-front) members.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("scores must have shape (N, K)")
    n = scores.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    nd_mask, counts = _strength_pass(scores, block_size, kernels)

    fitness = np.empty(n, dtype=np.float64)
    # Non-dominated: fitness equals own strength (< 1 by construction).
    fitness[nd_mask] = counts[nd_mask] / float(n)
    # Dominated: 1 + sum of strengths of the non-dominated members that
    # dominate them.  The strengths share the denominator n, so the sum is
    # accumulated on the integer domination counts and divided once —
    # exact, hence independent of the column chunking.
    dominated_idx = np.where(~nd_mask)[0]
    for block in population_blocks(dominated_idx.size, block_size):
        cols = dominated_idx[block]
        dominators = _dominance_block(scores, scores[cols], kernels) & nd_mask[:, None]
        count_sums = (counts[:, None] * dominators).sum(axis=0)
        fitness[cols] = 1.0 + count_sums / float(n)
    return fitness


def fitness_against(
    reference_scores: np.ndarray,
    query_scores: np.ndarray,
    block_size: Optional[int] = None,
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
        ``(Q, K)`` scores of the query conformations.
    block_size:
        Query chunk size bounding the ``(N, Q)`` cross-dominance temporaries
        (``None`` or ``0`` selects the engine default); the result is
        bit-identical for every value.
    kernels:
        Optional kernel bundle the block comparisons run through.

    Returns
    -------
    numpy.ndarray
        ``(Q,)`` fitness values on the same scale as
        :func:`strength_fitness`.
    """
    reference_scores = np.asarray(reference_scores, dtype=np.float64)
    query_scores = np.asarray(query_scores, dtype=np.float64)
    if query_scores.ndim == 1:
        query_scores = query_scores[None, :]
    n = reference_scores.shape[0]
    q = query_scores.shape[0]
    if n == 0:
        return np.zeros(q, dtype=np.float64)

    # Domination counts of the reference set (chunked over reference
    # columns); counts of dominated reference members are already zeroed.
    ref_nd, ref_counts = _strength_pass(reference_scores, block_size, kernels)

    fitness = np.empty(q, dtype=np.float64)
    for block in population_blocks(q, block_size):
        queries = query_scores[block]
        # (N, B): reference member i dominates query j of the block.
        ref_dominates_query = _dominance_block(reference_scores, queries, kernels)
        query_nd = ~np.any(ref_dominates_query, axis=0)  # (B,)
        block_fitness = np.empty(queries.shape[0], dtype=np.float64)

        # Non-dominated queries: strength relative to the reference set
        # (integer domination counts over the full reference axis).
        if np.any(query_nd):
            # (B_nd, N): non-dominated query i dominates reference member j.
            query_dominates_ref = _dominance_block(
                queries[query_nd], reference_scores, kernels
            )
            block_fitness[query_nd] = query_dominates_ref.sum(axis=1) / float(n)
        # Dominated queries: 1 + sum of strengths of dominating
        # non-dominated reference members (full reference-axis reduction).
        dominated = ~query_nd
        if np.any(dominated):
            dominators = ref_dominates_query[:, dominated] & ref_nd[:, None]
            # Integer count accumulation, one division (see strength_fitness).
            count_sums = (ref_counts[:, None] * dominators).sum(axis=0)
            block_fitness[dominated] = 1.0 + count_sums / float(n)
        fitness[block] = block_fitness
    return fitness
