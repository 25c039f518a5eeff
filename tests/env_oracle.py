"""Test-only dense reference of the VDW environment term.

``EnvironmentGrid.penalty_sum`` and ``SoftSphereVDW`` once took a knob
(``prune=False`` / ``env_pruning=False``) that evaluated every (probe,
atom) pair instead of the cell-list candidates, only so that the pruned
totals had a reference to be compared with.  The dense loop lives here
now.  It enumerates the pairs in the canonical (probe, cell-sorted atom)
order the candidates come in and accumulates them through the same
``einsum`` + ``np.bincount`` path, so the pairs pruning drops (all beyond
the cutoff) add exact zeros and the totals equal the pruned ones bit for
bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.scoring.pairwise import (
    EnvironmentGrid,
    indexed_penalty_sum,
    population_blocks,
    soft_sphere_penalty_sq,
)


def dense_pairs(grid: EnvironmentGrid, n_probes: int):
    """All (probe, cell-sorted position) pairs in canonical order."""
    probe_ids = np.repeat(np.arange(n_probes, dtype=np.int64), grid.n_atoms)
    positions = np.tile(np.arange(grid.n_atoms, dtype=np.int64), n_probes)
    return probe_ids, positions


def penalty_sum(
    grid: EnvironmentGrid,
    probes: np.ndarray,
    sq_contacts: np.ndarray,
    block_size: Optional[int] = None,
) -> np.ndarray:
    """``grid.penalty_sum`` over every (probe, atom) pair."""
    probes = np.asarray(probes, dtype=np.float64)
    pop, slots = probes.shape[0], probes.shape[1]
    totals = np.zeros(pop, dtype=np.float64)
    if grid.n_atoms == 0 or slots == 0:
        return totals
    for block in population_blocks(pop, block_size):
        chunk = probes[block]
        members = chunk.shape[0]
        flat = chunk.reshape(members * slots, 3)
        probe_ids, positions = dense_pairs(grid, members * slots)
        diff = flat[probe_ids] - grid._sorted_coords[positions]
        sq_d = np.einsum("ij,ij->i", diff, diff)
        sq_c = sq_contacts[probe_ids % slots, grid._sorted_atoms[positions]]
        penalties = soft_sphere_penalty_sq(sq_d, sq_c)
        totals[block] = np.bincount(
            probe_ids // slots, weights=penalties, minlength=members
        )
    return totals


def soft_sphere_vdw(scorer, coords: np.ndarray) -> np.ndarray:
    """``scorer.evaluate_batch(coords, None)`` with the dense environment
    term: the five terms added per member in the scorer's order."""
    coords = np.asarray(coords, dtype=np.float64)
    pop = coords.shape[0]
    flat = coords.reshape(pop, -1, 3)
    centroids = scorer._centroids(coords)
    total = indexed_penalty_sum(
        flat, flat, scorer._aa_first, scorer._aa_second, scorer._aa_sq_contact,
        scorer.block_size,
    )
    total += indexed_penalty_sum(
        centroids, centroids, scorer._cc_first, scorer._cc_second,
        scorer._cc_sq_contact, scorer.block_size,
    )
    total += indexed_penalty_sum(
        flat, centroids, scorer._ac_atom, scorer._ac_cen, scorer._ac_sq_contact,
        scorer.block_size,
    )
    grid = scorer._env_grid
    if grid is not None:
        total += penalty_sum(grid, flat, scorer._env_atom_sq_contact, scorer.block_size)
        total += penalty_sum(
            grid, centroids, scorer._env_cen_sq_contact, scorer.block_size
        )
    return total
