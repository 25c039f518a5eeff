"""Soft-sphere van der Waals scoring function ([VDW], paper ref [8]).

Estimates the degree of steric clashes:

* among the loop backbone atoms themselves,
* between loop backbone atoms and side-chain centroid pseudo-atoms,
* among the centroids,
* and between all of the above and the atoms of the rest of the protein
  (the *environment*),

by summing a soft overlap penalty ``((r0^2 - d^2) / r0^2)^2`` over every
pair closer than its contact distance ``r0`` (a tolerance fraction of the
sum of radii).  This mirrors the atom-atom / atom-centroid /
centroid-centroid decomposition described in Section III.B of the paper.

All four terms run on the shared pairwise kernel engine
(:mod:`repro.scoring.pairwise`): the penalty is evaluated directly on
squared distances (the formula never needs the metric distance, so no
``sqrt`` is taken anywhere), the population is processed in cache-sized
blocks spread over the member threads, and the environment term walks a
uniform cell grid built once at construction instead of materialising
the full ``(P, n*4, M)`` pair block — the temporary that made the seed's
batched path slower than its scalar one.  Each block is one call of a
compiled pass of :mod:`repro.native` (``pair_penalty`` for the three
intra-loop terms, ``env_penalty`` for the environment), which gives the
bits of the numpy kernels it replaced; a kernel bundle runs the three
intra-loop terms as generic kernels instead, and the environment term
still runs the compiled pass (its ragged cell walk does not jit).  The
five terms add per member in a fixed order: atom-atom,
centroid-centroid, atom-centroid, environment atoms, environment
centroids.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import constants
from repro.loops.loop import LoopTarget
from repro.scoring.base import ScoringFunction
from repro.scoring.pairwise import (
    EnvironmentGrid,
    indexed_penalty_sum,
    soft_sphere_penalty_sq,
)

__all__ = ["SoftSphereVDW", "soft_sphere_penalty"]


def soft_sphere_penalty(distances: np.ndarray, contact: np.ndarray) -> np.ndarray:
    """Soft-sphere overlap penalty for distances below the contact radius.

    ``((r0^2 - d^2) / r0^2)^2`` for ``d < r0``, zero otherwise.  Fully
    vectorised; ``distances`` and ``contact`` must broadcast together.
    Thin metric-distance wrapper over
    :func:`repro.scoring.pairwise.soft_sphere_penalty_sq`, which applies
    the overlap mask before dividing so no invalid values are ever formed.
    """
    distances = np.asarray(distances, dtype=np.float64)
    contact = np.asarray(contact, dtype=np.float64)
    # Squaring would lose the sign of a (nonsensical) negative contact, so
    # zero those out first to preserve the documented "zero otherwise".
    sq_contact = np.where(contact > 0.0, contact * contact, 0.0)
    return soft_sphere_penalty_sq(distances * distances, sq_contact)


class SoftSphereVDW(ScoringFunction):
    """Soft-sphere clash score bound to one loop target."""

    name = "VDW"
    kernel_name = "EvalVDW"
    #: Registers per thread of the corresponding CUDA kernel (paper Table III).
    registers_per_thread = 32

    def __init__(
        self,
        target: LoopTarget,
        tolerance: float = constants.SOFT_SPHERE_TOLERANCE,
        min_residue_separation: int = 2,
        block_size: Optional[int] = None,
    ) -> None:
        if not (0.0 < tolerance <= 1.0):
            raise ValueError("tolerance must be in (0, 1]")
        if min_residue_separation < 1:
            raise ValueError("min_residue_separation must be >= 1")
        self.target = target
        self.tolerance = tolerance
        self.min_residue_separation = min_residue_separation
        self.block_size = block_size

        n = target.n_residues
        n_types = constants.BACKBONE_ATOMS_PER_RESIDUE

        # Radii of the loop backbone atoms, flattened residue-major.
        atom_radii = np.array(
            [constants.VDW_RADIUS[a] for a in constants.BACKBONE_ATOM_NAMES]
        )
        self._loop_radii = np.tile(atom_radii, n)  # (n*4,)
        self._loop_residue = np.repeat(np.arange(n), n_types)  # (n*4,)

        # Centroid parameters per residue.
        self._centroid_dist = target.centroid_distances  # (n,)
        self._centroid_radii = target.centroid_radii  # (n,)
        self._has_centroid = self._centroid_dist > 0.0

        # Intra-loop atom-atom pairs with sufficient residue separation.
        first, second = np.triu_indices(n * n_types, k=1)
        sep_ok = (
            np.abs(self._loop_residue[first] - self._loop_residue[second])
            >= self.min_residue_separation
        )
        self._aa_first = first[sep_ok]
        self._aa_second = second[sep_ok]
        aa_contact = self.tolerance * (
            self._loop_radii[self._aa_first] + self._loop_radii[self._aa_second]
        )
        self._aa_sq_contact = aa_contact * aa_contact

        # Intra-loop centroid-centroid pairs.
        cf, cs = np.triu_indices(n, k=1)
        sep_ok = (cs - cf) >= self.min_residue_separation
        both = self._has_centroid[cf] & self._has_centroid[cs]
        keep = sep_ok & both
        self._cc_first = cf[keep]
        self._cc_second = cs[keep]
        cc_contact = self.tolerance * (
            self._centroid_radii[self._cc_first] + self._centroid_radii[self._cc_second]
        )
        self._cc_sq_contact = cc_contact * cc_contact

        # Intra-loop atom-centroid pairs.
        atom_idx, cen_idx = np.meshgrid(
            np.arange(n * n_types), np.arange(n), indexing="ij"
        )
        atom_idx = atom_idx.ravel()
        cen_idx = cen_idx.ravel()
        sep_ok = (
            np.abs(self._loop_residue[atom_idx] - cen_idx)
            >= self.min_residue_separation
        )
        keep = sep_ok & self._has_centroid[cen_idx]
        self._ac_atom = atom_idx[keep]
        self._ac_cen = cen_idx[keep]
        ac_contact = self.tolerance * (
            self._loop_radii[self._ac_atom] + self._centroid_radii[self._ac_cen]
        )
        self._ac_sq_contact = ac_contact * ac_contact

        # Environment atoms (coordinates fixed for the whole run).
        self._env_coords = target.environment_coords  # (M, 3)
        self._env_radii = target.environment_radii  # (M,)
        # Bounded (n*4, M) contact table (loop atoms x environment), built
        # once at init — not a per-iteration (P, P) materialisation.
        env_atom_contact = self.tolerance * (
            self._loop_radii[:, None] + self._env_radii[None, :]
        )  # (n*4, M)
        env_cen_contact = self.tolerance * (
            self._centroid_radii[:, None] + self._env_radii[None, :]
        )  # (n, M)
        env_cen_contact[~self._has_centroid, :] = 0.0
        self._env_atom_sq_contact = env_atom_contact * env_atom_contact
        self._env_cen_sq_contact = env_cen_contact * env_cen_contact

        # Uniform cell grid over the fixed environment, built once.  The
        # cutoff is the largest contact radius any probe (atom or centroid)
        # can have against any environment atom, so cell pruning can never
        # drop a pair with non-zero penalty.
        self._env_grid: Optional[EnvironmentGrid] = None
        if self._env_coords.size:
            cutoff = max(
                float(env_atom_contact.max()) if env_atom_contact.size else 0.0,
                float(env_cen_contact.max()) if env_cen_contact.size else 0.0,
            )
            if cutoff > 0.0:
                self._env_grid = EnvironmentGrid(self._env_coords, cutoff)

    # ------------------------------------------------------------------
    # Centroid construction
    # ------------------------------------------------------------------

    def _centroids(self, coords: np.ndarray) -> np.ndarray:
        """Side-chain centroid positions for coords of shape ``(..., n, 4, 3)``."""
        n_atoms = coords[..., 0, :]
        ca = coords[..., 1, :]
        c_atoms = coords[..., 2, :]
        away = ca - 0.5 * (n_atoms + c_atoms)
        norms = np.linalg.norm(away, axis=-1, keepdims=True)
        norms = np.where(norms < 1e-9, 1.0, norms)
        away = away / norms
        return ca + away * self._centroid_dist[..., :, None]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, coords: np.ndarray, torsions: np.ndarray) -> float:
        """Total clash penalty of one conformation."""
        coords = np.asarray(coords, dtype=np.float64)
        return float(self.evaluate_batch(coords[None], None)[0])

    def evaluate_batch(self, coords: np.ndarray, torsions: np.ndarray) -> np.ndarray:
        """Total clash penalty of every population member.

        All four terms delegate their population chunking to the shared
        engine helpers; only the centroid construction runs unchunked (its
        output is a small ``(P, n, 3)`` array reused by three terms).
        """
        coords = np.asarray(coords, dtype=np.float64)
        pop = coords.shape[0]
        flat = coords.reshape(pop, -1, 3)  # (P, n*4, 3)
        centroids = self._centroids(coords)  # (P, n, 3)

        # Loop atom - loop atom.
        total = indexed_penalty_sum(
            flat, flat, self._aa_first, self._aa_second,
            self._aa_sq_contact, self.block_size, kernels=self.kernels,
        )
        # Centroid - centroid.
        total += indexed_penalty_sum(
            centroids, centroids, self._cc_first, self._cc_second,
            self._cc_sq_contact, self.block_size, kernels=self.kernels,
        )
        # Loop atom - centroid.
        total += indexed_penalty_sum(
            flat, centroids, self._ac_atom, self._ac_cen,
            self._ac_sq_contact, self.block_size, kernels=self.kernels,
        )

        # Loop atoms / centroids against the protein environment, pruned
        # through the cell grid to the O(neighbours) candidate pairs.  The
        # ragged cell walk has data-dependent shapes, which do not jit, so
        # this term runs the compiled pass (or its numpy form) on every
        # backend, kernel bundles included.
        if self._env_grid is not None:
            total += self._env_grid.penalty_sum(
                flat, self._env_atom_sq_contact, self.block_size
            )
            total += self._env_grid.penalty_sum(
                centroids, self._env_cen_sq_contact, self.block_size
            )

        return total
