"""Torsion mutation proposals ([Reproduction] in the paper's pseudocode).

A new conformation is generated from an old one by perturbing a small number
of randomly selected torsion angles.  Two kinds of moves are mixed:

* a *local* Gaussian perturbation of the selected angles (refinement), and
* a *basin hop* that redraws the selected residue's (phi, psi) pair from the
  Ramachandran model (exploration).

The index of the first mutated torsion is reported so that CCD can start
closing the loop "from the immediate torsion angle after the mutated ones"
as the paper specifies.

Members are mutated one after another from one generator, each drawing
``random()`` and then its move.  :func:`mutate_population` (and
:func:`mutate_torsions`, its one-row form) runs the ``mutate_rows`` pass of
:mod:`repro.native`: numpy's own compiled samplers on the generator's bit
generator -- ``next_double`` for ``random()``, ``random_normal`` for
``normal``, and numpy's Floyd branch of ``choice(n, k, replace=False)``
(``random_bounded_uint64`` into a hash set, then its shuffle).  With no
compiler, or for a ``Generator`` subclass, the Python loop of
:func:`_mutate_rows` runs instead, with the same bits and the same
generator state after it.  Loops of more than 10,000 torsions are
rejected on both routes: there numpy's ``choice`` takes a tail shuffle
the pass does not reproduce.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro import native
from repro.geometry.vectors import wrap_angle
from repro.loops.ramachandran import _sequence_tables, sample_basin

__all__ = ["mutate_torsions", "mutate_population"]

#: The largest torsion count ``Generator.choice(n, k, replace=False)``
#: serves from Floyd's algorithm for every ``k``.
MAX_TORSIONS = 10_000


def mutate_torsions(
    torsions: np.ndarray,
    sequence: str,
    rng: np.random.Generator,
    n_angles: int = 2,
    sigma: float = np.radians(30.0),
    basin_hop_probability: float = 0.3,
) -> Tuple[np.ndarray, int]:
    """Mutate one torsion vector.

    Parameters
    ----------
    torsions:
        ``(2n,)`` torsion vector.
    sequence:
        Loop sequence (used for basin-hop redraws).
    rng:
        Random generator.
    n_angles:
        Number of torsion angles to perturb.
    sigma:
        Standard deviation of the Gaussian perturbation (radians).
    basin_hop_probability:
        Probability that the move redraws whole (phi, psi) pairs from the
        Ramachandran basins instead of perturbing locally.

    Returns
    -------
    (mutated, ccd_start)
        The mutated torsion vector and the torsion index immediately after
        the last mutated angle block, which is where CCD starts.
    """
    torsions = np.asarray(torsions, dtype=np.float64)
    if torsions.ndim != 1:
        raise ValueError("torsions must be a flat vector of 2n angles")
    mutated, starts = mutate_population(
        torsions[None, :], sequence, rng, n_angles, sigma, basin_hop_probability
    )
    return mutated[0], int(starts[0])


def mutate_population(
    torsions: np.ndarray,
    sequence: str,
    rng: np.random.Generator,
    n_angles: int = 2,
    sigma: float = np.radians(30.0),
    basin_hop_probability: float = 0.3,
) -> Tuple[np.ndarray, np.ndarray]:
    """Mutate every member of a population (parameters as
    :func:`mutate_torsions`).

    Returns
    -------
    (mutated, ccd_starts)
        ``(P, 2n)`` mutated torsions and ``(P,)`` per-member CCD start
        indices.
    """
    torsions = np.ascontiguousarray(torsions, dtype=np.float64)
    if torsions.ndim != 2:
        raise ValueError("torsions must have shape (P, 2n)")
    n_torsions = torsions.shape[1]
    if n_torsions % 2 != 0 or n_torsions // 2 != len(sequence):
        raise ValueError("torsions length does not match sequence")
    if not 0 < n_torsions <= MAX_TORSIONS:
        raise ValueError(f"a loop must have 1 to {MAX_TORSIONS // 2} residues")
    if np.signbit(sigma) and not np.isnan(sigma):
        raise ValueError("sigma must be non-negative")
    n_angles = int(np.clip(n_angles, 1, n_torsions))

    lib = native.draw_library(rng)
    if lib is None:
        return _mutate_rows(torsions, sequence, rng, n_angles, sigma, basin_hop_probability)
    offset, size, cdf, params = _sequence_tables(sequence)
    # Floyd's hash set for the largest draw: 1 + the bit-smear of 1.2 * k.
    slots = np.empty(1 << int(1.2 * n_angles).bit_length(), dtype=np.uint64)
    indices = np.empty(n_angles, dtype=np.int64)
    mutated = np.empty_like(torsions)
    starts = np.empty(torsions.shape[0], dtype=np.int64)
    with native.bit_generator(rng) as bits:
        lib.mutate_rows(
            bits, torsions.shape[0], n_torsions // 2, torsions.ctypes.data,
            offset.ctypes.data, size.ctypes.data, cdf.ctypes.data, params.ctypes.data,
            n_angles, sigma, basin_hop_probability,
            slots.ctypes.data, indices.ctypes.data, mutated.ctypes.data, starts.ctypes.data,
        )
    return mutated, starts


def _mutate_rows(
    torsions: np.ndarray,
    sequence: str,
    rng: np.random.Generator,
    n_angles: int,
    sigma: float,
    basin_hop_probability: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """The numpy form of the ``mutate_rows`` pass, member by member."""
    n_torsions = torsions.shape[1]
    mutated = torsions.copy()
    starts = np.empty(torsions.shape[0], dtype=np.int64)
    for i, row in enumerate(mutated):
        if rng.random() < basin_hop_probability:
            # Redraw whole residues from the Ramachandran model.
            residues = rng.choice(len(sequence), size=max(1, n_angles // 2), replace=False)
            for res in residues:
                row[2 * res], row[2 * res + 1] = sample_basin(sequence[res], rng)
            last = int(np.max(residues)) * 2 + 1
        else:
            indices = rng.choice(n_torsions, size=n_angles, replace=False)
            perturbation = rng.normal(0.0, sigma, size=n_angles)
            row[indices] = wrap_angle(row[indices] + perturbation)
            last = int(np.max(indices))
        starts[i] = min(last + 1, n_torsions - 1)
    return mutated, starts
