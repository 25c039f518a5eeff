"""Test-only oracle: the scalar-numpy host paths of a cold start.

These are the NeRF step and chain build (``place_atom``,
``build_backbone``), the Ramachandran draws (``sample_basin``,
``sample_loop_torsions``, and the per-member population stack), the
per-member mutation proposals (``mutate_torsions``, ``mutate_population``)
and the nested-loop ``build_knowledge_base`` as they shipped before the
host paths were rewritten on Python floats, precomputed basin CDFs,
``np.bincount`` and the compiled draw passes of ``repro.native``.
They are kept verbatim as the reference the production code must reproduce
bit for bit (``np.array_equal`` on every output, and an equal
``rng.bit_generator.state`` after every draw).  ``generate_library`` is the
retired ``LoopLibrary.generate`` body built from these pieces, because a
library record does not store the ``end_phi`` its coordinates were built
with.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import constants
from repro.geometry.vectors import wrap_angle
from repro.loops.library import LoopLibrary, LoopRecord
from repro.loops.loop import canonical_n_anchor
from repro.protein.residue import validate_sequence
from repro.scoring.knowledge import (
    _N_ATOM_TYPES,
    _PSEUDOCOUNT,
    DISTANCE_BINS,
    N_ATOM_PAIRS,
    N_TRIPLET_CLASSES,
    SEPARATION_CLASSES,
    TORSION_BINS,
    KnowledgeBase,
    atom_pair_index,
    distance_bin_sq,
    separation_class,
    torsion_bin,
    triplet_class_index,
)
from repro.utils.rng import spawn_rng

_EPS = 1e-12


# ----------------------------------------------------------------------
# geometry/nerf.py
# ----------------------------------------------------------------------


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

    This is the scalar NeRF step used by the reference CPU backend.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)

    bc = c - b
    bc /= max(np.linalg.norm(bc), _EPS)
    ab = b - a
    n = np.cross(ab, bc)
    n /= max(np.linalg.norm(n), _EPS)
    m = np.cross(n, bc)

    # The sign of the out-of-plane component is chosen so that the dihedral
    # measured by :func:`repro.geometry.vectors.dihedral_angle` on the placed
    # atom equals ``torsion`` exactly (round-trip property).
    d_local = np.array(
        [
            -bond_length * np.cos(bond_angle),
            bond_length * np.sin(bond_angle) * np.cos(torsion),
            -bond_length * np.sin(bond_angle) * np.sin(torsion),
        ]
    )
    return c + d_local[0] * bc + d_local[1] * m + d_local[2] * n


def build_backbone(
    torsions: np.ndarray,
    n_anchor: np.ndarray,
    end_phi: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Build loop backbone coordinates from a torsion vector (scalar version)."""
    torsions = np.asarray(torsions, dtype=np.float64)
    if torsions.ndim != 1 or torsions.size % 2 != 0:
        raise ValueError("torsions must be a flat vector of 2n angles")
    n = torsions.size // 2
    if n < 1:
        raise ValueError("the loop must contain at least one residue")
    n_anchor = np.asarray(n_anchor, dtype=np.float64)
    if n_anchor.shape != (3, 3):
        raise ValueError("n_anchor must have shape (3, 3): C_prev, N_1, CA_1")

    coords = np.zeros((n, constants.BACKBONE_ATOMS_PER_RESIDUE, 3), dtype=np.float64)
    c_prev = n_anchor[0]
    coords[0, 0] = n_anchor[1]  # N_1
    coords[0, 1] = n_anchor[2]  # CA_1

    prev_c = c_prev  # carbonyl C of the residue before residue i
    for i in range(n):
        phi = torsions[2 * i]
        psi = torsions[2 * i + 1]
        n_i = coords[i, 0]
        ca_i = coords[i, 1]

        # C_i from phi_i: dihedral(C_{i-1}, N_i, CA_i, C_i)
        c_i = place_atom(
            prev_c, n_i, ca_i,
            constants.BOND_CA_C, constants.ANGLE_N_CA_C, phi,
        )
        coords[i, 2] = c_i

        # O_i from psi_i: anti-planar to the next nitrogen.
        coords[i, 3] = place_atom(
            n_i, ca_i, c_i,
            constants.BOND_C_O, constants.ANGLE_CA_C_O, psi + np.pi,
        )

        # N_{i+1} from psi_i: dihedral(N_i, CA_i, C_i, N_{i+1})
        n_next = place_atom(
            n_i, ca_i, c_i,
            constants.BOND_C_N, constants.ANGLE_CA_C_N, psi,
        )
        # CA_{i+1} from omega (fixed trans): dihedral(CA_i, C_i, N_{i+1}, CA_{i+1})
        ca_next = place_atom(
            ca_i, c_i, n_next,
            constants.BOND_N_CA, constants.ANGLE_C_N_CA, constants.OMEGA_TRANS,
        )
        if i + 1 < n:
            coords[i + 1, 0] = n_next
            coords[i + 1, 1] = ca_next
        else:
            # Closure atoms: moving copy of the C-terminal anchor backbone.
            c_end = place_atom(
                c_i, n_next, ca_next,
                constants.BOND_CA_C, constants.ANGLE_N_CA_C, end_phi,
            )
            closure = np.stack([n_next, ca_next, c_end])
        prev_c = c_i

    return coords, closure


# ----------------------------------------------------------------------
# loops/ramachandran.py
# ----------------------------------------------------------------------


def sample_basin(aa: str, rng: np.random.Generator) -> Tuple[float, float]:
    """Draw one (phi, psi) pair for residue type ``aa`` from its basin mixture."""
    basins = constants.ramachandran_basins(aa)
    weights = np.array([b[4] for b in basins])
    weights = weights / weights.sum()
    idx = rng.choice(len(basins), p=weights)
    phi_mean, psi_mean, phi_sigma, psi_sigma, _w = basins[idx]
    phi = wrap_angle(rng.normal(phi_mean, phi_sigma))
    psi = wrap_angle(rng.normal(psi_mean, psi_sigma))
    return float(phi), float(psi)


def sample_loop_torsions(
    sequence: str,
    rng: np.random.Generator,
    smoothness: float = 0.0,
) -> np.ndarray:
    """Sample a full loop torsion vector ``(phi_1, psi_1, ..., phi_n, psi_n)``."""
    seq = validate_sequence(sequence)
    if not (0.0 <= smoothness < 1.0):
        raise ValueError("smoothness must be in [0, 1)")
    torsions = np.zeros(2 * len(seq), dtype=np.float64)
    prev_basin: Optional[int] = None
    for i, aa in enumerate(seq):
        basins = constants.ramachandran_basins(aa)
        weights = np.array([b[4] for b in basins])
        weights = weights / weights.sum()
        if prev_basin is not None and prev_basin < len(basins) and rng.random() < smoothness:
            idx = prev_basin
        else:
            idx = int(rng.choice(len(basins), p=weights))
        phi_mean, psi_mean, phi_sigma, psi_sigma, _w = basins[idx]
        torsions[2 * i] = wrap_angle(rng.normal(phi_mean, phi_sigma))
        torsions[2 * i + 1] = wrap_angle(rng.normal(psi_mean, psi_sigma))
        prev_basin = idx
    return torsions


def sample_population(
    sequence: str, population_size: int, rng: np.random.Generator, smoothness: float = 0.3
) -> np.ndarray:
    """``RamachandranModel.sample_population``: one member after another."""
    return np.stack(
        [sample_loop_torsions(sequence, rng, smoothness) for _ in range(population_size)]
    )


def sample_pairs(aa: str, count: int, rng: np.random.Generator) -> np.ndarray:
    """``RamachandranModel.sample_pairs``: ``count`` calls of ``sample_basin``."""
    out = np.zeros((count, 2), dtype=np.float64)
    for i in range(count):
        out[i] = sample_basin(aa, rng)
    return out


# ----------------------------------------------------------------------
# moscem/mutation.py
# ----------------------------------------------------------------------


def mutate_torsions(
    torsions: np.ndarray,
    sequence: str,
    rng: np.random.Generator,
    n_angles: int = 2,
    sigma: float = np.radians(30.0),
    basin_hop_probability: float = 0.3,
) -> Tuple[np.ndarray, int]:
    """Mutate one torsion vector; returns it and its CCD start."""
    torsions = np.asarray(torsions, dtype=np.float64)
    n_torsions = torsions.shape[0]
    if n_torsions % 2 != 0 or n_torsions // 2 != len(sequence):
        raise ValueError("torsions length does not match sequence")
    n_angles = int(np.clip(n_angles, 1, n_torsions))

    mutated = torsions.copy()
    if rng.random() < basin_hop_probability:
        # Redraw whole residues from the Ramachandran model.
        n_res = max(1, n_angles // 2)
        residues = rng.choice(len(sequence), size=n_res, replace=False)
        for res in residues:
            phi, psi = sample_basin(sequence[res], rng)
            mutated[2 * res] = phi
            mutated[2 * res + 1] = psi
        first = int(np.min(residues)) * 2
        last = int(np.max(residues)) * 2 + 1
    else:
        indices = rng.choice(n_torsions, size=n_angles, replace=False)
        perturbation = rng.normal(0.0, sigma, size=n_angles)
        mutated[indices] = wrap_angle(mutated[indices] + perturbation)
        first = int(np.min(indices))
        last = int(np.max(indices))

    ccd_start = min(last + 1, n_torsions - 1)
    return mutated, ccd_start


def mutate_population(
    torsions: np.ndarray,
    sequence: str,
    rng: np.random.Generator,
    n_angles: int = 2,
    sigma: float = np.radians(30.0),
    basin_hop_probability: float = 0.3,
) -> Tuple[np.ndarray, np.ndarray]:
    """``mutate_population``: one ``mutate_torsions`` call per member."""
    torsions = np.asarray(torsions, dtype=np.float64)
    pop = torsions.shape[0]
    mutated = np.empty_like(torsions)
    starts = np.empty(pop, dtype=np.int64)
    for i in range(pop):
        mutated[i], starts[i] = mutate_torsions(
            torsions[i],
            sequence,
            rng,
            n_angles=n_angles,
            sigma=sigma,
            basin_hop_probability=basin_hop_probability,
        )
    return mutated, starts


# ----------------------------------------------------------------------
# loops/library.py
# ----------------------------------------------------------------------


def generate_library(
    n_loops: int = 400,
    lengths: Sequence[int] = (8, 10, 11, 12, 14),
    seed: int = 2010,
    smoothness: float = 0.4,
    alphabet: str = "ACDEFGHIKLMNPQRSTVWY",
) -> LoopLibrary:
    """``LoopLibrary.generate`` built from the oracle draws and NeRF."""
    rng = spawn_rng(seed, 0)
    anchor = canonical_n_anchor()
    records: List[LoopRecord] = []
    lengths = list(lengths)
    for i in range(n_loops):
        length = int(lengths[i % len(lengths)])
        seq = "".join(rng.choice(list(alphabet), size=length))
        torsions = sample_loop_torsions(seq, rng, smoothness)
        end_phi = float(rng.uniform(-np.pi, np.pi))
        coords, _closure = build_backbone(torsions, anchor, end_phi)
        records.append(LoopRecord(sequence=seq, torsions=torsions, coords=coords))
    return LoopLibrary(records=records, seed=seed)


# ----------------------------------------------------------------------
# scoring/knowledge.py
# ----------------------------------------------------------------------


def build_knowledge_base(library: LoopLibrary) -> KnowledgeBase:
    """Derive the TRIPLET and DIST tables from a loop library."""
    if len(library) == 0:
        raise ValueError("cannot build a knowledge base from an empty library")

    # ------------------------------------------------------------------
    # Triplet torsion histograms.
    # ------------------------------------------------------------------
    triplet_counts = np.full(
        (N_TRIPLET_CLASSES, TORSION_BINS, TORSION_BINS), _PSEUDOCOUNT, dtype=np.float64
    )
    for record in library:
        seq = record.sequence
        torsions = record.torsions
        n = len(seq)
        for i in range(n):
            prev_aa = seq[i - 1] if i > 0 else seq[i]
            next_aa = seq[i + 1] if i + 1 < n else seq[i]
            cls = triplet_class_index(prev_aa, seq[i], next_aa)
            pb = int(torsion_bin(np.array([torsions[2 * i]]))[0])
            sb = int(torsion_bin(np.array([torsions[2 * i + 1]]))[0])
            triplet_counts[cls, pb, sb] += 1.0

    triplet_prob = triplet_counts / triplet_counts.sum(axis=(1, 2), keepdims=True)
    triplet_neg_log = -np.log(triplet_prob)

    # ------------------------------------------------------------------
    # Pairwise distance histograms.
    # ------------------------------------------------------------------
    dist_counts = np.full(
        (N_ATOM_PAIRS, SEPARATION_CLASSES, DISTANCE_BINS), _PSEUDOCOUNT, dtype=np.float64
    )
    reference_counts = np.full(DISTANCE_BINS, _PSEUDOCOUNT, dtype=np.float64)

    for record in library:
        coords = record.coords  # (n, 4, 3)
        n = coords.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                sep_cls = separation_class(j - i)
                diff = coords[i][:, None, :] - coords[j][None, :, :]
                # Bin the squared distances directly so histogram building
                # and the runtime kernels share one edge-exact binning.
                bins = distance_bin_sq(np.sum(diff * diff, axis=-1))  # (4, 4)
                for a in range(_N_ATOM_TYPES):
                    for b in range(_N_ATOM_TYPES):
                        if bins[a, b] >= DISTANCE_BINS:
                            continue  # beyond the table edge: no statistics
                        pair = atom_pair_index(a, b)
                        dist_counts[pair, sep_cls, bins[a, b]] += 1.0
                        reference_counts[bins[a, b]] += 1.0

    dist_prob = dist_counts / dist_counts.sum(axis=2, keepdims=True)
    reference_prob = reference_counts / reference_counts.sum()
    distance_neg_log = -np.log(dist_prob / reference_prob[None, None, :])

    return KnowledgeBase(
        triplet_neg_log=triplet_neg_log,
        distance_neg_log=distance_neg_log,
        library_size=len(library),
    )
