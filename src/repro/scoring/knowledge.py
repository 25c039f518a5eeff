"""Knowledge-base tables for the TRIPLET and DIST potentials.

The paper's knowledge-based scoring functions are ``-log`` frequency tables
pre-computed from a structural database and loaded into GPU texture memory
at program start.  This module builds the equivalent tables from the
synthetic loop library (:mod:`repro.loops.library`):

* **Triplet tables** — for each of the 27 residue-type triplets
  (GENERIC/GLY/PRO for the previous, current and next residue), a 2-D
  histogram over (phi, psi) bins of the central residue.
* **Distance tables** — for each backbone atom-type pair (N/CA/C/O, 10
  unordered pairs) and sequence-separation class, a histogram over
  pair-distance bins, normalised by the pooled reference distribution.

Both histograms are filled by one ``np.bincount`` each, over flat
``(class, phi-bin, psi-bin)`` and ``(atom pair, separation, distance-bin)``
indices gathered from every record.  Counts are integers held exactly in
float64, so the tables equal the per-residue, per-pair accumulation they
replaced bit for bit.  Squared distances are summed over the contiguous
``xyz`` axis of a ``(pairs, 4, 4, 3)`` difference array, the same
reduction the per-pair ``(4, 4, 3)`` form took.  Pairs at or beyond
``DISTANCE_MAX`` fall into no bin.  A non-finite torsion or coordinate
has no bin either, so a record holding one is rejected with a
``ValueError`` that names its index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Dict, Sequence, Tuple

import numpy as np

from repro import constants
from repro.loops.library import LoopLibrary, LoopRecord, default_library
from repro.protein.residue import ResidueType, residue_type
from repro.scoring.pairwise import bin_squared_distances, squared_bin_edges

__all__ = [
    "KnowledgeBase",
    "build_knowledge_base",
    "default_knowledge_base",
    "TORSION_BINS",
    "DISTANCE_BINS",
    "DISTANCE_MAX",
    "DISTANCE_SQ_EDGES",
    "SEPARATION_CLASSES",
    "atom_pair_index",
    "separation_class",
    "triplet_class_index",
    "distance_bin",
    "distance_bin_sq",
]

#: Number of bins per torsion axis (15-degree bins).
TORSION_BINS: int = 24

#: Number of distance bins for the pairwise potential.
DISTANCE_BINS: int = 30

#: Maximum distance (A) covered by the pairwise histograms.
DISTANCE_MAX: float = 15.0

#: Squared edges of the distance histogram bins (for sqrt-free binning).
DISTANCE_SQ_EDGES: np.ndarray = squared_bin_edges(DISTANCE_MAX, DISTANCE_BINS)

#: Sequence-separation classes: |i-j| == 1, == 2, == 3, >= 4.
SEPARATION_CLASSES: int = 4

#: Pseudo-count added to every histogram bin before normalisation.
_PSEUDOCOUNT: float = 0.5

_N_ATOM_TYPES = len(constants.BACKBONE_ATOM_NAMES)
_PAIRS = list(combinations_with_replacement(range(_N_ATOM_TYPES), 2))
_PAIR_LOOKUP: Dict[Tuple[int, int], int] = {}
for _idx, (_a, _b) in enumerate(_PAIRS):
    _PAIR_LOOKUP[(_a, _b)] = _idx
    _PAIR_LOOKUP[(_b, _a)] = _idx

#: Number of unordered backbone atom-type pairs.
N_ATOM_PAIRS: int = len(_PAIRS)

#: Unordered pair index of every ordered (a, b) atom-type pair, shape (4, 4).
_PAIR_INDEX: np.ndarray = np.array(
    [[_PAIR_LOOKUP[(a, b)] for b in range(_N_ATOM_TYPES)] for a in range(_N_ATOM_TYPES)]
)

#: Number of residue-type triplet classes (3 types ** 3 positions).
N_TRIPLET_CLASSES: int = len(ResidueType) ** 3


def atom_pair_index(a: int, b: int) -> int:
    """Index of the unordered backbone atom-type pair (N/CA/C/O indices)."""
    return _PAIR_LOOKUP[(a, b)]


def separation_class(sep: int) -> int:
    """Sequence-separation class for |i - j| = ``sep`` residues."""
    if sep < 1:
        raise ValueError("separation must be >= 1")
    return min(sep, SEPARATION_CLASSES) - 1


def triplet_class_index(prev_aa: str, cur_aa: str, next_aa: str) -> int:
    """Class index of a residue triplet from one-letter codes."""
    p = residue_type(prev_aa).value
    c = residue_type(cur_aa).value
    n = residue_type(next_aa).value
    base = len(ResidueType)
    return (p * base + c) * base + n


def torsion_bin(angles: np.ndarray) -> np.ndarray:
    """Map angles (radians, any range) to torsion histogram bins [0, TORSION_BINS)."""
    angles = np.asarray(angles, dtype=np.float64)
    frac = (angles + np.pi) / (2.0 * np.pi)
    bins = np.floor(frac * TORSION_BINS).astype(np.int64)
    return np.clip(bins, 0, TORSION_BINS - 1)


def distance_bin_sq(sq_distances: np.ndarray) -> np.ndarray:
    """Map *squared* distances (A^2) to distance histogram bins.

    In-range pairs map to ``[0, DISTANCE_BINS)``; pairs at or beyond
    ``DISTANCE_MAX`` map to the overflow bin ``DISTANCE_BINS``.  The tables
    carry no statistics past their last edge, so out-of-range pairs must be
    treated as neutral rather than silently scored as if they sat at the
    table edge.

    .. warning::
       The overflow bin is one past the last axis of
       ``KnowledgeBase.distance_neg_log``: callers indexing a table with
       these bins must either mask ``bins >= DISTANCE_BINS`` (as
       :func:`build_knowledge_base` does) or index a zero-padded table (as
       :class:`~repro.scoring.distance.DistanceScore` does).
    """
    sq_distances = np.asarray(sq_distances, dtype=np.float64)
    return bin_squared_distances(sq_distances, DISTANCE_SQ_EDGES)


def distance_bin(distances: np.ndarray) -> np.ndarray:
    """Map distances (A) to bins; out-of-range maps to ``DISTANCE_BINS``."""
    distances = np.asarray(distances, dtype=np.float64)
    return distance_bin_sq(distances * distances)


@dataclass(frozen=True)
class KnowledgeBase:
    """Pre-computed ``-log`` probability tables for TRIPLET and DIST.

    Attributes
    ----------
    triplet_neg_log:
        ``(N_TRIPLET_CLASSES, TORSION_BINS, TORSION_BINS)`` negative log
        probability of a (phi, psi) bin given the triplet class.
    distance_neg_log:
        ``(N_ATOM_PAIRS, SEPARATION_CLASSES, DISTANCE_BINS)`` negative log
        ratio of the observed pair-distance distribution to the pooled
        reference distribution.
    library_size:
        Number of loops in the library the tables were derived from.
    """

    triplet_neg_log: np.ndarray
    distance_neg_log: np.ndarray
    library_size: int

    def __post_init__(self) -> None:
        expected_t = (N_TRIPLET_CLASSES, TORSION_BINS, TORSION_BINS)
        expected_d = (N_ATOM_PAIRS, SEPARATION_CLASSES, DISTANCE_BINS)
        if self.triplet_neg_log.shape != expected_t:
            raise ValueError(f"triplet table shape {self.triplet_neg_log.shape} != {expected_t}")
        if self.distance_neg_log.shape != expected_d:
            raise ValueError(f"distance table shape {self.distance_neg_log.shape} != {expected_d}")

    @property
    def nbytes(self) -> int:
        """Total size of the tables in bytes (what the paper keeps in texture memory)."""
        return self.triplet_neg_log.nbytes + self.distance_neg_log.nbytes


def _record_bins(index: int, record: LoopRecord) -> Tuple[np.ndarray, np.ndarray]:
    """Flat triplet and distance histogram indices of one library record."""
    torsions = np.asarray(record.torsions, dtype=np.float64)
    coords = np.asarray(record.coords, dtype=np.float64)  # (n, 4, 3)
    if not (np.isfinite(torsions).all() and np.isfinite(coords).all()):
        raise ValueError(f"library record {index} has non-finite torsions or coordinates")

    # Triplet class of each residue; the chain ends repeat their own type.
    types = np.array([residue_type(aa).value for aa in record.sequence], dtype=np.int64)
    prev_t = np.concatenate([types[:1], types[:-1]])
    next_t = np.concatenate([types[1:], types[-1:]])
    base = len(ResidueType)
    cls = (prev_t * base + types) * base + next_t
    triplet = (cls * TORSION_BINS + torsion_bin(torsions[0::2])) * TORSION_BINS
    triplet += torsion_bin(torsions[1::2])

    i, j = np.triu_indices(coords.shape[0], 1)
    diff = coords[i][:, :, None, :] - coords[j][:, None, :, :]  # (pairs, 4, 4, 3)
    # Bin the squared distances directly so histogram building and the
    # runtime kernels share one edge-exact binning.
    bins = distance_bin_sq(np.sum(diff * diff, axis=-1))
    sep = np.minimum(j - i, SEPARATION_CLASSES) - 1
    distance = (_PAIR_INDEX * SEPARATION_CLASSES + sep[:, None, None]) * DISTANCE_BINS + bins
    # Beyond the table edge: no statistics.
    return triplet, distance[bins < DISTANCE_BINS]


def _histogram(indices: Sequence[np.ndarray], shape: Tuple[int, ...]) -> np.ndarray:
    """Integer counts of flat ``indices`` into an array of ``shape``."""
    return np.bincount(np.concatenate(indices), minlength=math.prod(shape)).reshape(shape)


def build_knowledge_base(library: LoopLibrary) -> KnowledgeBase:
    """Derive the TRIPLET and DIST tables from a loop library.

    Raises ``ValueError`` for an empty library and for a record with a
    non-finite torsion or coordinate.
    """
    if len(library) == 0:
        raise ValueError("cannot build a knowledge base from an empty library")
    triplet_bins, distance_bins = zip(
        *(_record_bins(index, record) for index, record in enumerate(library))
    )

    triplet_counts = _PSEUDOCOUNT + _histogram(
        triplet_bins, (N_TRIPLET_CLASSES, TORSION_BINS, TORSION_BINS)
    )
    triplet_prob = triplet_counts / triplet_counts.sum(axis=(1, 2), keepdims=True)
    triplet_neg_log = -np.log(triplet_prob)

    distance_hist = _histogram(distance_bins, (N_ATOM_PAIRS, SEPARATION_CLASSES, DISTANCE_BINS))
    dist_counts = _PSEUDOCOUNT + distance_hist
    reference_counts = _PSEUDOCOUNT + distance_hist.sum(axis=(0, 1))

    dist_prob = dist_counts / dist_counts.sum(axis=2, keepdims=True)
    reference_prob = reference_counts / reference_counts.sum()
    distance_neg_log = -np.log(dist_prob / reference_prob[None, None, :])

    return KnowledgeBase(
        triplet_neg_log=triplet_neg_log,
        distance_neg_log=distance_neg_log,
        library_size=len(library),
    )


@lru_cache(maxsize=2)
def default_knowledge_base(seed: int = 2010, n_loops: int = 400) -> KnowledgeBase:
    """The knowledge base built from the default synthetic library (cached)."""
    return build_knowledge_base(default_library(seed=seed, n_loops=n_loops))
