"""Synthetic loop library.

The TRIPLET and DIST potentials of the paper are knowledge-based: they are
``-log`` frequency tables derived from a large library of observed protein
loops (refs [6] and [7]).  That library is not available offline, so this
module generates a synthetic stand-in: a collection of loops whose torsions
are drawn from the Ramachandran-basin model with realistic per-residue-type
statistics.  The knowledge-base builder (:mod:`repro.scoring.knowledge`)
derives its histograms from these records exactly as the original potentials
were derived from the PDB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro import constants
from repro.geometry.nerf import build_backbone
from repro.loops.loop import canonical_n_anchor
from repro.loops.ramachandran import RamachandranModel
from repro.utils.rng import spawn_rng

__all__ = ["LoopRecord", "LoopLibrary", "default_library"]


@dataclass(frozen=True)
class LoopRecord:
    """One library entry: a loop sequence with its torsions and coordinates."""

    sequence: str
    torsions: np.ndarray
    coords: np.ndarray

    @property
    def length(self) -> int:
        """Number of residues in the loop."""
        return len(self.sequence)


@dataclass
class LoopLibrary:
    """A collection of loop records with query helpers.

    Parameters
    ----------
    records:
        The loop records.
    seed:
        The seed the library was generated with (``None`` for hand-built
        libraries), recorded for provenance.
    """

    records: List[LoopRecord] = field(default_factory=list)
    seed: Optional[int] = None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[LoopRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> LoopRecord:
        return self.records[index]

    @classmethod
    def generate(
        cls,
        n_loops: int = 400,
        lengths: Sequence[int] = (8, 10, 11, 12, 14),
        seed: int = 2010,
        smoothness: float = 0.4,
        alphabet: str = "ACDEFGHIKLMNPQRSTVWY",
    ) -> "LoopLibrary":
        """Generate a synthetic library of ``n_loops`` loops.

        Each loop gets a random sequence over ``alphabet`` (glycine and
        proline therefore appear with realistic ~5% frequency each), a
        torsion vector sampled from the Ramachandran model, and backbone
        coordinates built in the canonical anchor frame.

        Every argument is checked before the first draw: ``n_loops`` must
        be positive, ``lengths`` non-empty with every length at least one
        residue, ``alphabet`` a non-empty string of one-letter residue codes
        and ``smoothness`` in ``[0, 1)``.
        """
        if n_loops <= 0:
            raise ValueError("n_loops must be positive")
        lengths = [int(length) for length in lengths]
        if not lengths or min(lengths) < 1:
            raise ValueError(f"lengths must be one or more positive loop lengths, got {lengths}")
        if not alphabet or any(aa not in constants.AA_INDEX for aa in alphabet):
            raise ValueError(f"alphabet must be one-letter residue codes, got {alphabet!r}")
        model = RamachandranModel(smoothness=smoothness)
        rng = spawn_rng(seed, 0)
        anchor = canonical_n_anchor()
        records: List[LoopRecord] = []
        for i in range(n_loops):
            length = int(lengths[i % len(lengths)])
            seq = "".join(rng.choice(list(alphabet), size=length))
            torsions = model.sample_sequence(seq, rng)
            end_phi = float(rng.uniform(-np.pi, np.pi))
            coords, _closure = build_backbone(torsions, anchor, end_phi)
            records.append(LoopRecord(sequence=seq, torsions=torsions, coords=coords))
        return cls(records=records, seed=seed)

    def filter_length(self, min_length: int = 0, max_length: int = 10 ** 9) -> "LoopLibrary":
        """Return the sub-library of loops whose length is in the given range."""
        kept = [r for r in self.records if min_length <= r.length <= max_length]
        return LoopLibrary(records=kept, seed=self.seed)

    def sequences(self) -> List[str]:
        """All sequences in the library."""
        return [r.sequence for r in self.records]

    def torsion_pairs(self) -> np.ndarray:
        """All (phi, psi) pairs across the library, shape ``(total_residues, 2)``."""
        pairs: List[np.ndarray] = []
        for rec in self.records:
            pairs.append(rec.torsions.reshape(-1, 2))
        if not pairs:
            return np.zeros((0, 2))
        return np.concatenate(pairs)

    def residue_count(self) -> int:
        """Total number of residues across all records."""
        return sum(r.length for r in self.records)


@lru_cache(maxsize=4)
def default_library(seed: int = 2010, n_loops: int = 400) -> LoopLibrary:
    """The default synthetic library, cached per (seed, size)."""
    return LoopLibrary.generate(n_loops=n_loops, seed=seed)
