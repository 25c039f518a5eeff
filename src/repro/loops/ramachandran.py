"""Ramachandran-basin model of backbone torsion preferences.

Used in three places:

* generating the synthetic loop library from which the knowledge-based
  potentials (TRIPLET, DIST) are derived,
* generating native conformations for the synthetic benchmark targets,
* biasing the population initialisation and mutation proposals of the
  sampler towards physically plausible torsions.

Each residue type's basin mixture is reduced once to a cumulative weight
table.  A basin is then drawn as ``cdf.searchsorted(rng.random(),
side="right")``, which is what ``Generator.choice(len(basins), p=weights)``
does internally (``cdf = p.cumsum(); cdf /= cdf[-1]``, one ``random()``
per draw), so every draw, and the generator state after it, equals the
``choice`` form bit for bit.  Draws stay sequential, member by member and
residue by residue, because the basin of one residue conditions the next
(``smoothness``).

Every draw form (:func:`sample_basin`, :func:`sample_loop_torsions`,
:meth:`RamachandranModel.sample_population` and
:meth:`RamachandranModel.sample_pairs`) runs one pass, :func:`_sample_rows`:
the ``sample_rows`` pass of :mod:`repro.native`, which draws from the
generator's own bit generator through numpy's compiled samplers
(``random()`` as ``next_double``, ``normal`` as ``random_normal``), counts
``cdf <= u`` for the lookup and wraps with ``wrap_angle``'s arithmetic.
With no compiler, or for a ``Generator`` subclass, the Python loop below
runs instead, with the same bits and the same generator state after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from repro import constants, native
from repro.geometry.vectors import wrap_angle
from repro.protein.residue import validate_sequence

__all__ = ["RamachandranModel", "sample_basin", "sample_loop_torsions"]

#: ``(cdf, params)`` of one residue type: cumulative basin weights and the
#: ``(phi_mean, psi_mean, phi_sigma, psi_sigma)`` of each basin.
_BasinTable = Tuple[np.ndarray, Tuple[Tuple[float, float, float, float], ...]]


@lru_cache(maxsize=None)
def _basin_table(aa: str) -> _BasinTable:
    """The basin table of residue type ``aa``, normalised as ``Generator.choice`` does."""
    basins = constants.ramachandran_basins(aa)
    weights = np.array([b[4] for b in basins])
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf, tuple((float(b[0]), float(b[1]), float(b[2]), float(b[3])) for b in basins)


@lru_cache(maxsize=None)
def _sequence_tables(residues: Sequence[str]) -> Tuple[np.ndarray, ...]:
    """``(offset, size, cdf, params)``: the basin tables of ``residues``
    laid end to end for the compiled passes.  Residue ``i``'s cumulative
    weights are ``cdf[offset[i]:offset[i] + size[i]]``, its basins the
    same rows of the ``(rows, 4)`` ``params``."""
    tables = [_basin_table(aa) for aa in residues]
    size = np.array([len(cdf) for cdf, _ in tables], dtype=np.int64)
    offset = np.concatenate([[0], np.cumsum(size)[:-1]]).astype(np.int64)
    cdf = np.concatenate([cdf for cdf, _ in tables])
    params = np.array([row for _, rows in tables for row in rows], dtype=np.float64)
    for array in (size, offset, cdf, params):
        array.flags.writeable = False
    return offset, size, cdf, params


def _wrap(angle: float) -> float:
    """:func:`~repro.geometry.vectors.wrap_angle` of one finite float, same arithmetic."""
    wrapped = angle - constants.TWO_PI * math.floor((angle + math.pi) / constants.TWO_PI)
    return wrapped + constants.TWO_PI if wrapped <= -math.pi else wrapped


def _check_smoothness(smoothness: float) -> None:
    if not (0.0 <= smoothness < 1.0):
        raise ValueError("smoothness must be in [0, 1)")


def sample_basin(aa: str, rng: np.random.Generator) -> Tuple[float, float]:
    """Draw one (phi, psi) pair for residue type ``aa`` from its basin mixture."""
    phi, psi = _sample_rows((aa,), 1, rng, 0.0)[0]
    return float(phi), float(psi)


def _sample_rows(
    residues: Sequence[str], rows: int, rng: np.random.Generator, smoothness: float
) -> np.ndarray:
    """``(rows, 2n)`` torsion vectors of the n ``residues``, drawn one row
    after another."""
    _check_smoothness(smoothness)
    out = np.empty((rows, 2 * len(residues)), dtype=np.float64)
    lib = native.draw_library(rng) if residues else None
    if lib is not None:
        offset, size, cdf, params = _sequence_tables(residues)
        with native.bit_generator(rng) as bits:
            lib.sample_rows(
                bits, rows, len(residues), offset.ctypes.data, size.ctypes.data,
                cdf.ctypes.data, params.ctypes.data, smoothness, out.ctypes.data,
            )
        return out
    tables = [_basin_table(aa) for aa in residues]
    random, normal = rng.random, rng.normal
    for row in out:
        prev = -1
        k = 0
        for cdf, params in tables:
            if 0 <= prev < len(params) and random() < smoothness:
                idx = prev
            else:
                idx = int(cdf.searchsorted(random(), side="right"))
            phi_mean, psi_mean, phi_sigma, psi_sigma = params[idx]
            row[k] = _wrap(normal(phi_mean, phi_sigma))
            row[k + 1] = _wrap(normal(psi_mean, psi_sigma))
            k += 2
            prev = idx
    return out


def sample_loop_torsions(
    sequence: str,
    rng: np.random.Generator,
    smoothness: float = 0.0,
) -> np.ndarray:
    """Sample a full loop torsion vector ``(phi_1, psi_1, ..., phi_n, psi_n)``.

    Parameters
    ----------
    sequence:
        One-letter loop sequence.
    rng:
        Random generator.
    smoothness:
        In ``[0, 1)``: probability that a residue re-uses the basin of its
        predecessor, which produces runs of similar local structure (as real
        loops do) instead of independent per-residue draws.
    """
    return _sample_rows(validate_sequence(sequence), 1, rng, smoothness)[0]


@dataclass
class RamachandranModel:
    """Callable wrapper bundling the basin tables with convenience methods.

    ``smoothness`` (see :func:`sample_loop_torsions`) is checked at
    construction, so an invalid model fails before its first draw.
    """

    smoothness: float = 0.3

    def __post_init__(self) -> None:
        _check_smoothness(self.smoothness)

    def sample_sequence(self, sequence: str, rng: np.random.Generator) -> np.ndarray:
        """Sample a loop torsion vector for ``sequence``."""
        return sample_loop_torsions(sequence, rng, smoothness=self.smoothness)

    def sample_population(
        self, sequence: str, population_size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample a ``(P, 2n)`` population torsion matrix for ``sequence``."""
        if population_size <= 0:
            raise ValueError("population_size must be positive")
        return _sample_rows(validate_sequence(sequence), population_size, rng, self.smoothness)

    def log_density(self, aa: str, phi: float, psi: float) -> float:
        """Log of the (unnormalised) basin-mixture density at (phi, psi).

        Used by tests and by the mutation operator's optional bias.  The
        density is a wrapped-Gaussian mixture; wrapping is approximated by
        evaluating the nearest periodic image, which is accurate for the
        basin widths used here (sigma << pi).
        """
        basins = constants.ramachandran_basins(aa)
        total = 0.0
        for phi_mean, psi_mean, phi_sigma, psi_sigma, weight in basins:
            dphi = wrap_angle(phi - phi_mean)
            dpsi = wrap_angle(psi - psi_mean)
            z = (dphi / phi_sigma) ** 2 + (dpsi / psi_sigma) ** 2
            total += weight * np.exp(-0.5 * z) / (phi_sigma * psi_sigma)
        return float(np.log(max(total, 1e-300)))

    def sample_pairs(
        self, aa: str, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample ``count`` independent (phi, psi) pairs for residue type ``aa``."""
        return _sample_rows((aa,), count, rng, 0.0)
