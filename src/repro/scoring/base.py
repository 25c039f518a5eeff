"""Scoring-function interface shared by the three potentials.

Every scoring function is bound to a :class:`~repro.loops.loop.LoopTarget`
at construction time (so environment atoms, sequences and lookup indices are
precomputed once) and then exposes two evaluation paths:

* :meth:`ScoringFunction.evaluate` — score a single conformation; this is
  what the paper's CPU implementation runs per population member.
* :meth:`ScoringFunction.evaluate_batch` — score the whole population in a
  single vectorised call; this is the simulated analogue of the paper's GPU
  kernel for that scoring function.

Lower scores are always better.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.xp.dispatch import KernelBundle

__all__ = ["ScoringFunction", "MultiScore"]


class ScoringFunction(abc.ABC):
    """Abstract base class for backbone scoring functions.

    Attributes
    ----------
    name:
        Short identifier (``"VDW"``, ``"TRIPLET"``, ``"DIST"``).
    kernel_name:
        The GPU kernel label the paper uses for this evaluation
        (``"EvalVDW"``, ``"EvalTRIP"``, ``"EvalDIST"``), used by the
        profiler to report Table II-style breakdowns.
    registers_per_thread:
        Registers the corresponding CUDA kernel needs per thread (Table III),
        used by the occupancy model of the simulated device.
    """

    name: str = "SCORE"
    kernel_name: str = "EvalScore"
    registers_per_thread: int = 32

    #: Optional :class:`~repro.xp.dispatch.KernelBundle` the batched
    #: engine calls route through (``None`` = the numpy default, which is
    #: bit-identical).  Set once at stack-assembly time via
    #: :meth:`use_kernels`; scorers whose batched path is pure table
    #: lookup simply ignore it.
    kernels: Optional["KernelBundle"] = None

    def use_kernels(self, kernels: Optional["KernelBundle"]) -> None:
        """Select the kernel bundle batched evaluation runs through.

        Called by backends that bind the :mod:`repro.xp` facade to a
        non-default namespace (e.g. the jax tier) when they assemble
        their scoring stack.  Passing ``None`` restores the numpy path.
        """
        self.kernels = kernels

    @abc.abstractmethod
    def evaluate(self, coords: np.ndarray, torsions: np.ndarray) -> float:
        """Score one conformation.

        Parameters
        ----------
        coords:
            ``(n, 4, 3)`` loop backbone coordinates.
        torsions:
            ``(2n,)`` torsion vector of the same conformation.
        """

    @abc.abstractmethod
    def evaluate_batch(self, coords: np.ndarray, torsions: np.ndarray) -> np.ndarray:
        """Score a population.

        Parameters
        ----------
        coords:
            ``(P, n, 4, 3)`` population coordinates.
        torsions:
            ``(P, 2n)`` population torsions.

        Returns
        -------
        numpy.ndarray
            ``(P,)`` scores (lower is better).
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.__class__.__name__}(name={self.name!r})"


class MultiScore:
    """An ordered collection of scoring functions evaluated together.

    The MOSCEM sampler treats the output columns as the axes of the
    multi-scoring-function space in which Pareto dominance is computed.
    """

    def __init__(self, functions: Sequence[ScoringFunction]) -> None:
        if not functions:
            raise ValueError("MultiScore requires at least one scoring function")
        self.functions: List[ScoringFunction] = list(functions)

    @property
    def names(self) -> List[str]:
        """Names of the member scoring functions, in evaluation order."""
        return [fn.name for fn in self.functions]

    def __len__(self) -> int:
        return len(self.functions)

    def __iter__(self):
        return iter(self.functions)

    def evaluate(self, coords: np.ndarray, torsions: np.ndarray) -> np.ndarray:
        """Score one conformation under every function: shape ``(K,)``."""
        return np.array(
            [fn.evaluate(coords, torsions) for fn in self.functions], dtype=np.float64
        )

    def evaluate_batch(self, coords: np.ndarray, torsions: np.ndarray) -> np.ndarray:
        """Score a population under every function: shape ``(P, K)``."""
        columns = [fn.evaluate_batch(coords, torsions) for fn in self.functions]
        return np.stack(columns, axis=1)
