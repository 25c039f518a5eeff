"""The three backbone scoring functions of the paper plus supporting machinery.

* :class:`~repro.scoring.triplet.TripletScore` — triplet torsion-angle
  statistical potential (paper ref [7]).
* :class:`~repro.scoring.distance.DistanceScore` — atom pair-wise
  distance-based knowledge potential (paper ref [6]).
* :class:`~repro.scoring.vdw.SoftSphereVDW` — soft-sphere van der Waals
  clash score against the loop itself and the protein environment
  (paper ref [8]).

All three are *backbone* scores with side chains represented implicitly
(through centroids or through statistics), evaluate quickly, and measure
loop favourability through different physics — the properties the paper
gives for selecting them.
"""

from repro.scoring.base import MultiScore, ScoringFunction
from repro.scoring.knowledge import (
    KnowledgeBase,
    build_knowledge_base,
    default_knowledge_base,
)
from repro.scoring.pairwise import (
    DEFAULT_BLOCK_SIZE,
    EnvironmentGrid,
    population_blocks,
)
from repro.scoring.triplet import TripletScore
from repro.scoring.distance import DistanceScore
from repro.scoring.vdw import SoftSphereVDW
from repro.scoring.composite import WeightedSumScore
from repro.scoring.normalization import normalize_scores, score_ranges

__all__ = [
    "ScoringFunction",
    "MultiScore",
    "KnowledgeBase",
    "build_knowledge_base",
    "default_knowledge_base",
    "DEFAULT_BLOCK_SIZE",
    "EnvironmentGrid",
    "population_blocks",
    "TripletScore",
    "DistanceScore",
    "SoftSphereVDW",
    "WeightedSumScore",
    "normalize_scores",
    "score_ranges",
    "DEFAULT_SCORERS",
    "build_multi_score",
    "default_multi_score",
]

#: Registry names of the paper's scoring-function set, in evaluation order.
DEFAULT_SCORERS = ("vdw", "triplet", "dist")


def build_multi_score(names, target, knowledge_base=None) -> MultiScore:
    """Assemble a :class:`MultiScore` from scorer registry names.

    Parameters
    ----------
    names:
        Scorer names resolvable by :data:`repro.api.registry.SCORERS`
        (built-ins: ``"vdw"``, ``"triplet"``, ``"dist"``; more can be
        contributed via :func:`repro.api.registry.register_scorer`).
    target:
        A :class:`repro.loops.loop.LoopTarget`.
    knowledge_base:
        Optional pre-built :class:`KnowledgeBase`; the default synthetic one
        is used otherwise.
    """
    from repro.api.registry import SCORERS

    kb = knowledge_base if knowledge_base is not None else default_knowledge_base()
    return MultiScore(
        [SCORERS.create(name, target, knowledge_base=kb) for name in names]
    )


def default_multi_score(target, knowledge_base=None) -> MultiScore:
    """The paper's scoring-function set (VDW, TRIPLET, DIST) for a target."""
    return build_multi_score(DEFAULT_SCORERS, target, knowledge_base=knowledge_base)
