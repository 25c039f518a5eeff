"""repro — GPU-accelerated multi-scoring-functions protein loop sampling.

A from-scratch Python reproduction of Li & Zhu, *GPU-Accelerated
Multi-scoring Functions Protein Loop Structure Sampling* (IPDPS Workshops,
2010).  The package contains:

* the MOSCEM multi-objective MCMC sampler over loop backbone torsion space
  (:mod:`repro.moscem`),
* the three backbone scoring functions — soft-sphere VDW, triplet torsion
  and pairwise distance potentials (:mod:`repro.scoring`),
* CCD loop closure (:mod:`repro.closure`),
* a scalar CPU reference backend and a population-batched backend running on
  a simulated SIMT device with profiling and occupancy models
  (:mod:`repro.backends`, :mod:`repro.simt`),
* the synthetic 53-target long-loop benchmark (:mod:`repro.loops`),
* analysis utilities and one experiment driver per table/figure of the paper
  (:mod:`repro.analysis`, :mod:`repro.experiments`).

Quickstart
----------
>>> from repro import SamplingConfig, Session, campaign
>>> grid = campaign("quickstart", targets="1cex(40:51)",
...                 configs=SamplingConfig(population_size=128, n_complexes=8,
...                                        iterations=10))
>>> with Session.ephemeral() as session:  # doctest: +SKIP
...     result = session.run(grid)
>>> result.best_rmsd()  # doctest: +SKIP
1.7
"""

from repro.config import PaperConfig, SamplingConfig
from repro.loops.loop import LoopTarget
from repro.loops.targets import (
    benchmark_registry,
    get_target,
    make_target,
    paper_named_targets,
)
from repro.moscem.decoys import Decoy, DecoySet
from repro.moscem.sampler import MOSCEMSampler, SamplingResult
from repro.moscem.baseline import BaselineResult, SimulatedAnnealingBaseline
from repro.scoring import (
    DistanceScore,
    MultiScore,
    ScoringFunction,
    SoftSphereVDW,
    TripletScore,
    WeightedSumScore,
    default_multi_score,
)
from repro.backends import CPUBackend, GPUBackend, SamplingBackend, make_backend
from repro.closure import CCDResult, ccd_close, ccd_close_batch
from repro.experiments import (
    list_experiments,
    run_experiment,
    run_experiments,
)
from repro.api import (
    Campaign,
    CampaignHandle,
    CampaignResult,
    Session,
    TrajectoryResult,
    campaign,
    load_campaign,
    register_backend,
    register_scorer,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # Configuration
    "SamplingConfig",
    "PaperConfig",
    # Targets
    "LoopTarget",
    "get_target",
    "make_target",
    "benchmark_registry",
    "paper_named_targets",
    # Sampler
    "MOSCEMSampler",
    "SamplingResult",
    "SimulatedAnnealingBaseline",
    "BaselineResult",
    "Decoy",
    "DecoySet",
    # Scoring
    "ScoringFunction",
    "MultiScore",
    "SoftSphereVDW",
    "TripletScore",
    "DistanceScore",
    "WeightedSumScore",
    "default_multi_score",
    # Backends and closure
    "SamplingBackend",
    "CPUBackend",
    "GPUBackend",
    "make_backend",
    "CCDResult",
    "ccd_close",
    "ccd_close_batch",
    # Experiments
    "list_experiments",
    "run_experiment",
    "run_experiments",
    # Campaign API (the public front door; see repro.api)
    "Campaign",
    "CampaignHandle",
    "CampaignResult",
    "Session",
    "TrajectoryResult",
    "campaign",
    "load_campaign",
    "register_backend",
    "register_scorer",
]
