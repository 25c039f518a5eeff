"""Experiment drivers: one per table and figure of the paper, plus ablations.

| id                        | reproduces  |
|---------------------------|-------------|
| ``fig1``                  | Fig. 1 — CPU-only time profile |
| ``fig3``                  | Fig. 3 — population size vs front diversity and best RMSD |
| ``fig4``                  | Fig. 4 — time vs population size, CPU vs CPU-GPU |
| ``fig5``                  | Fig. 5 — evolution of the non-dominated set |
| ``fig6``                  | Fig. 6 — easy vs buried case study |
| ``table1``                | Table I — speedup on the six 12-residue loops |
| ``table2``                | Table II — GPU task time breakdown |
| ``table3``                | Table III — registers per thread and occupancy |
| ``table4``                | Table IV — decoy quality over the 53 targets |
| ``ablation_multi_vs_single`` | Section II — multi-scoring sampling vs global optimisation |
| ``ablation_ccd``          | Section III.C — closure with and without CCD |
| ``ablation_batch_kernels``| Section IV.B — scalar vs batched kernel cost |

Each driver runs at three scales: ``smoke`` (seconds; used by tests and
benches), ``default`` (minutes) and ``paper`` (the paper's own parameters —
hours on this pure-Python substrate).

Every trajectory workload is a campaign (:meth:`Experiment.run_campaign`)
and every table a view over its :class:`~repro.api.results.CampaignResult`:
``fig1`` and ``table2`` read the cells' stored host and kernel ledgers,
``table4`` and ``fig6`` run each target's trajectories as seed labels
until its merged decoy set is full (:meth:`Experiment.collect_decoys`).
Besides the static ``table3``, three drivers run no campaign: ``fig5``
snapshots the front inside one trajectory, and ``ablation_ccd`` and
``ablation_batch_kernels`` time kernel implementations against each
other.
"""

# Importing the driver modules registers them in EXPERIMENT_REGISTRY.
from repro.experiments.base import (
    EXPERIMENT_REGISTRY,
    Experiment,
    ExperimentResult,
    Scale,
    get_experiment,
    list_experiments,
    register_experiment,
)
from repro.experiments.profiling_cpu import CPUProfileExperiment
from repro.experiments.population_size import PopulationSizeExperiment
from repro.experiments.speedup_scaling import SpeedupScalingExperiment
from repro.experiments.speedup_loops import TwelveResidueSpeedupExperiment
from repro.experiments.gpu_task_breakdown import GPUTaskBreakdownExperiment
from repro.experiments.occupancy_table import OccupancyTableExperiment
from repro.experiments.decoy_quality import DecoyQualityExperiment
from repro.experiments.front_evolution import FrontEvolutionExperiment
from repro.experiments.case_studies import CaseStudiesExperiment
from repro.experiments.ablations import (
    BatchKernelAblationExperiment,
    CCDAblationExperiment,
    MultiVsSingleObjectiveExperiment,
)
from repro.experiments.runner import (
    PAPER_EXPERIMENTS,
    RunnerReport,
    run_experiment,
    run_experiments,
)

__all__ = [
    "EXPERIMENT_REGISTRY",
    "Experiment",
    "ExperimentResult",
    "Scale",
    "get_experiment",
    "list_experiments",
    "register_experiment",
    "CPUProfileExperiment",
    "PopulationSizeExperiment",
    "SpeedupScalingExperiment",
    "TwelveResidueSpeedupExperiment",
    "GPUTaskBreakdownExperiment",
    "OccupancyTableExperiment",
    "DecoyQualityExperiment",
    "FrontEvolutionExperiment",
    "CaseStudiesExperiment",
    "MultiVsSingleObjectiveExperiment",
    "CCDAblationExperiment",
    "BatchKernelAblationExperiment",
    "PAPER_EXPERIMENTS",
    "RunnerReport",
    "run_experiment",
    "run_experiments",
]
