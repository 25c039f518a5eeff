"""Experiment FIG6 — best decoys for the easy and the hard named target.

Figure 6 of the paper overlays the best generated decoy on the native loop
for two cases:

* 3pte(91:101), where the best decoy reaches 0.42 A RMSD — essentially the
  native structure;
* 1xyz(813:824), the single target for which no decoy within 2 A was found
  (best 2.15 A), because the loop is deeply buried and clashes with the rest
  of the protein dominate all three scoring functions.

This driver collects a decoy set for both targets (trajectories as campaign
seed labels, repeated until the decoy budget is full), reports the best
decoy RMSD of each, checks the easy/hard contrast, and optionally writes
the best decoy plus the native as PDB files for visual inspection.
"""

from __future__ import annotations

import os
from typing import Mapping, Optional

from repro.analysis.decoys import evaluate_decoy_set
from repro.analysis.reporting import TextTable
from repro.config import SamplingConfig
from repro.experiments.base import (
    Experiment,
    ExperimentResult,
    Scale,
    register_experiment,
)
from repro.loops.targets import get_target
from repro.protein.pdb import loop_to_pdb

__all__ = ["CaseStudiesExperiment", "PAPER_CASE_RMSD"]

#: Best-decoy RMSDs reported in the paper's Fig. 6.
PAPER_CASE_RMSD = {"3pte(91:101)": 0.42, "1xyz(813:824)": 2.15}


@register_experiment
class CaseStudiesExperiment(Experiment):
    """Reproduce Fig. 6: the well-modelled target vs the buried failure case."""

    experiment_id = "fig6"
    title = "Best decoys for 3pte(91:101) and 1xyz(813:824)"
    paper_reference = "Figure 6 (best decoys; easy vs buried hard target)"

    easy_target = "3pte(91:101)"
    hard_target = "1xyz(813:824)"

    scale_configs: Mapping[Scale, SamplingConfig] = {
        "smoke": SamplingConfig(population_size=96, n_complexes=4, iterations=8),
        "default": SamplingConfig(population_size=384, n_complexes=8, iterations=20),
        "paper": SamplingConfig(population_size=15360, n_complexes=120, iterations=100),
    }

    #: Decoys collected per target; trajectories repeat until it is full.
    decoy_budget = 50

    #: Cap on the trajectories per target.  At smoke scale the budget
    #: fills after 3-5 trajectories (median 4 over 12 base seeds).
    scale_trajectories: Mapping[Scale, int] = {"smoke": 4, "default": 4, "paper": 50}

    def __init__(self, seed: int = 0, output_dir: Optional[str] = None) -> None:
        super().__init__(seed=seed)
        #: Optional directory in which the native and best-decoy PDB files of
        #: both cases are written (the Figure 6 overlay material).
        self.output_dir = output_dir

    @staticmethod
    def _best_decoy(name: str, decoys):
        target = get_target(name)
        quality = evaluate_decoy_set(
            decoys, target_name=name, loop_length=target.n_residues
        )
        best = None
        if len(decoys):
            best = min(decoys, key=lambda d: d.rmsd)
        return target, quality, best

    def _write_pdbs(self, target, best_decoy, label: str) -> None:
        if self.output_dir is None or best_decoy is None:
            return
        os.makedirs(self.output_dir, exist_ok=True)
        loop_to_pdb(
            target.native_coords,
            target.sequence,
            os.path.join(self.output_dir, f"{label}_native.pdb"),
            environment=target.environment_coords,
        )
        loop_to_pdb(
            best_decoy.coords,
            target.sequence,
            os.path.join(self.output_dir, f"{label}_best_decoy.pdb"),
        )

    def execute(self, scale: Scale) -> ExperimentResult:
        decoy_sets = self.collect_decoys(
            scale,
            (self.easy_target, self.hard_target),
            self.config_for_scale(scale),
            self.scale_trajectories[scale],
            self.decoy_budget,
        )
        easy_target, easy_quality, easy_best = self._best_decoy(
            self.easy_target, decoy_sets[self.easy_target]
        )
        hard_target, hard_quality, hard_best = self._best_decoy(
            self.hard_target, decoy_sets[self.hard_target]
        )
        self._write_pdbs(easy_target, easy_best, "3pte_91_101")
        self._write_pdbs(hard_target, hard_best, "1xyz_813_824")

        table = TextTable(
            headers=[
                "target",
                "buried",
                "#decoys",
                "best RMSD (A)",
                "mean RMSD (A)",
                "paper best RMSD (A)",
            ],
            title="Case-study decoy quality",
            float_digits=2,
        )
        for target, quality in (
            (easy_target, easy_quality),
            (hard_target, hard_quality),
        ):
            table.add_row(
                quality.target_name,
                target.buried,
                quality.n_decoys,
                quality.best_rmsd,
                quality.mean_rmsd,
                PAPER_CASE_RMSD[quality.target_name],
            )

        contrast = TextTable(
            headers=["quantity", "paper", "measured"],
            title="Easy vs hard contrast",
            float_digits=2,
        )
        contrast.add_row(
            "hard (buried) target worse than easy target",
            "2.15A vs 0.42A",
            hard_quality.best_rmsd > easy_quality.best_rmsd,
        )
        contrast.add_row(
            "hard target environment denser than easy target",
            "1xyz loop deeply buried",
            hard_target.environment_coords.shape[0]
            > easy_target.environment_coords.shape[0],
        )

        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title=self.title,
            paper_reference=self.paper_reference,
            scale=scale,
            tables=[table, contrast],
            data={
                "easy_target": self.easy_target,
                "hard_target": self.hard_target,
                "easy_best_rmsd": easy_quality.best_rmsd,
                "hard_best_rmsd": hard_quality.best_rmsd,
                "easy_n_decoys": easy_quality.n_decoys,
                "hard_n_decoys": hard_quality.n_decoys,
                "contrast_holds": hard_quality.best_rmsd > easy_quality.best_rmsd,
                "paper_rmsds": dict(PAPER_CASE_RMSD),
                "easy_environment_atoms": int(easy_target.environment_coords.shape[0]),
                "hard_environment_atoms": int(hard_target.environment_coords.shape[0]),
            },
        )
        result.notes.append(
            "paper shape to check: the buried target stays substantially harder "
            "than the exposed one under identical sampling effort."
        )
        if scale != "paper":
            result.notes.append(
                "decoy budget scaled down; absolute RMSDs differ from 0.42A/2.15A."
            )
        return result
