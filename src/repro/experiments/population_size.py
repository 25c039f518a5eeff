"""Experiment FIG3 — population size vs sampling quality.

The paper runs 32 independent trajectories on 1akz(181:192) with population
sizes 100, 1,000 and 10,000 and reports (a) the average number of
structurally distinct non-dominated conformations found per trajectory and
(b) the minimum / maximum / average RMSD of the best decoy per trajectory.
The observation: larger populations find more distinct non-dominated
structures and better decoys.

This driver keeps the design (several independent trajectories per
population size, same target) at scaled-down population sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

from repro.analysis.reporting import TextTable
from repro.analysis.statistics import TrajectoryStats, summarize_rmsd_trajectories
from repro.config import SamplingConfig
from repro.experiments.base import (
    Experiment,
    ExperimentResult,
    Scale,
    register_experiment,
)

__all__ = ["PopulationSizeExperiment", "PopulationSizeSetting"]


@dataclass(frozen=True)
class PopulationSizeSetting:
    """One point of the population-size sweep."""

    population_size: int
    n_complexes: int
    iterations: int
    trajectories: int


@register_experiment
class PopulationSizeExperiment(Experiment):
    """Reproduce Fig. 3: larger populations yield more diverse, better fronts."""

    experiment_id = "fig3"
    title = "Population size vs distinct non-dominated structures and best RMSD"
    paper_reference = "Figure 3 (population sizes 100/1,000/10,000 on 1akz(181:192))"

    target_name = "1akz(181:192)"

    #: Population sweep per scale: (population, complexes, iterations, trajectories).
    scale_settings: Mapping[Scale, Sequence[PopulationSizeSetting]] = {
        "smoke": (
            PopulationSizeSetting(16, 4, 4, 2),
            PopulationSizeSetting(48, 4, 4, 2),
            PopulationSizeSetting(128, 8, 4, 2),
        ),
        "default": (
            PopulationSizeSetting(32, 4, 10, 4),
            PopulationSizeSetting(128, 8, 10, 4),
            PopulationSizeSetting(512, 16, 10, 4),
        ),
        "paper": (
            PopulationSizeSetting(100, 10, 100, 32),
            PopulationSizeSetting(1000, 20, 100, 32),
            PopulationSizeSetting(10000, 100, 100, 32),
        ),
    }

    # The base-class scale_configs are unused; settings above carry the scale.
    scale_configs: Mapping[Scale, SamplingConfig] = {
        "smoke": SamplingConfig(),
        "default": SamplingConfig(),
        "paper": SamplingConfig(),
    }

    def settings_for_scale(self, scale: Scale) -> Sequence[PopulationSizeSetting]:
        """The population sweep of a scale preset."""
        if scale not in self.scale_settings:
            raise KeyError(f"{self.experiment_id} has no scale {scale!r}")
        return self.scale_settings[scale]

    def _run_grid(self, scale: Scale, settings: Sequence[PopulationSizeSetting]):
        """Run the sweep as one campaign: one config per population
        setting, with the independent trajectories as the seeds axis."""
        configs = {
            f"pop{setting.population_size}": SamplingConfig(
                population_size=setting.population_size,
                n_complexes=setting.n_complexes,
                iterations=setting.iterations,
            )
            for setting in settings
        }
        trajectories = {setting.trajectories for setting in settings}
        assert len(trajectories) == 1, "settings of one scale share a trajectory count"
        return self.run_campaign(
            scale, self.target_name, configs, seeds=trajectories.pop()
        )

    def _setting_stats(
        self, campaign_result, setting: PopulationSizeSetting
    ) -> TrajectoryStats:
        """Aggregate the trajectories of one population setting."""
        cells = campaign_result.select(config_name=f"pop{setting.population_size}")
        best_rmsds = [
            cell.decoys.best_rmsd() if cell.n_decoys else cell.best_front_rmsd
            for cell in cells
        ]
        distinct_counts = [cell.n_decoys for cell in cells]
        return summarize_rmsd_trajectories(best_rmsds, distinct_counts)

    def execute(self, scale: Scale) -> ExperimentResult:
        settings = self.settings_for_scale(scale)
        campaign_result = self._run_grid(scale, settings)

        table = TextTable(
            headers=[
                "population",
                "trajectories",
                "avg distinct non-dominated",
                "best RMSD min (A)",
                "best RMSD max (A)",
                "best RMSD avg (A)",
            ],
            title=f"Population-size sweep on {self.target_name}",
            float_digits=2,
        )

        sweep: List[Tuple[int, TrajectoryStats]] = []
        for setting in settings:
            stats = self._setting_stats(campaign_result, setting)
            sweep.append((setting.population_size, stats))
            table.add_row(
                setting.population_size,
                stats.n_trajectories,
                stats.mean_distinct_non_dominated,
                stats.min_best_rmsd,
                stats.max_best_rmsd,
                stats.mean_best_rmsd,
            )

        populations = [p for p, _ in sweep]
        distinct = [s.mean_distinct_non_dominated for _, s in sweep]
        mean_best = [s.mean_best_rmsd for _, s in sweep]

        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title=self.title,
            paper_reference=self.paper_reference,
            scale=scale,
            tables=[table],
            data={
                "populations": populations,
                "mean_distinct_non_dominated": distinct,
                "mean_best_rmsd": mean_best,
                "min_best_rmsd": [s.min_best_rmsd for _, s in sweep],
                "max_best_rmsd": [s.max_best_rmsd for _, s in sweep],
                "trajectories_per_setting": [s.n_trajectories for _, s in sweep],
            },
        )
        result.notes.append(
            "paper shape to check: the distinct-structure count grows with the "
            "population size and the average best RMSD does not get worse."
        )
        if scale != "paper":
            result.notes.append(
                "population sizes and trajectory counts are scaled down from the "
                "paper's 100/1,000/10,000 x 32 trajectories."
            )
        return result
