"""Experiment FIG4 — computational time vs population size, CPU vs CPU-GPU.

The paper times 100-iteration runs of 1cex(40:51) at population sizes from
512 to 15,360 (128 threads per block, 4 to 120 blocks) for both the
CPU-only and the CPU-GPU implementations.  Two observations carry over to
this reproduction:

* the CPU time grows roughly linearly with the population size (about 30x
  more time at 15,360 than at 512), while the CPU-GPU time grows far more
  slowly (2.39x over the same range) because the batched kernels amortise
  per-launch overheads over the whole population;
* the speedup therefore increases with the population size — large
  populations are where the heterogeneous platform pays off.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from repro.analysis.reporting import TextTable, format_seconds
from repro.analysis.statistics import SpeedupRecord, compute_speedup
from repro.config import SamplingConfig
from repro.experiments.base import (
    Experiment,
    ExperimentResult,
    Scale,
    register_experiment,
)

__all__ = ["SpeedupScalingExperiment"]


@register_experiment
class SpeedupScalingExperiment(Experiment):
    """Reproduce Fig. 4: time vs number of threads for both implementations."""

    experiment_id = "fig4"
    title = "Computational time vs population size (CPU vs CPU-GPU)"
    paper_reference = "Figure 4 (1cex(40:51), 512 to 15,360 threads, 100 iterations)"

    target_name = "1cex(40:51)"

    #: Population sizes swept per scale.
    scale_populations: Mapping[Scale, Sequence[int]] = {
        "smoke": (8, 16, 32),
        "default": (16, 64, 256),
        "paper": (512, 1024, 2048, 4096, 7680, 15360),
    }

    #: Iterations per scale.
    scale_iterations: Mapping[Scale, int] = {"smoke": 2, "default": 3, "paper": 100}

    scale_configs: Mapping[Scale, SamplingConfig] = {
        "smoke": SamplingConfig(population_size=8, n_complexes=4, iterations=2),
        "default": SamplingConfig(population_size=16, n_complexes=4, iterations=3),
        "paper": SamplingConfig(population_size=512, n_complexes=4, iterations=100),
    }

    def populations_for_scale(self, scale: Scale) -> Sequence[int]:
        """The population sweep of a scale preset."""
        if scale not in self.scale_populations:
            raise KeyError(f"{self.experiment_id} has no scale {scale!r}")
        return self.scale_populations[scale]

    def _run_grid(self, scale: Scale, populations: Sequence[int], iterations: int):
        """Run the sweep as one campaign: one config per population,
        crossed with both backends."""
        configs = {
            f"pop{population}": SamplingConfig(
                population_size=population,
                n_complexes=max(2, min(8, population // 4)),
                iterations=iterations,
                seed=self.seed,
            )
            for population in populations
        }
        return self.run_campaign(
            scale, self.target_name, configs, seeds=(self.seed,), backends=("cpu", "gpu")
        )

    def execute(self, scale: Scale) -> ExperimentResult:
        populations = self.populations_for_scale(scale)
        iterations = self.scale_iterations[scale]
        campaign_result = self._run_grid(scale, populations, iterations)

        records: List[SpeedupRecord] = []
        table = TextTable(
            headers=[
                "population (threads)",
                "CPU time",
                "CPU-GPU time",
                "speedup",
            ],
            title=f"Time vs population size on {self.target_name} "
            f"({iterations} iterations)",
            float_digits=2,
        )
        for population in populations:
            cells = campaign_result.select(config_name=f"pop{population}")
            seconds = {cell.backend: cell.wall_seconds for cell in cells}
            record = compute_speedup(
                seconds["cpu"],
                seconds["gpu"],
                label=self.target_name,
                population_size=population,
            )
            records.append(record)
            table.add_row(
                population,
                format_seconds(record.cpu_seconds),
                format_seconds(record.gpu_seconds),
                record.speedup,
            )

        cpu_growth = (
            records[-1].cpu_seconds / records[0].cpu_seconds if records else 0.0
        )
        gpu_growth = (
            records[-1].gpu_seconds / records[0].gpu_seconds if records else 0.0
        )
        growth = TextTable(
            headers=["quantity", "paper", "measured"],
            title="Scaling from the smallest to the largest population",
            float_digits=2,
        )
        growth.add_row("CPU time growth factor", "~30x (512 -> 15,360)", cpu_growth)
        growth.add_row("CPU-GPU time growth factor", "2.39x (512 -> 15,360)", gpu_growth)
        growth.add_row(
            "speedup at largest population",
            "42.7x",
            records[-1].speedup if records else 0.0,
        )

        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title=self.title,
            paper_reference=self.paper_reference,
            scale=scale,
            tables=[table, growth],
            data={
                "populations": list(populations),
                "cpu_seconds": [r.cpu_seconds for r in records],
                "gpu_seconds": [r.gpu_seconds for r in records],
                "speedups": [r.speedup for r in records],
                "cpu_growth": cpu_growth,
                "gpu_growth": gpu_growth,
            },
        )
        result.notes.append(
            "paper shape to check: batched (CPU-GPU) time grows much more slowly "
            "with the population size than the scalar CPU time, so the speedup "
            "increases with the population size."
        )
        if scale != "paper":
            result.notes.append(
                "population sizes scaled down from the paper's 512-15,360 sweep; "
                "absolute speedups differ because the 'GPU' here is vectorised "
                "NumPy on the host CPU."
            )
        return result
