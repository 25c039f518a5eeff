"""Experiment TAB2 — breakdown of GPU time across kernels and transfers.

The paper's Table II uses the CUDA Visual Profiler on a 15,360-thread,
100-iteration run of 1cex(40:51) and reports, for every kernel and memcpy
category, the number of calls, total GPU time and percentage of GPU time.
The headline observations:

* the CCD kernel dominates (75.2% of GPU time), followed by EvalDIST
  (14.3%) and EvalVDW (8.4%); EvalTRIP (a pure table lookup) is negligible;
* host/device memory synchronisation stays below ~0.7% of GPU time.

This driver runs one simulated-GPU campaign cell and renders the same table
as a view of the cell's stored kernel ledger, which holds the measured
kernel sections and the modelled memcpy records side by side.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.analysis.reporting import TextTable, format_seconds
from repro.config import SamplingConfig
from repro.experiments.base import (
    Experiment,
    ExperimentResult,
    Scale,
    register_experiment,
)
from repro.loops.targets import get_target
from repro.simt.profiler import KernelProfiler

__all__ = ["GPUTaskBreakdownExperiment", "PAPER_TABLE2_FRACTIONS"]

#: The '% GPU time' column of the paper's Table II (kernels only).
PAPER_TABLE2_FRACTIONS: Dict[str, float] = {
    "[CCD]": 0.752,
    "[EvalDIST]": 0.143,
    "[EvalVDW]": 0.0839,
    "[EvalTRIP]": 0.0004,
    "[FitAssg] within Population": 0.0132,
    "[FitAssg] within Complex": 0.0001,
}


@register_experiment
class GPUTaskBreakdownExperiment(Experiment):
    """Reproduce Table II: GPU time per kernel and per memcpy category."""

    experiment_id = "table2"
    title = "Computational time of the GPU tasks"
    paper_reference = "Table II (1cex(40:51), 15,360 threads, 100 iterations)"

    target_name = "1cex(40:51)"

    scale_configs: Mapping[Scale, SamplingConfig] = {
        "smoke": SamplingConfig(population_size=64, n_complexes=8, iterations=3),
        "default": SamplingConfig(population_size=256, n_complexes=8, iterations=10),
        "paper": SamplingConfig(population_size=15360, n_complexes=120, iterations=100),
    }

    def execute(self, scale: Scale) -> ExperimentResult:
        config = self.config_for_scale(scale)
        target = get_target(self.target_name)
        (cell,) = self.run_campaign(scale, self.target_name, config)
        profiler = KernelProfiler(ledger=cell.kernel_ledger)

        table = TextTable(
            headers=["category", "method", "#calls", "GPU time", "% GPU time"],
            title=f"GPU task breakdown on {target.name} "
            f"(population {config.population_size}, {config.iterations} iterations)",
            float_digits=2,
        )
        kernel_fractions: Dict[str, float] = {}
        transfer_fraction = 0.0
        for row in profiler.rows():
            table.add_row(
                row.category,
                row.method,
                row.calls,
                format_seconds(row.gpu_seconds),
                100.0 * row.fraction,
            )
            if row.category == "Kernel":
                kernel_fractions[row.method] = row.fraction
            else:
                transfer_fraction += row.fraction

        comparison = TextTable(
            headers=["kernel", "paper % GPU time", "measured % GPU time"],
            title="Kernel share comparison with Table II",
            float_digits=2,
        )
        for name, paper_fraction in PAPER_TABLE2_FRACTIONS.items():
            comparison.add_row(
                name,
                100.0 * paper_fraction,
                100.0 * kernel_fractions.get(name, 0.0),
            )
        comparison.add_row("all memcpy", 0.69, 100.0 * transfer_fraction)

        dominant = max(kernel_fractions, key=kernel_fractions.get) if kernel_fractions else ""
        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title=self.title,
            paper_reference=self.paper_reference,
            scale=scale,
            tables=[table, comparison],
            data={
                "kernel_fractions": kernel_fractions,
                "transfer_fraction": transfer_fraction,
                "dominant_kernel": dominant,
                "total_gpu_seconds": profiler.total_gpu_seconds(),
                "kernel_calls": dict(profiler.kernel_calls),
                "wall_seconds": cell.wall_seconds,
            },
        )
        result.notes.append(
            "paper shape to check: [CCD] dominates the kernel time, the scoring "
            "kernels come next with [EvalTRIP] negligible, and memory "
            "synchronisation stays a small fraction of the total."
        )
        if scale != "paper":
            result.notes.append(
                "population/iterations scaled down from the paper's 15,360 x 100."
            )
        return result
