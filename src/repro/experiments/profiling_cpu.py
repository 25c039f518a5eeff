"""Experiment FIG1 — time profile of the CPU-only implementation.

The paper profiles the CPU-only program on 1cex(40:51) (population 15,360,
120 complexes, 100 iterations; ~3.5 hours on one CPU) and finds that loop
closure and the scoring-function evaluations together account for roughly
99% of the wall-clock time (84.15% + 14.79%), which is the argument for
migrating exactly those components to the GPU.

This driver runs one CPU-backend campaign cell at a scaled-down
population and reports the same breakdown from the cell's stored kernel and
host ledgers: closure fraction, scoring fraction, and everything else.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.reporting import TextTable, format_seconds
from repro.analysis.statistics import KERNEL_GROUPS, timing_fractions
from repro.config import SamplingConfig
from repro.experiments.base import (
    Experiment,
    ExperimentResult,
    Scale,
    register_experiment,
)
from repro.loops.targets import get_target

__all__ = ["CPUProfileExperiment"]

#: Fractions reported by the paper's Fig. 1 for the CPU-only implementation.
PAPER_FRACTIONS = {"closure+scoring": 0.9894, "other": 0.0106}


@register_experiment
class CPUProfileExperiment(Experiment):
    """Reproduce Fig. 1: where the CPU-only implementation spends its time."""

    experiment_id = "fig1"
    title = "CPU-only implementation time profile"
    paper_reference = "Figure 1 (CPU time profiling, 1cex(40:51))"

    target_name = "1cex(40:51)"

    scale_configs: Mapping[Scale, SamplingConfig] = {
        "smoke": SamplingConfig(population_size=16, n_complexes=4, iterations=2),
        "default": SamplingConfig(population_size=64, n_complexes=8, iterations=5),
        "paper": SamplingConfig(population_size=15360, n_complexes=120, iterations=100),
    }

    def execute(self, scale: Scale) -> ExperimentResult:
        config = self.config_for_scale(scale)
        target = get_target(self.target_name)
        campaign_result = self.run_campaign(
            scale, self.target_name, config, backends=("cpu",)
        )

        # Merge backend-kernel and host-side sections into one ledger so the
        # breakdown covers the whole program, as the paper's Fig. 1 does.
        ledgers = campaign_result.merged_ledgers()
        ledger = ledgers["kernel"]
        ledger.merge(ledgers["host"])
        grouped = timing_fractions(ledger)
        closure = grouped.get("closure", 0.0)
        scoring = grouped.get("scoring", 0.0)
        fitness = grouped.get("fitness", 0.0)
        other = max(0.0, 1.0 - closure - scoring - fitness)

        breakdown = TextTable(
            headers=["component", "seconds", "% of total"],
            title=f"CPU time breakdown on {target.name} "
            f"(population {config.population_size}, {config.iterations} iterations)",
        )
        sections = TextTable(
            headers=["section", "calls", "seconds", "% of total"],
            title="Per-section detail",
        )
        total = ledger.total()
        for label, fraction in (
            ("loop closure (CCD)", closure),
            ("scoring functions", scoring),
            ("fitness assignment", fitness),
            ("other (host-side)", other),
        ):
            breakdown.add_row(label, format_seconds(total * fraction), 100.0 * fraction)
        for name, calls, seconds, fraction in ledger.as_rows():
            sections.add_row(name, calls, format_seconds(seconds), 100.0 * fraction)

        comparison = TextTable(
            headers=["quantity", "paper", "measured"],
            title="Headline comparison with Figure 1",
        )
        comparison.add_row(
            "closure + scoring share of CPU time",
            "98.9%",
            100.0 * (closure + scoring),
        )
        comparison.add_row("everything else", "1.1%", 100.0 * (1.0 - closure - scoring))

        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title=self.title,
            paper_reference=self.paper_reference,
            scale=scale,
            tables=[comparison, breakdown, sections],
            data={
                "closure_fraction": closure,
                "scoring_fraction": scoring,
                "fitness_fraction": fitness,
                "other_fraction": other,
                "heavy_fraction": closure + scoring,
                "total_seconds": total,
                "wall_seconds": campaign_result.wall_seconds(),
                "groups": KERNEL_GROUPS,
            },
        )
        if scale != "paper":
            result.notes.append(
                "population/iterations scaled down from the paper's 15,360 x 100; "
                "the breakdown shape (closure and scoring dominate) is what transfers."
            )
        return result
