"""Experiment TAB4 — decoy quality over the 53 long-loop benchmark targets.

The paper generates 1,000 decoys per target (population 15,360, 100
iterations per trajectory, repeated with fresh seeds until the decoy set is
full) for all 53 long-loop targets of the filtered Jacobson benchmark, then
counts how many targets obtained at least one decoy within 1.0 A and within
1.5 A of the native: 41/53 (77.4%) and 48/53 (90.6%) respectively, broken
down by loop length (10, 11, 12 residues).

This driver runs the same protocol on the synthetic benchmark registry at
reduced decoy budgets: each target's trajectories are seed labels of a
campaign, run in rounds until its merged decoy set (30-degree distinctness
rule) is full (:meth:`Experiment.collect_decoys`).  It reports the Table IV
layout plus the per-target detail.  The shape that transfers: most targets
are solved at 1.5 A, fewer at 1.0 A, longer loops are harder, and the
buried target (1xyz(813:824)) remains the worst case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from repro.analysis.decoys import DecoyQualityReport, evaluate_decoy_set
from repro.analysis.reporting import TextTable
from repro.config import SamplingConfig
from repro.experiments.base import (
    Experiment,
    ExperimentResult,
    Scale,
    register_experiment,
)
from repro.loops.targets import BenchmarkTarget, benchmark_registry

__all__ = ["DecoyQualityExperiment", "DecoyQualityProtocol", "PAPER_TABLE4"]

#: The paper's Table IV: loop length -> (#targets, #solved <1.0A, #solved <1.5A).
PAPER_TABLE4 = {10: (27, 23, 25), 11: (17, 12, 16), 12: (9, 6, 7)}


@dataclass(frozen=True)
class DecoyQualityProtocol:
    """Per-scale protocol parameters for the decoy-quality sweep."""

    sampling: SamplingConfig
    decoys_per_target: int
    max_trajectories: int
    n_targets: Optional[int]  # None -> all 53 targets
    rmsd_thresholds: Sequence[float] = (1.0, 1.5)


@register_experiment
class DecoyQualityExperiment(Experiment):
    """Reproduce Table IV: how many targets obtain high-resolution decoys."""

    experiment_id = "table4"
    title = "Targets with high-resolution decoys"
    paper_reference = "Table IV (53 long-loop targets, <1.0A and <1.5A counts)"

    scale_protocols: Mapping[Scale, DecoyQualityProtocol] = {
        "smoke": DecoyQualityProtocol(
            sampling=SamplingConfig(population_size=96, n_complexes=8, iterations=10),
            decoys_per_target=25,
            max_trajectories=2,
            n_targets=6,
            rmsd_thresholds=(1.0, 1.5, 2.5, 3.5),
        ),
        "default": DecoyQualityProtocol(
            sampling=SamplingConfig(population_size=256, n_complexes=8, iterations=15),
            decoys_per_target=50,
            max_trajectories=4,
            n_targets=None,
            rmsd_thresholds=(1.0, 1.5, 2.5, 3.5),
        ),
        "paper": DecoyQualityProtocol(
            sampling=SamplingConfig(
                population_size=15360, n_complexes=120, iterations=100
            ),
            decoys_per_target=1000,
            max_trajectories=50,
            n_targets=None,
        ),
    }

    scale_configs: Mapping[Scale, SamplingConfig] = {
        "smoke": SamplingConfig(),
        "default": SamplingConfig(),
        "paper": SamplingConfig(),
    }

    def protocol_for_scale(self, scale: Scale) -> DecoyQualityProtocol:
        """The protocol of a scale preset."""
        if scale not in self.scale_protocols:
            raise KeyError(f"{self.experiment_id} has no scale {scale!r}")
        return self.scale_protocols[scale]

    def select_targets(self, protocol: DecoyQualityProtocol) -> List[BenchmarkTarget]:
        """Choose the benchmark entries the protocol will run.

        When the protocol limits the target count (smoke scale), the subset
        keeps a mix of loop lengths and always includes the named easy and
        hard cases (3pte and the buried 1xyz) so the qualitative contrast of
        Fig. 6 survives the reduction.
        """
        registry = benchmark_registry()
        if protocol.n_targets is None or protocol.n_targets >= len(registry):
            return registry
        by_name = {t.name: t for t in registry}
        selected: List[BenchmarkTarget] = [
            by_name["3pte(91:101)"],
            by_name["1xyz(813:824)"],
            by_name["1cex(40:51)"],
        ]
        for entry in registry:
            if len(selected) >= protocol.n_targets:
                break
            if entry not in selected:
                selected.append(entry)
        return selected[: protocol.n_targets]

    def execute(self, scale: Scale) -> ExperimentResult:
        protocol = self.protocol_for_scale(scale)
        entries = self.select_targets(protocol)
        decoy_sets = self.collect_decoys(
            scale,
            [entry.name for entry in entries],
            protocol.sampling,
            protocol.max_trajectories,
            protocol.decoys_per_target,
        )

        report = DecoyQualityReport(
            thresholds=tuple(float(t) for t in protocol.rmsd_thresholds)
        )
        detail = TextTable(
            headers=["target", "residues", "#decoys", "best RMSD (A)", "mean RMSD (A)"],
            title="Per-target decoy quality",
            float_digits=2,
        )
        for entry in entries:
            quality = evaluate_decoy_set(
                decoy_sets[entry.name],
                target_name=entry.name,
                loop_length=entry.length,
                thresholds=protocol.rmsd_thresholds,
            )
            report.add(quality)
            detail.add_row(
                quality.target_name,
                quality.loop_length,
                quality.n_decoys,
                quality.best_rmsd,
                quality.mean_rmsd,
            )

        thresholds = list(report.thresholds)
        summary = TextTable(
            headers=["# residues", "# targets"]
            + [f"< {t:.1f}A" for t in thresholds]
            + ["paper < 1.0A", "paper < 1.5A"],
            title="Table IV layout",
        )
        for length, count, solved in report.rows():
            paper_counts = PAPER_TABLE4.get(length, (0, 0, 0))
            summary.add_row(
                length,
                count,
                *[solved.get(float(t), 0) for t in thresholds],
                f"{paper_counts[1]}/{paper_counts[0]}",
                f"{paper_counts[2]}/{paper_counts[0]}",
            )
        fractions = report.solved_fractions()
        totals = report.solved_counts()
        summary.add_row(
            "Total",
            report.n_targets(),
            *[totals.get(float(t), 0) for t in thresholds],
            "41/53 (77.4%)",
            "48/53 (90.6%)",
        )

        worst = report.worst_target()
        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title=self.title,
            paper_reference=self.paper_reference,
            scale=scale,
            tables=[summary, detail],
            data={
                "n_targets": report.n_targets(),
                "solved_counts": totals,
                "solved_fractions": fractions,
                "rows": report.rows(),
                "best_rmsds": {e.target_name: e.best_rmsd for e in report},
                "worst_target": worst.target_name if worst else "",
                "worst_best_rmsd": worst.best_rmsd if worst else float("inf"),
                "paper_fractions": {1.0: 0.774, 1.5: 0.906},
            },
        )
        result.notes.append(
            "paper shape to check: most targets reach < 1.5 A, a smaller but "
            "still large fraction reach < 1.0 A, and the buried loop "
            "1xyz(813:824) is the hardest target."
        )
        if scale != "paper":
            result.notes.append(
                "decoy budget and sampling effort scaled down from 1,000 decoys "
                "per target at population 15,360 x 100 iterations; absolute "
                "solved fractions are lower at reduced effort."
            )
        return result
