"""Integration tests: the full sampling pipeline on benchmark targets.

These exercise the public API the way the examples and the benches do:
registry target -> MOSCEM sampler (or a campaign of trajectories) ->
decoy set -> analysis, on both backends, at very small (but non-trivial)
scales.
"""

import numpy as np
import pytest

from repro import (
    MOSCEMSampler,
    SamplingConfig,
    Session,
    SimulatedAnnealingBaseline,
    campaign,
    get_target,
)
from repro.analysis.aggregation import merge_decoy_sets
from repro.analysis.clustering import structure_coverage
from repro.analysis.decoys import evaluate_decoy_set
from repro.analysis.pareto import front_statistics
from repro.analysis.statistics import timing_fractions
from repro.utils.timing import TimingLedger


@pytest.fixture(scope="module")
def target():
    return get_target("5pti(7:17)")


@pytest.fixture(scope="module")
def gpu_run(target):
    config = SamplingConfig(population_size=48, n_complexes=4, iterations=6, seed=1)
    return MOSCEMSampler(target, config=config, backend_kind="gpu").run(
        snapshot_iterations=(0, 6)
    )


class TestFullPipelineGPU:
    def test_run_produces_front_and_decoys(self, gpu_run):
        assert gpu_run.n_non_dominated() >= 1
        decoys = gpu_run.distinct_non_dominated()
        assert len(decoys) >= 1
        assert np.isfinite(decoys.best_rmsd())

    def test_snapshots_track_progress(self, gpu_run):
        snaps = gpu_run.recorder.by_iteration()
        assert set(snaps) == {0, 6}
        assert snaps[6].n_non_dominated >= 1

    def test_front_statistics_integrate_with_run(self, gpu_run):
        stats = front_statistics(gpu_run.population.scores, gpu_run.rmsd)
        assert stats.front_size == gpu_run.n_non_dominated()
        assert stats.best_rmsd == pytest.approx(gpu_run.best_non_dominated_rmsd)

    def test_kernel_time_dominated_by_ccd(self, gpu_run):
        fractions = timing_fractions(gpu_run.kernel_ledger)
        # The paper's central profiling observation: loop closure is the
        # dominant kernel, ahead of scoring.
        assert fractions.get("closure", 0.0) > fractions.get("scoring", 0.0)

    def test_heavy_kernels_dominate_host_work(self, gpu_run):
        combined = TimingLedger()
        combined.merge(gpu_run.kernel_ledger)
        combined.merge(gpu_run.host_ledger)
        fractions = timing_fractions(combined)
        heavy = fractions.get("closure", 0.0) + fractions.get("scoring", 0.0)
        assert heavy > 0.8


class TestDecoyGenerationPipeline:
    def test_decoy_set_and_quality_report(self, target):
        # Two trajectories on the seeds axis; the 15-decoy budget is
        # applied when their decoy sets are merged.
        grid = campaign(
            "decoy-pipeline",
            targets=target.name,
            configs=SamplingConfig(population_size=32, n_complexes=4, iterations=4),
            seeds=2,
            base_seed=3,
            checkpoint_every=0,
            workers=1,
        )
        with Session.ephemeral() as session:
            result = session.run(grid)
        assert [cell.seed_index for cell in result] == [0, 1]
        decoys = merge_decoy_sets(
            [cell.decoys for cell in result], distinct_only=True, max_size=15
        )
        assert 1 <= len(decoys) <= 15
        assert {d.trajectory for d in decoys} <= {0, 1}
        quality = evaluate_decoy_set(decoys, target.name, target.n_residues)
        assert quality.n_decoys == len(decoys)
        assert quality.best_rmsd == pytest.approx(decoys.best_rmsd())
        assert quality.counts_below[1.5] <= quality.n_decoys


class TestBackendFunctionalEquivalence:
    """The paper's claim: CPU and CPU-GPU runs with different RNG streams
    produce different decoys but populate similar structure clusters."""

    def test_structure_coverage_between_backends(self, target):
        config = SamplingConfig(population_size=24, n_complexes=4, iterations=3, seed=5)
        cpu_run = MOSCEMSampler(target, config=config, backend_kind="cpu").run(seed=5)
        gpu_run = MOSCEMSampler(target, config=config, backend_kind="gpu").run(seed=6)
        cpu_decoys = cpu_run.distinct_non_dominated()
        gpu_decoys = gpu_run.distinct_non_dominated()
        assert len(cpu_decoys) and len(gpu_decoys)
        cpu_coords = np.stack([d.coords for d in cpu_decoys])
        gpu_coords = np.stack([d.coords for d in gpu_decoys])
        # Both backends sample the same target from Ramachandran-based
        # populations, so at a coarse structural resolution their decoy sets
        # overlap even with different random streams.  (The runs here are far
        # shorter than the paper's, hence the generous cutoff.)
        coarse = structure_coverage(cpu_coords, gpu_coords, rmsd_cutoff=6.0)
        fine = structure_coverage(cpu_coords, gpu_coords, rmsd_cutoff=2.0)
        assert coarse > 0.0
        assert coarse >= fine

    def test_backends_report_comparable_score_scales(self, target):
        config = SamplingConfig(population_size=16, n_complexes=4, iterations=2, seed=7)
        cpu_scores = (
            MOSCEMSampler(target, config=config, backend_kind="cpu").run().population.scores
        )
        gpu_scores = (
            MOSCEMSampler(target, config=config, backend_kind="gpu").run().population.scores
        )
        # Same scoring functions, same target: per-objective medians must be
        # on the same order of magnitude even though the decoys differ.
        cpu_median = np.median(cpu_scores, axis=0)
        gpu_median = np.median(gpu_scores, axis=0)
        ratio = (cpu_median + 1.0) / (gpu_median + 1.0)
        assert np.all(ratio > 0.2)
        assert np.all(ratio < 5.0)


class TestBaselineComparison:
    def test_multiobjective_sampler_yields_more_structures_than_baseline(self, target):
        config = SamplingConfig(population_size=32, n_complexes=4, iterations=4, seed=9)
        moscem = MOSCEMSampler(target, config=config, backend_kind="gpu").run()
        baseline = SimulatedAnnealingBaseline(target, config=config).run()
        # The single-objective optimiser commits to one structure; MOSCEM
        # returns a whole non-dominated set.
        assert moscem.n_non_dominated() >= 1
        assert len(moscem.distinct_non_dominated()) >= 1
        assert baseline.best_score_rmsd >= baseline.best_rmsd
