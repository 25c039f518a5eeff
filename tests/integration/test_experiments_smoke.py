"""Integration tests: the cheap experiment drivers run end to end at smoke
scale and their results carry the paper's qualitative shape.

The expensive drivers (fig3, fig4, fig6, table1, table4) are exercised by
the benchmark suite; here we run the ones that complete in a few seconds and
check the shape claims the paper makes.
"""

import pytest

from repro.api import Session, campaign
from repro.config import SamplingConfig
from repro.experiments import run_experiment
from repro.loops.targets import get_target
from repro.moscem.sampler import MOSCEMSampler
from repro.simt.profiler import KernelProfiler


@pytest.fixture(scope="module")
def table2_result():
    return run_experiment("table2", scale="smoke", seed=0)


@pytest.fixture(scope="module")
def fig5_result():
    return run_experiment("fig5", scale="smoke", seed=0)


class TestGPUTaskBreakdown:
    def test_ccd_is_the_dominant_kernel(self, table2_result):
        data = table2_result.data
        assert data["dominant_kernel"] == "[CCD]"
        assert data["kernel_fractions"]["[CCD]"] > 0.5

    def test_triplet_kernel_is_negligible(self, table2_result):
        fractions = table2_result.data["kernel_fractions"]
        assert fractions["[EvalTRIP]"] < fractions["[EvalDIST]"]
        assert fractions["[EvalTRIP]"] < fractions["[EvalVDW]"]
        assert fractions["[EvalTRIP]"] < 0.05

    def test_memory_synchronisation_small(self, table2_result):
        assert table2_result.data["transfer_fraction"] < 0.1

    def test_kernel_call_counts_match_iteration_structure(self, table2_result):
        calls = table2_result.data["kernel_calls"]
        # CCD and the scoring kernels run once at initialisation plus once
        # per iteration; population fitness runs once per iteration plus
        # twice outside the loop.
        assert calls["[CCD]"] == calls["[EvalVDW]"] == calls["[EvalDIST]"]
        assert calls["[FitAssg] within Complex"] == calls["[CCD]"] - 1

    def test_tables_rendered(self, table2_result):
        assert len(table2_result.tables) == 2
        assert "[CCD]" in table2_result.tables[0].render()


class TestTableIIFromStoredLedger:
    """Oracle: Table II rows read from a stored gpu cell equal the rows of
    the same trajectory's backend profiled in-process."""

    def test_stored_rows_match_in_process_profiler(self):
        grid = campaign(
            "table2-oracle",
            targets="1cex(40:51)",
            configs=SamplingConfig(population_size=16, n_complexes=4, iterations=2),
            checkpoint_every=0,
            workers=1,
        )
        with Session.ephemeral() as session:
            (stored_cell,) = session.run(grid)
        stored = KernelProfiler(ledger=stored_cell.kernel_ledger)

        cell = grid.cell(0)
        sampler = MOSCEMSampler(get_target(cell.target), config=cell.config)
        sampler.run(seed=cell.seed)
        live = sampler.backend.profiler

        assert stored.kernel_calls == live.kernel_calls

        def memcpy_rows(profiler):
            return [
                (row.method, row.calls, row.gpu_seconds)
                for row in profiler.rows()
                if row.category == "Mem sync"
            ]

        assert memcpy_rows(stored) == memcpy_rows(live)
        assert {method for method, _, _ in memcpy_rows(stored)} == {
            "memcpyHtoA", "memcpyHtoD", "memcpyDtoH", "memcpyDtoA"
        }
        assert stored.total_transfer_seconds() == live.total_transfer_seconds()


class TestFrontEvolution:
    def test_snapshots_cover_requested_iterations(self, fig5_result):
        assert fig5_result.data["snapshot_iterations"][0] == 0
        assert len(fig5_result.data["non_dominated_counts"]) == 3

    def test_front_is_nonempty_throughout(self, fig5_result):
        assert all(c >= 1 for c in fig5_result.data["non_dominated_counts"])

    def test_best_rmsd_does_not_blow_up(self, fig5_result):
        rmsds = fig5_result.data["best_rmsds"]
        assert rmsds[-1] <= rmsds[0] + 1.0


class TestAblationCCD:
    def test_ccd_restores_closure(self):
        result = run_experiment("ablation_ccd", scale="smoke", seed=0)
        data = result.data
        assert data["ccd_closed_fraction"] > data["raw_closed_fraction"]
        assert data["closed_mean_error"] < data["raw_mean_error"] / 2
        assert data["raw_closed_fraction"] < 0.05


class TestAblationBatchKernels:
    def test_batched_ccd_cheaper_than_scalar(self):
        result = run_experiment("ablation_batch_kernels", scale="smoke", seed=0)
        ccd = result.data["CCD"]
        assert ccd["batched"] < ccd["scalar"]
        # Every kernel has both measurements recorded.
        for key in ("EvalVDW", "EvalTRIP", "EvalDIST"):
            assert result.data[key]["scalar"] > 0.0
            assert result.data[key]["batched"] > 0.0


class TestCPUProfile:
    def test_closure_and_scoring_dominate(self):
        result = run_experiment("fig1", scale="smoke", seed=0)
        data = result.data
        assert data["heavy_fraction"] > 0.9
        assert data["closure_fraction"] > data["scoring_fraction"]
        assert data["other_fraction"] < 0.1
