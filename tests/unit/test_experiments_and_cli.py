"""Unit tests for the experiment framework, the static drivers and the CLI.

The expensive experiment drivers are covered by the integration tests and
the benchmark suite; here we test the framework mechanics (registry, scales,
result rendering), the static Table III driver, and the command-line
interfaces on their cheap paths.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.aggregation import merge_decoy_sets
from repro.analysis.reporting import TextTable
from repro.cli import experiments_main, sample_main
from repro.config import SamplingConfig
from repro.experiments import (
    EXPERIMENT_REGISTRY,
    Experiment,
    ExperimentResult,
    get_experiment,
    list_experiments,
    run_experiment,
)
from repro.experiments.base import register_experiment
from repro.experiments.decoy_quality import DecoyQualityExperiment, PAPER_TABLE4
from repro.experiments.occupancy_table import PAPER_TABLE3
from repro.experiments.runner import PAPER_EXPERIMENTS, run_experiments
from repro.experiments.speedup_loops import PAPER_TABLE1
from repro.runtime.spec import campaign_cell_seed


class TestRegistry:
    def test_every_paper_artifact_has_a_driver(self):
        for experiment_id in ("fig1", "fig3", "fig4", "fig5", "fig6",
                              "table1", "table2", "table3", "table4"):
            assert experiment_id in EXPERIMENT_REGISTRY

    def test_ablations_registered(self):
        assert "ablation_multi_vs_single" in EXPERIMENT_REGISTRY
        assert "ablation_ccd" in EXPERIMENT_REGISTRY
        assert "ablation_batch_kernels" in EXPERIMENT_REGISTRY

    def test_list_experiments_sorted(self):
        ids = list_experiments()
        assert ids == sorted(ids)
        assert set(PAPER_EXPERIMENTS) <= set(ids)

    def test_get_experiment_unknown(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_get_experiment_instantiates_with_seed(self):
        driver = get_experiment("fig5", seed=77)
        assert driver.seed == 77

    def test_duplicate_registration_rejected(self):
        class Duplicate(Experiment):
            experiment_id = "fig1"
            title = "dup"
            paper_reference = "dup"

            def execute(self, scale):  # pragma: no cover - never runs
                raise NotImplementedError

        with pytest.raises(ValueError):
            register_experiment(Duplicate)

    def test_unnamed_experiment_rejected(self):
        class Unnamed(Experiment):
            def execute(self, scale):  # pragma: no cover - never runs
                raise NotImplementedError

        with pytest.raises(ValueError):
            register_experiment(Unnamed)


class TestExperimentBase:
    def test_every_driver_defines_the_three_scales(self):
        for experiment_id, cls in EXPERIMENT_REGISTRY.items():
            driver = cls()
            for scale in ("smoke", "default", "paper"):
                assert scale in driver.scale_configs, (experiment_id, scale)

    def test_config_for_scale_applies_seed(self):
        driver = get_experiment("fig1", seed=123)
        config = driver.config_for_scale("smoke")
        assert isinstance(config, SamplingConfig)
        assert config.seed == 123

    def test_config_for_unknown_scale(self):
        with pytest.raises(KeyError):
            get_experiment("fig1").config_for_scale("galactic")

    def test_result_render_plain_and_markdown(self):
        table = TextTable(headers=["a"], title="numbers")
        table.add_row(1)
        result = ExperimentResult(
            experiment_id="toy",
            title="Toy experiment",
            paper_reference="Table 0",
            scale="smoke",
            tables=[table],
            notes=["scaled down"],
            wall_seconds=1.5,
        )
        text = result.render()
        assert "TOY" in text and "Table 0" in text and "scaled down" in text
        markdown = result.render_markdown()
        assert markdown.startswith("### TOY")
        assert "`smoke`" in markdown


class TestStaticDrivers:
    def test_table3_reproduces_paper_exactly(self):
        result = run_experiment("table3", scale="smoke")
        assert result.data["matches_paper"] is True
        assert result.data["occupancies"]["[CCD]"] == pytest.approx(0.50)
        assert result.data["occupancies"]["[EvalTRIP]"] == pytest.approx(0.75)
        assert set(result.data["registers_per_thread"]) == set(PAPER_TABLE3)

    def test_paper_reference_tables_are_consistent(self):
        # Table I rows: six 12-residue loops with ~40x speedups.
        assert len(PAPER_TABLE1) == 6
        assert all(30.0 < row[2] < 60.0 for row in PAPER_TABLE1.values())
        # Table IV totals 53 targets.
        assert sum(v[0] for v in PAPER_TABLE4.values()) == 53

    def test_runner_rejects_unknown_ids(self):
        with pytest.raises(KeyError):
            run_experiments(["does_not_exist"], scale="smoke")

    def test_runner_report_rendering(self):
        report = run_experiments(["table3"], scale="smoke")
        assert report.total_seconds() >= 0.0
        assert "TABLE3" in report.render()
        assert "### TABLE3" in report.render_markdown()
        assert set(report.by_id()) == {"table3"}


class TestDecoyQualityProtocol:
    def test_smoke_target_selection_keeps_named_cases(self):
        driver = DecoyQualityExperiment()
        protocol = driver.protocol_for_scale("smoke")
        entries = driver.select_targets(protocol)
        names = {entry.name for entry in entries}
        assert len(entries) == protocol.n_targets
        assert "3pte(91:101)" in names
        assert "1xyz(813:824)" in names

    def test_full_scale_selects_all_targets(self):
        driver = DecoyQualityExperiment()
        protocol = driver.protocol_for_scale("paper")
        assert len(driver.select_targets(protocol)) == 53

    def test_unknown_scale_rejected(self):
        with pytest.raises(KeyError):
            DecoyQualityExperiment().protocol_for_scale("huge")


class TestCollectDecoys:
    TARGETS = ("1cex(40:51)", "3pte(91:101)")
    CONFIG = SamplingConfig(population_size=16, n_complexes=2, iterations=2)

    @staticmethod
    def _spy_rounds(monkeypatch):
        from repro.api import Session

        grids = []
        run = Session.run

        def _spy(session, grid):
            grids.append(grid)
            return run(session, grid)

        monkeypatch.setattr(Session, "run", _spy)
        return grids

    def test_rounds_equal_the_merge_over_every_trajectory(self, monkeypatch):
        driver = DecoyQualityExperiment(seed=3)
        full = driver.run_campaign("smoke", self.TARGETS, self.CONFIG, seeds=3)
        grids = self._spy_rounds(monkeypatch)
        sets = driver.collect_decoys("smoke", self.TARGETS, self.CONFIG, 3, 1000)
        # Budget never fills: one round per seed label, coordinate-derived
        # seeds exactly as in the one-campaign grid.
        assert [grid.seeds for grid in grids] == [(0,), (1,), (2,)]
        for label, grid in enumerate(grids):
            for cell in grid.cells():
                assert cell.seed == campaign_cell_seed(3, cell.target, "default", label)
        for name in self.TARGETS:
            expected = merge_decoy_sets(
                [cell.decoys for cell in full.select(target=name)],
                distinct_only=True,
                max_size=1000,
            )
            got = sets[name]
            assert len(got) == len(expected) < 1000
            for a, b in zip(got, expected):
                assert np.array_equal(a.torsions, b.torsions)
                assert a.rmsd == b.rmsd

    def test_a_full_target_runs_no_further_trajectory(self, monkeypatch):
        driver = DecoyQualityExperiment(seed=3)
        first = driver.run_campaign("smoke", self.TARGETS, self.CONFIG, seeds=1)
        grids = self._spy_rounds(monkeypatch)
        sets = driver.collect_decoys("smoke", self.TARGETS, self.CONFIG, 3, 1)
        # Every trajectory harvests at least one decoy, so round 0 fills
        # both budgets of one and rounds 1 and 2 never run.
        assert len(grids) == 1
        for name in self.TARGETS:
            (decoy,) = sets[name]
            (cell,) = first.select(target=name)
            assert np.array_equal(decoy.torsions, next(iter(cell.decoys)).torsions)


class TestCLI:
    def test_experiments_list(self, capsys):
        assert experiments_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "table4" in out

    def test_experiments_run_static_driver(self, capsys):
        assert experiments_main(["table3", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Registers" in out or "occupancy" in out.lower()

    def test_experiments_markdown_output(self, capsys):
        assert experiments_main(["table3", "--markdown"]) == 0
        assert "### TABLE3" in capsys.readouterr().out

    def test_sample_list_targets(self, capsys):
        assert sample_main(["--list-targets"]) == 0
        out = capsys.readouterr().out
        assert "1cex(40:51)" in out
        assert out.count("residues") == 53

    def test_sample_runs_tiny_job(self, capsys, tmp_path):
        pdb_path = tmp_path / "best.pdb"
        code = sample_main(
            [
                "1cex(40:51)",
                "--population", "16",
                "--complexes", "4",
                "--iterations", "2",
                "--backend", "gpu",
                "--pdb", str(pdb_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best RMSD" in out
        assert pdb_path.exists()


    def test_sample_runs_a_one_cell_campaign(self, capsys, monkeypatch):
        from repro.api import Session

        ran = []
        run = Session.run

        def _spy(session, grid):
            ran.append(grid)
            return run(session, grid)

        monkeypatch.setattr(Session, "run", _spy)
        argv = ["1cex(40:51)", "--population", "8", "--complexes", "2",
                "--iterations", "1", "--seed", "4"]
        assert sample_main(argv) == 0
        (grid,) = ran
        assert grid.n_trajectories == 1
        assert grid.base_seed == 4
        assert grid.cell(0).seed == campaign_cell_seed(4, "1cex(40:51)", "default", 0)
        assert "distinct decoys" in capsys.readouterr().out


class TestSingleTrajectoryOrchestrator:
    def test_sampler_is_built_only_by_the_executor_and_fig5(self):
        # Every trajectory runs as a campaign cell; Fig. 5 alone steps a
        # sampler itself, to snapshot the front inside one trajectory.
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        sites = set()
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name == "MOSCEMSampler":
                    sites.add(path.relative_to(src).as_posix())
        assert sites == {"runtime/executor.py", "experiments/front_evolution.py"}


class TestParallelRunner:
    def test_workers_do_not_change_the_report(self):
        # table3 is static and cheap; the parallel path must return the
        # same rendered report as the sequential one, in request order.
        serial = run_experiments(["table3"], scale="smoke", workers=1)
        pooled = run_experiments(["table3"], scale="smoke", workers=2)
        assert [r.experiment_id for r in pooled.results] == ["table3"]
        serial_tables = [t.render() for r in serial.results for t in r.tables]
        pooled_tables = [t.render() for r in pooled.results for t in r.tables]
        assert serial_tables == pooled_tables

    def test_cli_accepts_workers_flag(self, capsys):
        assert experiments_main(["table3", "--workers", "2"]) == 0
        assert "Occupancy" in capsys.readouterr().out
