"""End-to-end tests of the island-migration archipelago.

Covers the acceptance criteria of the islands subsystem:

* with ``MigrationPolicy.none()`` (or no migration block) campaign results
  are bit-identical to fully independent cells;
* a ring-topology campaign drains to completion through the daemon — cells
  park themselves *waiting* at migration boundaries and later passes
  resume them — and its migration ledger is complete and internally
  consistent;
* killing the daemon mid-drain and re-draining reproduces the exact
  migration ledger and merged decoy sets of an uninterrupted run;
* the synchronous path (:meth:`Session.run`, in-process drain passes)
  converges to the same bits as the daemon-drained asynchronous path;
* a pass dispatches a waiting island only once its source packets are on
  disk, leased or not;
* the ``repro-campaign --migration`` CLI flags switch a plain campaign
  file into an archipelago.

When ``REPRO_CAMPAIGN_STORE`` is set (the CI ``migration-drain`` job does
this), the campaign stores are created beneath it so a failing run leaves
its store behind as an inspectable workflow artifact; otherwise everything
lives in pytest temp dirs.
"""

from __future__ import annotations

import json
import os
import uuid

import numpy as np
import pytest

import repro.runtime.executor as executor_module
from repro.api import MigrationPolicy, Session, campaign, drain_once
from repro.cli import campaign_main, daemon_main
from repro.config import SamplingConfig
from repro.runtime import RunStore

SMOKE_CONFIG = SamplingConfig(population_size=16, n_complexes=4, iterations=6)

#: Boundaries at iterations 2 and 4 with checkpoint_every=2, cadence=1.
N_EPOCHS = 2


@pytest.fixture()
def store_root(tmp_path):
    """A per-test store directory, surfaced as a CI artifact on failure."""
    base = os.environ.get("REPRO_CAMPAIGN_STORE")
    if base:
        root = os.path.join(base, uuid.uuid4().hex[:12])
        os.makedirs(root, exist_ok=True)
        return root
    return str(tmp_path / "store")


def _grid(**overrides):
    defaults = dict(
        campaign_id="archipelago",
        targets="1cex(40:51)",
        configs={"tiny": SMOKE_CONFIG},
        seeds=3,
        backends="gpu",
        base_seed=7,
        checkpoint_every=2,
        workers=1,
        migration=MigrationPolicy(topology="ring", cadence=1, elite_k=2),
    )
    defaults.update(overrides)
    return campaign(
        defaults.pop("campaign_id"),
        defaults.pop("targets"),
        defaults.pop("configs"),
        **defaults,
    )


def _drain_to_completion(store, handle, max_passes=15, workers=1):
    passes = 0
    while not handle.status().complete:
        assert passes < max_passes, (
            f"campaign did not converge in {max_passes} passes: "
            f"{handle.status().counts}"
        )
        drain_once(store, workers=workers, progress=lambda _l: None)
        passes += 1
    return passes


def _assert_same_decoys(result_a, result_b):
    assert result_a.targets() == result_b.targets()
    for target in result_a.targets():
        a = result_a.merged_decoys(target)
        b = result_b.merged_decoys(target)
        assert len(a) == len(b)
        for da, db in zip(a, b):
            assert np.array_equal(da.torsions, db.torsions)
            assert np.array_equal(da.coords, db.coords)
            assert np.array_equal(da.scores, db.scores)
            assert da.rmsd == db.rmsd


class TestNoOpPolicy:
    def test_none_policy_bit_identical_to_plain_campaign(self, store_root, tmp_path):
        plain = _grid(migration=None)
        noop = _grid(migration=MigrationPolicy.none())
        result_plain = Session(store_root, workers=1).run(plain)
        result_noop = Session(str(tmp_path / "noop"), workers=1).run(noop)
        _assert_same_decoys(result_plain, result_noop)
        assert result_noop.migration_ledger == []
        assert all(t.migration_epochs == 0 for t in result_noop)


class TestRingDrain:
    def test_daemon_drains_archipelago_with_waiting_cells(self, store_root):
        store = RunStore(store_root)
        grid = _grid()
        handle = Session(store).submit(grid)

        # The first pass cannot finish everything: the first-scheduled
        # island has no packets to absorb and parks at its first boundary
        # (downstream islands may ride the freshly emitted packets further,
        # even to completion).
        report = drain_once(store, workers=1, progress=lambda _l: None)
        assert report.waiting > 0
        assert report.executed < grid.n_trajectories
        assert not report.idle
        states = {c.state for c in handle.status().cells}
        assert "waiting" in states

        _drain_to_completion(store, handle)
        result = handle.result()
        assert len(result) == grid.n_trajectories

        # Ledger: one event per island per epoch, consistent counts.
        ledger = result.migration_ledger
        assert len(ledger) == grid.n_trajectories * N_EPOCHS
        for event in ledger:
            offered = sum(s["offered"] for s in event["sources"])
            assert offered == 2  # elite_k per (single ring) source
            assert len(event["accepted"]) + event["rejected_duplicates"] == offered
            assert event["topology"] == "ring"
        assert all(t.migration_epochs == N_EPOCHS for t in result)
        # Material actually flowed between islands.
        assert sum(len(e["accepted"]) for e in ledger) > 0
        provenance = result.island_provenance()
        assert set(provenance) == {0, 1, 2}

        # Migration changed the outcome relative to independent cells.
        independent = Session(store_root + "-indep", workers=1).run(
            _grid(migration=None)
        )
        merged = result.merged_decoys("1cex(40:51)")
        merged_indep = independent.merged_decoys("1cex(40:51)")
        assert len(merged) != len(merged_indep) or not all(
            np.array_equal(a.torsions, b.torsions)
            for a, b in zip(merged, merged_indep)
        )

    def test_sync_executor_matches_drained_daemon(self, store_root, tmp_path):
        grid = _grid()
        store = RunStore(store_root)
        handle = Session(store).submit(grid)
        _drain_to_completion(store, handle)
        drained = handle.result()

        synchronous = Session(str(tmp_path / "sync"), workers=1).run(grid)
        _assert_same_decoys(drained, synchronous)
        assert json.dumps(drained.migration_ledger, sort_keys=True) == json.dumps(
            synchronous.migration_ledger, sort_keys=True
        )

    def test_multi_target_groups_migrate_independently(self, store_root):
        grid = _grid(
            campaign_id="two-targets",
            targets=["1cex(40:51)", "1akz(181:192)"],
            seeds=2,
        )
        store = RunStore(store_root)
        handle = Session(store).submit(grid)
        _drain_to_completion(store, handle)
        result = handle.result()
        groups = {e["group"] for e in result.migration_ledger}
        assert groups == {
            "1cex(40:51)|tiny|gpu",
            "1akz(181:192)|tiny|gpu",
        }
        # Exchanges never cross targets: every source shard of an event
        # belongs to the event's own group.
        cells = {cell.index: cell for cell in grid.cells()}
        for event in result.migration_ledger:
            target = event["group"].split("|", 1)[0]
            assert cells[event["shard"]].target == target
            for source in event["sources"]:
                assert cells[source["shard"]].target == target
        assert result.migration_events("1cex(40:51)") != result.migration_events(
            "1akz(181:192)"
        )


class TestKillAndRedrain:
    def test_killed_daemon_replays_identical_ledger_and_decoys(
        self, store_root, tmp_path
    ):
        """The acceptance experiment: kill the daemon mid-drain; the
        re-drained campaign reproduces the uninterrupted run's migration
        ledger and merged decoy sets bit-for-bit."""
        grid = _grid(campaign_id="killed")
        store = RunStore(store_root)
        handle = Session(store).submit(grid)

        class Killed(Exception):
            pass

        original = executor_module._build_sampler

        def killing(cell_):
            sampler = original(cell_)
            inner_step = sampler.step

            def step(state, host_ledger=None):
                if state.iteration == 3:  # past the epoch-1 boundary at 2
                    raise Killed("daemon killed mid-cell")
                return inner_step(state, host_ledger=host_ledger)

            sampler.step = step
            return sampler

        executor_module._build_sampler = killing
        try:
            report = drain_once(store, workers=1, progress=lambda _l: None)
        finally:
            executor_module._build_sampler = original
        # The pass made island progress and lost cells to the kill, but
        # completed nothing.
        assert report.executed == 0
        assert report.failed + report.waiting == grid.n_trajectories

        _drain_to_completion(store, handle)
        interrupted = handle.result()
        assert any(t.resumed_from is not None for t in interrupted)

        clean = Session(str(tmp_path / "clean"), workers=1).run(grid)
        assert json.dumps(
            interrupted.migration_ledger, sort_keys=True
        ) == json.dumps(clean.migration_ledger, sort_keys=True)
        _assert_same_decoys(interrupted, clean)


class TestReadiness:
    def test_unleased_pass_skips_a_waiter_without_packets(
        self, store_root, tmp_path, monkeypatch
    ):
        """A waiting island whose source packet is not on disk is not
        dispatched by an unleased pass: it counts as waiting, never runs,
        and the full drain still matches a clean run."""
        grid = _grid(campaign_id="ready", seeds=2)
        store = RunStore(store_root)
        handle = Session(store).submit(grid)
        built = []
        failed_once = []
        original = executor_module._build_sampler

        def failing_island_0_once(cell_):
            built.append(cell_.index)
            if cell_.index == 0 and not failed_once:
                failed_once.append(True)
                raise RuntimeError("island 0 fails once")
            return original(cell_)

        monkeypatch.setattr(executor_module, "_build_sampler", failing_island_0_once)
        # Island 0 fails before emitting; island 1 parks waiting on it.
        report = drain_once(store, workers=1, progress=lambda _l: None)
        assert report.failed == 1 and report.waiting == 1
        assert store.read_shard_status("ready", 1)["waiting_on"] == [0]

        # Island 1's source packet is still missing when this pass scans,
        # so only island 0 is built.
        built.clear()
        report = drain_once(store, workers=1, progress=lambda _l: None)
        assert built == [0]
        assert report.failed == 0 and report.waiting == 2

        _drain_to_completion(store, handle)
        clean = Session(str(tmp_path / "clean"), workers=1).run(grid)
        _assert_same_decoys(handle.result(), clean)

        def without_failures(journal):
            return [
                line
                for line in journal.splitlines()
                if json.loads(line)["type"] != "cell-failed"
            ]

        clean_journal = RunStore(str(tmp_path / "clean")).canonical_journal("ready")
        assert without_failures(store.canonical_journal("ready")) == (
            without_failures(clean_journal)
        )


class TestStarvedIslands:
    def test_waiting_cells_park_when_their_source_is_exhausted(self, store_root):
        """An island waiting on a deterministically broken neighbour must
        not keep the daemon spinning: once the source is parked by the
        attempt cap, the waiter is parked too and the pass goes idle."""
        grid = _grid(campaign_id="starved", seeds=2)
        store = RunStore(store_root)
        Session(store).submit(grid)
        original = executor_module._build_sampler

        def broken_island_1(cell_):
            if cell_.index == 1:
                raise RuntimeError("island 1 always broken")
            return original(cell_)

        executor_module._build_sampler = broken_island_1
        try:
            # Island 0 parks waiting on shard 1's packet; shard 1 burns
            # through its attempt budget.
            for _ in range(2):
                report = drain_once(
                    store, workers=1, progress=lambda _l: None, max_attempts=2
                )
                assert report.failed == 1
                assert report.waiting == 1
            # Shard 1 is exhausted; the waiter is starved-parked with it.
            report = drain_once(
                store, workers=1, progress=lambda _l: None, max_attempts=2
            )
            assert report.skipped_exhausted == 2
            assert report.waiting == 0 and report.failed == 0
            assert report.idle
        finally:
            executor_module._build_sampler = original
        # Raising the cap revives the whole archipelago.
        passes = 0
        handle = Session(store).handle("starved")
        while not handle.status().complete and passes < 10:
            drain_once(store, workers=1, progress=lambda _l: None, max_attempts=None)
            passes += 1
        assert handle.status().complete


class TestMigrationCLI:
    def _write_campaign(self, tmp_path) -> str:
        pytest.importorskip("tomllib")
        path = tmp_path / "islands.toml"
        path.write_text(
            "\n".join(
                [
                    "[campaign]",
                    'id = "cli-islands"',
                    'targets = ["1cex(40:51)"]',
                    "seeds = 2",
                    'backends = ["gpu"]',
                    "checkpoint_every = 2",
                    "workers = 1",
                    "[configs.default]",
                    "population_size = 16",
                    "n_complexes = 4",
                    "iterations = 6",
                ]
            )
        )
        return str(path)

    def test_submit_with_migration_flags_and_drain(
        self, store_root, tmp_path, capsys
    ):
        doc = self._write_campaign(tmp_path)
        assert campaign_main(
            [
                "--store", store_root,
                "submit", doc,
                "--migration", "ring",
                "--migration-elite", "1",
            ]
        ) == 0
        capsys.readouterr()

        # Drain passes until complete (waiting cells keep the daemon busy).
        for _pass in range(10):
            assert daemon_main(
                ["--store", store_root, "--drain-once"]
            ) == 0
            out = capsys.readouterr().out
            if "drained 2 cell(s)" in out or "0 waiting on migration" in out:
                status_code = campaign_main(
                    ["--store", store_root, "status", "cli-islands"]
                )
                assert status_code == 0
                if "2/2 cells done" in capsys.readouterr().out:
                    break
        else:
            pytest.fail("CLI drain did not converge")

        assert campaign_main(["--store", store_root, "result", "cli-islands"]) == 0
        out = capsys.readouterr().out
        assert "migration events" in out

    def test_toml_migration_block(self, store_root, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "block.toml"
        path.write_text(
            "\n".join(
                [
                    "[campaign]",
                    'id = "toml-islands"',
                    'targets = ["1cex(40:51)"]',
                    "seeds = 2",
                    "checkpoint_every = 2",
                    "[configs.default]",
                    "population_size = 16",
                    "n_complexes = 4",
                    "iterations = 6",
                    "[migration]",
                    'topology = "ring"',
                    "elite_k = 1",
                    'selection = "rank"',
                ]
            )
        )
        from repro.api import load_campaign

        grid = load_campaign(path)
        assert grid.migration == MigrationPolicy(
            topology="ring", elite_k=1, selection="rank"
        )
        assert all(cell.migration is not None for cell in grid.cells())
