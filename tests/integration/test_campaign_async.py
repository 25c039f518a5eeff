"""End-to-end tests of the async campaign surface: submit -> daemon drain.

Covers the acceptance criteria of the campaign layer:

* ``Session.submit`` persists the manifest and returns immediately
  (every cell pending, nothing executed);
* a daemon drain over a 2-worker pool completes the campaign, and the
  handle's typed result is identical — decoy sets and aggregates — to a
  synchronous 1-worker ``Session.run`` of the same campaign;
* killing the daemon mid-run and re-draining resumes from checkpoints and
  still converges to the identical result; re-running a half-finished
  campaign skips its completed cells;
* a failed cell raises out of ``Session.run`` and is reported by drains;
* ``Session.run`` drains only its own campaign, and journals the same
  records as a daemon drain;
* cancellation stops the daemon from scheduling pending cells (and makes
  ``Session.run`` refuse the campaign), and runs in the retired
  single-target manifest format are skipped, not fatal;
* the ``repro-campaign`` / ``repro-daemon`` CLI round trip works.

When ``REPRO_CAMPAIGN_STORE`` is set (the CI job does this), the campaign
stores are created beneath it so a failing run leaves its store behind as
an inspectable workflow artifact; otherwise everything lives in pytest
temp dirs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import uuid
from pathlib import Path

import numpy as np
import pytest

import repro.runtime.executor as executor_module
from repro.api import (
    CampaignError,
    CampaignIncomplete,
    Session,
    campaign,
    drain_once,
    serve,
)
from repro.cli import campaign_main, daemon_main
from repro.config import SamplingConfig
from repro.runtime import RunStore, RunStoreError, ShardFailure, run_cell

SMOKE_CONFIG = SamplingConfig(population_size=16, n_complexes=4, iterations=4)


@pytest.fixture()
def store_root(tmp_path):
    """A per-test store directory, surfaced as a CI artifact on failure."""
    base = os.environ.get("REPRO_CAMPAIGN_STORE")
    if base:
        root = os.path.join(base, uuid.uuid4().hex[:12])
        os.makedirs(root, exist_ok=True)
        return root
    return str(tmp_path / "store")


#: The retired sampling fields with the defaults pre-change manifests hold.
RETIRED_SAMPLING_DEFAULTS = {
    "temperature": 1.0,
    "temperature_min": 0.05,
    "temperature_max": 10.0,
    "target_acceptance": 0.3,
    "mutation_angles": 2,
    "mutation_sigma": math.radians(30.0),
    "ccd_iterations": 30,
    "require_closure": True,
}


def _smoke_campaign(**overrides):
    defaults = dict(
        campaign_id="async-smoke",
        targets=["1cex(40:51)", "1akz(181:192)"],
        configs={"tiny": SMOKE_CONFIG},
        seeds=2,
        backends="gpu",
        base_seed=13,
        checkpoint_every=2,
        workers=2,
    )
    defaults.update(overrides)
    return campaign(
        defaults.pop("campaign_id"),
        defaults.pop("targets"),
        defaults.pop("configs"),
        **defaults,
    )


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
        assert result_a.best_rmsd(target) == result_b.best_rmsd(target)


class TestSubmitAndDrain:
    def test_submit_returns_immediately_without_executing(self, store_root):
        session = Session(store_root)
        handle = session.submit(_smoke_campaign())
        status = handle.status()
        assert status.n_cells == 4
        assert status.counts == {"pending": 4}
        assert not status.complete
        with pytest.raises(CampaignIncomplete):
            handle.result()

    def test_drain_completes_and_matches_synchronous_run(self, store_root, tmp_path):
        grid = _smoke_campaign()
        # Asynchronous path: submit, then a 2-worker daemon drain.
        store = RunStore(store_root)
        handle = Session(store).submit(grid)
        report = drain_once(store, workers=2, progress=lambda _l: None)
        assert report.executed == 4 and report.failed == 0
        async_result = handle.result()
        # Two worker processes actually participated.
        pids = {
            store.read_shard_status(grid.campaign_id, i).get("pid")
            for i in range(grid.n_trajectories)
        }
        assert len(pids) >= 2

        # Synchronous 1-worker reference in a separate store: cell outputs
        # do not depend on the worker count.
        sync_session = Session(str(tmp_path / "sync"), workers=1)
        sync_result = sync_session.run(grid)
        _assert_same_decoys(async_result, sync_result)
        # Both paths append the same journal records.
        assert store.canonical_journal(grid.campaign_id) == (
            sync_session.store.canonical_journal(grid.campaign_id)
        )
        # Per-cell metadata survives the round trip.
        for cell in async_result:
            assert cell.target in grid.targets
            assert cell.config_name == "tiny"
            assert cell.backend == "gpu"
            assert cell.n_decoys == len(cell.decoys)
        # A target's merged set is the in-order union of its cells' sets,
        # each decoy still labelled with the cell it came from.
        for target in grid.targets:
            merged = list(async_result.merged_decoys(target))
            expected = [
                (cell.index, decoy)
                for cell in async_result.select(target=target)
                for decoy in cell.decoys
            ]
            assert len(merged) == len(expected)
            for kept, (index, decoy) in zip(merged, expected):
                assert np.array_equal(kept.torsions, decoy.torsions)
                assert np.array_equal(kept.scores, decoy.scores)
                assert kept.trajectory == decoy.trajectory == index

    def test_drain_is_idempotent(self, store_root):
        store = RunStore(store_root)
        Session(store).submit(_smoke_campaign())
        assert drain_once(store, workers=1, progress=lambda _l: None).executed == 4
        again = drain_once(store, workers=1, progress=lambda _l: None)
        assert again.executed == 0 and again.idle

    def test_drain_skips_runs_naming_the_retired_block_size(self, store_root):
        """A manifest written while ``kernel_block_size`` was a sampling
        field no longer loads (the error names the field); the daemon skips
        that run and drains the others in the store."""
        store = RunStore(store_root)
        Session(store).submit(
            _smoke_campaign(campaign_id="blocked", seeds=1, targets="1cex(40:51)")
        )
        path = store.run_dir("blocked") / RunStore.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        for entry in manifest["spec"]["configs"] + manifest["cells"]:
            entry["config"]["kernel_block_size"] = 128
        path.write_text(json.dumps(manifest))
        with pytest.raises(RunStoreError, match="kernel_block_size"):
            store.load_manifest("blocked")

        handle = Session(store).submit(
            _smoke_campaign(campaign_id="fresh", seeds=1, targets="1cex(40:51)")
        )
        lines = []
        report = drain_once(store, workers=1, progress=lines.append)
        assert report.executed == 1 and report.failed == 0
        assert report.campaigns == ["fresh"]
        assert handle.status().complete
        skipped = [line for line in lines if line.startswith("blocked:")]
        assert len(skipped) == 1
        assert "skipping" in skipped[0] and "kernel_block_size" in skipped[0]

    def test_drain_skips_runs_naming_retired_sampling_fields(self, store_root):
        """Every manifest stored while the schedule, mutation, CCD budget
        and gate switch were sampling fields names them (``asdict`` writes
        the defaults too).  Such a manifest no longer loads (the error
        names the field); the daemon skips each such run and drains the
        others in the store."""
        store = RunStore(store_root)
        for name, value in RETIRED_SAMPLING_DEFAULTS.items():
            run_id = "retired-" + name.replace("_", "-")
            Session(store).submit(
                _smoke_campaign(campaign_id=run_id, seeds=1, targets="1cex(40:51)")
            )
            path = store.run_dir(run_id) / RunStore.MANIFEST_NAME
            manifest = json.loads(path.read_text())
            for entry in manifest["spec"]["configs"] + manifest["cells"]:
                entry["config"][name] = value
            path.write_text(json.dumps(manifest))
            with pytest.raises(RunStoreError, match=name):
                store.load_manifest(run_id)

        handle = Session(store).submit(
            _smoke_campaign(campaign_id="fresh", seeds=1, targets="1cex(40:51)")
        )
        lines = []
        report = drain_once(store, workers=1, progress=lines.append)
        assert report.executed == 1 and report.failed == 0
        assert report.campaigns == ["fresh"]
        assert handle.status().complete
        for name in RETIRED_SAMPLING_DEFAULTS:
            prefix = "retired-" + name.replace("_", "-") + ":"
            skipped = [line for line in lines if line.startswith(prefix)]
            assert len(skipped) == 1
            assert "skipping" in skipped[0] and name in skipped[0]

    def test_drain_skips_retired_single_target_runs(self, store_root):
        """A format-1 manifest (the retired single-target batch CLI) next
        to a pending campaign: the daemon reports it skipped and drains on."""
        legacy = Path(store_root) / "legacy-batch"
        legacy.mkdir(parents=True)
        (legacy / RunStore.MANIFEST_NAME).write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "spec": {
                        "run_id": "legacy-batch",
                        "target": "1cex(40:51)",
                        "config": dataclasses.asdict(SMOKE_CONFIG),
                        "n_trajectories": 1,
                        "base_seed": 0,
                        "backends": ["gpu"],
                        "checkpoint_every": 2,
                        "workers": 1,
                    },
                    "shards": [
                        {"run_id": "legacy-batch", "index": 0,
                         "seed": 1, "backend": "gpu"}
                    ],
                }
            )
        )
        store = RunStore(store_root)
        handle = Session(store).submit(
            _smoke_campaign(campaign_id="fresh", seeds=1, targets="1cex(40:51)")
        )
        lines = []
        report = drain_once(store, workers=1, progress=lines.append)
        assert report.executed == 1 and report.failed == 0
        assert report.campaigns == ["fresh"]
        assert handle.status().complete
        skipped = [line for line in lines if line.startswith("legacy-batch:")]
        assert len(skipped) == 1
        assert "skipping" in skipped[0]
        assert "one-target campaign" in skipped[0]

    def test_serve_drains_with_bounded_cycles(self, store_root):
        store = RunStore(store_root)
        handle = Session(store).submit(
            _smoke_campaign(campaign_id="served", seeds=1, targets="1cex(40:51)")
        )
        report = serve(
            store, workers=1, poll_seconds=0.01, max_cycles=2,
            progress=lambda _l: None,
        )
        assert handle.status().complete
        assert report.idle  # the second pass found nothing left


class TestKillAndRedrain:
    def test_killed_daemon_redrains_to_identical_result(self, store_root, tmp_path):
        """Kill the daemon mid-campaign; a re-drain resumes from checkpoints
        and converges to the same decoys as an uninterrupted sync run."""
        grid = _smoke_campaign(
            campaign_id="killed", targets="1cex(40:51)", seeds=2, workers=1
        )
        store = RunStore(store_root)
        handle = Session(store).submit(grid)

        class Killed(Exception):
            pass

        original = executor_module._build_sampler

        def killing(cell_):
            sampler = original(cell_)
            inner_step = sampler.step

            def step(state, host_ledger=None):
                if state.iteration == 3:  # past the iteration-2 checkpoint
                    raise Killed("daemon killed mid-cell")
                return inner_step(state, host_ledger=host_ledger)

            sampler.step = step
            return sampler

        executor_module._build_sampler = killing
        try:
            report = drain_once(store, workers=1, progress=lambda _l: None)
        finally:
            executor_module._build_sampler = original
        assert report.failed == 2 and report.executed == 0
        status = handle.status()
        assert not status.complete
        # Both cells checkpointed before dying.
        for cell_status in status.cells:
            assert cell_status.state == "failed"

        # Re-drain with the healthy sampler: cells resume, not restart.
        report = drain_once(store, workers=1, progress=lambda _l: None)
        assert report.executed == 2 and report.failed == 0
        resumed = handle.result()
        assert all(cell.resumed_from == 2 for cell in resumed)

        clean = Session(str(tmp_path / "clean")).run(grid)
        _assert_same_decoys(resumed, clean)

    def test_rerun_skips_completed_cells(self, store_root):
        """Re-running a half-finished campaign executes only what is left."""
        grid = _smoke_campaign(
            campaign_id="half", targets="1cex(40:51)", seeds=2, workers=1
        )
        store = RunStore(store_root)
        Session(store).submit(grid)
        run_cell(store, grid.cell(0))  # cell 0 done, cell 1 untouched
        lines = []
        result = Session(store, workers=1, progress=lines.append).run(grid)
        assert f"store {store.root}: 1 cell(s) to drain from 1 campaign(s)" in lines
        done = [line for line in lines if "done in" in line]
        assert len(done) == 1 and done[0].startswith("half/shard-0001: ")
        assert len(result) == 2
        assert store.has_shard_result("half", 1)

    def test_run_drains_only_its_own_campaign(self, store_root, monkeypatch):
        """``Session.run`` on a store holding another pending campaign
        executes its own cells only; the other stays pending."""
        store = RunStore(store_root)
        other = Session(store).submit(
            _smoke_campaign(campaign_id="other", targets="1cex(40:51)", seeds=2)
        )
        grid = _smoke_campaign(
            campaign_id="mine", targets="1cex(40:51)", seeds=1, workers=1
        )
        built = []
        original = executor_module._build_sampler

        def counting(cell_):
            built.append(cell_.run_id)
            return original(cell_)

        monkeypatch.setattr(executor_module, "_build_sampler", counting)
        result = Session(store, workers=1, progress=lambda _l: None).run(grid)
        assert len(result) == 1
        assert built == ["mine"]
        assert other.status().counts == {"pending": 2}

    def test_run_refuses_a_cancelled_campaign(self, store_root, monkeypatch):
        """``Session.run`` of a cancelled campaign names the cancellation
        and executes no cell, as every daemon skips it."""
        store = RunStore(store_root)
        grid = _smoke_campaign(
            campaign_id="cancelled", targets="1cex(40:51)", seeds=2, workers=1
        )
        handle = Session(store).submit(grid)
        handle.cancel()
        built = []
        original = executor_module._build_sampler

        def counting(cell_):
            built.append(cell_.index)
            return original(cell_)

        monkeypatch.setattr(executor_module, "_build_sampler", counting)
        with pytest.raises(CampaignError, match="cancelled") as raised:
            Session(store, workers=1, progress=lambda _l: None).run(grid)
        assert not isinstance(raised.value, CampaignIncomplete)
        assert built == []
        assert handle.status().counts == {"pending": 2}

    def test_deterministic_failures_get_parked(self, store_root):
        """A cell that always fails is retried up to the attempt cap, then
        parked — the serve loop must not hot-retry it forever."""
        store = RunStore(store_root)
        handle = Session(store).submit(
            _smoke_campaign(campaign_id="broken", targets="1cex(40:51)", seeds=1)
        )

        original = executor_module._build_sampler

        def broken(cell_):
            raise RuntimeError("always broken")

        executor_module._build_sampler = broken
        try:
            for attempt in range(1, 3):
                report = drain_once(store, workers=1, progress=lambda _l: None)
                assert report.failed == 1
                status = store.read_shard_status("broken", 0)
                assert status["attempts"] == attempt
            # Attempts exhausted (cap 2 here): the cell is parked, the pass
            # is idle, and nothing executes.
            report = drain_once(
                store, workers=1, progress=lambda _l: None, max_attempts=2
            )
            assert report.skipped_exhausted == 1
            assert report.executed == 0 and report.failed == 0
            assert report.idle
        finally:
            executor_module._build_sampler = original

        # A drain with a raised cap (or None) retries the parked cell.
        report = drain_once(store, workers=1, progress=lambda _l: None, max_attempts=None)
        assert report.executed == 1 and report.failed == 0
        assert handle.status().complete

    def test_mid_run_failures_accumulate_attempts(self, store_root):
        """Failures *after* the cell's first status write (mid-sampler)
        must still accumulate attempts — the running-status rewrite may
        not reset the counter, or parking could never trigger."""
        store = RunStore(store_root)
        Session(store).submit(
            _smoke_campaign(campaign_id="midrun", targets="1cex(40:51)", seeds=1)
        )
        original = executor_module._build_sampler

        def dying_after_status_write(cell_):
            sampler = original(cell_)

            def step(state, host_ledger=None):
                raise RuntimeError("dies mid-run")

            sampler.step = step
            return sampler

        executor_module._build_sampler = dying_after_status_write
        try:
            for attempt in (1, 2):
                report = drain_once(store, workers=1, progress=lambda _l: None)
                assert report.failed == 1
                assert store.read_shard_status("midrun", 0)["attempts"] == attempt
            report = drain_once(
                store, workers=1, progress=lambda _l: None, max_attempts=2
            )
            assert report.skipped_exhausted == 1
            assert report.idle
        finally:
            executor_module._build_sampler = original

    def test_failed_pass_is_not_idle(self, store_root):
        store = RunStore(store_root)
        grid = _smoke_campaign(campaign_id="notidle", targets="1cex(40:51)", seeds=1)
        Session(store).submit(grid)
        original = executor_module._build_sampler
        executor_module._build_sampler = lambda cell_: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
        try:
            report = drain_once(store, workers=1, progress=lambda _l: None)
            # The synchronous path raises instead of reporting.
            with pytest.raises(ShardFailure, match="boom"):
                Session(store, workers=1, progress=lambda _l: None).run(grid)
        finally:
            executor_module._build_sampler = original
        assert report.failed == 1
        assert not report.idle
        assert store.read_shard_status("notidle", 0)["state"] == "failed"

    def test_cancel_stops_scheduling(self, store_root):
        store = RunStore(store_root)
        handle = Session(store).submit(_smoke_campaign(campaign_id="tocancel"))
        handle.cancel()
        assert handle.cancelled
        report = drain_once(store, workers=1, progress=lambda _l: None)
        assert report.executed == 0
        assert report.skipped_cancelled == 4
        assert handle.status().counts == {"pending": 4}


class TestCampaignCLI:
    def _write_campaign(self, tmp_path) -> str:
        pytest.importorskip("tomllib")
        path = tmp_path / "smoke.toml"
        path.write_text(
            "\n".join(
                [
                    "[campaign]",
                    'id = "cli-smoke"',
                    'targets = ["1cex(40:51)"]',
                    "seeds = 2",
                    'backends = ["gpu"]',
                    "checkpoint_every = 2",
                    "workers = 2",
                    "[configs.default]",
                    "population_size = 16",
                    "n_complexes = 4",
                    "iterations = 3",
                ]
            )
        )
        return str(path)

    def test_submit_drain_status_result(self, store_root, tmp_path, capsys):
        doc = self._write_campaign(tmp_path)
        assert campaign_main(["--store", store_root, "submit", doc]) == 0
        out = capsys.readouterr().out
        assert "submitted cli-smoke: 2 cell(s)" in out

        # Result before draining fails loudly.
        assert campaign_main(["--store", store_root, "result", "cli-smoke"]) == 1
        assert "not ready" in capsys.readouterr().out

        assert daemon_main(
            ["--store", store_root, "--workers", "2", "--drain-once"]
        ) == 0
        assert "drained 2 cell(s), 0 failure(s)" in capsys.readouterr().out

        assert campaign_main(["--store", store_root, "status", "cli-smoke"]) == 0
        assert "2/2 cells done" in capsys.readouterr().out

        assert campaign_main(["--store", store_root, "result", "cli-smoke"]) == 0
        out = capsys.readouterr().out
        assert "Campaign cli-smoke" in out
        assert "total sampler time" in out

    def test_store_listing_and_cancel(self, store_root, tmp_path, capsys):
        doc = self._write_campaign(tmp_path)
        assert campaign_main(["--store", store_root, "submit", doc]) == 0
        capsys.readouterr()
        assert campaign_main(["--store", store_root, "status"]) == 0
        assert "cli-smoke" in capsys.readouterr().out
        assert campaign_main(["--store", store_root, "cancel", "cli-smoke"]) == 0
        assert "cancelled" in capsys.readouterr().out
        assert daemon_main(["--store", store_root, "--drain-once"]) == 0
        assert (
            "drained 0 cell(s), 0 failure(s), 0 waiting on migration, "
            "0 filled from cache, 0 leased to other daemons, "
            "2 cancelled-pending skipped"
        ) in capsys.readouterr().out
