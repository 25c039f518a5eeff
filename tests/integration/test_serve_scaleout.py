"""Multi-daemon scale-out: leases partition one store, cache skips work.

The acceptance surface of the serving layer:

* three daemons (three :class:`LeaseManager` instances on concurrent
  threads) draining one store converge to the *byte-identical* canonical
  journal and bit-identical decoy sets of a single-daemon drain;
* a daemon that dies holding leases stalls its cells only until the
  lease TTL; survivors usurp the stale leases and finish the campaign,
  again byte-identically;
* a killed-mid-cell drain resumes from checkpoints under a *different*
  daemon identity and still matches an uninterrupted run;
* migrating archipelagos drain correctly under leased daemons, with the
  migration ledger identical to a synchronous run's;
* resubmitting an identical campaign is served entirely from the result
  cache — zero new cell executions, proven by arming a sampler that
  raises if anything executes;
* the migration-aware drain ordering keeps island groups contiguous.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid

import numpy as np
import pytest

import repro.api.daemon as daemon_module
import repro.runtime.executor as executor_module
from repro.api import Session, campaign, drain_once
from repro.api.daemon import _pending_cells
from repro.config import SamplingConfig
from repro.runtime import RunStore
from repro.serve.cache import ResultCache
from repro.serve.leases import LeaseManager

SMOKE_CONFIG = SamplingConfig(population_size=16, n_complexes=4, iterations=4)
QUIET = lambda _line: None  # noqa: E731


@pytest.fixture()
def store_root(tmp_path):
    """A per-test store directory, surfaced as a CI artifact on failure."""
    base = os.environ.get("REPRO_CAMPAIGN_STORE")
    if base:
        root = os.path.join(base, uuid.uuid4().hex[:12])
        os.makedirs(root, exist_ok=True)
        return root
    return str(tmp_path / "store")


def _smoke_campaign(**overrides):
    defaults = dict(
        campaign_id="scaleout",
        targets=["1cex(40:51)", "1akz(181:192)"],
        configs={"tiny": SMOKE_CONFIG},
        seeds=2,
        backends="gpu",
        base_seed=13,
        checkpoint_every=2,
        workers=1,
    )
    defaults.update(overrides)
    return campaign(
        defaults.pop("campaign_id"),
        defaults.pop("targets"),
        defaults.pop("configs"),
        **defaults,
    )


def _drain_fleet(store, handle, daemon_ids, ttl=10.0, cache=None, max_passes=40):
    """Run one draining thread per daemon id until the campaign is done."""
    reports = {daemon_id: [] for daemon_id in daemon_ids}
    failures = []

    def run(daemon_id):
        manager = LeaseManager(store, daemon_id=daemon_id, ttl_seconds=ttl)
        try:
            for _ in range(max_passes):
                if handle.status().complete:
                    return
                reports[daemon_id].append(
                    drain_once(
                        store, workers=1, progress=QUIET,
                        leases=manager, cache=cache,
                    )
                )
                time.sleep(0.01)
        except BaseException as exc:  # surfaced after join
            failures.append((daemon_id, exc))

    threads = [
        threading.Thread(target=run, args=(daemon_id,), daemon=True)
        for daemon_id in daemon_ids
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not failures, f"daemon thread(s) died: {failures}"
    return reports


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


def _shard_blobs(store, run_id, n_cells):
    return [
        (store.shard_dir(run_id, index) / "decoys.npz").read_bytes()
        for index in range(n_cells)
    ]


class TestThreeDaemonDrain:
    def test_fleet_drain_is_byte_identical_to_single_daemon(
        self, store_root, tmp_path
    ):
        grid = _smoke_campaign()
        store = RunStore(store_root)
        handle = Session(store).submit(grid)
        reports = _drain_fleet(store, handle, ["d-a", "d-b", "d-c"])
        assert handle.status().complete
        flat = [r for per_daemon in reports.values() for r in per_daemon]
        # Every cell executed exactly once: leases make the claim passes
        # mutually exclusive, results make re-claims no-ops.
        assert sum(r.executed for r in flat) == grid.n_trajectories
        assert sum(r.failed for r in flat) == 0
        # No lease survived the drain.
        for index in range(grid.n_trajectories):
            assert not store.lease_path(grid.campaign_id, index).exists()

        # The single-daemon reference drain, no leases involved.
        baseline = RunStore(str(tmp_path / "baseline"))
        base_handle = Session(baseline).submit(grid)
        drain_once(baseline, workers=1, progress=QUIET)

        assert store.canonical_journal(grid.campaign_id) == baseline.canonical_journal(
            grid.campaign_id
        )
        assert _shard_blobs(store, grid.campaign_id, grid.n_trajectories) == (
            _shard_blobs(baseline, grid.campaign_id, grid.n_trajectories)
        )
        _assert_same_decoys(handle.result(), base_handle.result())

    def test_contended_claims_are_reported_not_executed(self, store_root):
        """A daemon that loses every claim reports ``skipped_leased`` and
        executes nothing."""
        grid = _smoke_campaign(campaign_id="contended")
        store = RunStore(store_root)
        Session(store).submit(grid)
        winner = LeaseManager(store, daemon_id="winner", ttl_seconds=60.0)
        for cell in grid.cells():
            assert winner.claim(grid.campaign_id, cell.index)

        loser = LeaseManager(store, daemon_id="loser", ttl_seconds=60.0)
        report = drain_once(store, workers=1, progress=QUIET, leases=loser)
        assert report.executed == 0 and report.failed == 0
        assert report.skipped_leased == grid.n_trajectories
        assert not report.idle  # contended work is not "nothing to do"
        winner.release_all()


def _cell_done_counts(store, run_id):
    counts = {}
    for line in store.canonical_journal(run_id).splitlines():
        record = json.loads(line)
        if record.get("type") == "cell-done":
            counts[record["shard"]] = counts.get(record["shard"], 0) + 1
    return counts


class TestClaimOnDispatch:
    def test_a_daemon_holds_one_claim_per_worker_slot(self, store_root, monkeypatch):
        """With one worker, a leased pass holds one lease at a time: the
        claim comes right before the cell runs and goes as it finishes."""
        grid = _smoke_campaign(campaign_id="one-slot")
        store = RunStore(store_root)
        Session(store).submit(grid)
        manager = LeaseManager(store, daemon_id="solo", ttl_seconds=10.0)
        held = []
        original = daemon_module._cell_task

        def observed(payload):
            held.append(manager.held)
            return original(payload)

        monkeypatch.setattr(daemon_module, "_cell_task", observed)
        report = drain_once(store, workers=1, progress=QUIET, leases=manager)
        assert report.executed == grid.n_trajectories
        assert held == [
            [(grid.campaign_id, cell.index)] for cell in grid.cells()
        ]
        assert manager.held == []

    def test_leases_renew_during_an_inline_cell(self, store_root, monkeypatch):
        """A cell three TTLs long keeps its lease: a sibling that tries to
        claim it mid-cell loses, and the cell is done exactly once."""
        grid = _smoke_campaign(campaign_id="long-cell", targets="1cex(40:51)", seeds=1)
        store = RunStore(store_root)
        handle = Session(store).submit(grid)
        owner = LeaseManager(store, daemon_id="owner", ttl_seconds=0.6)
        sibling = LeaseManager(store, daemon_id="sibling", ttl_seconds=0.6)
        mid_cell = []
        original = daemon_module._cell_task

        def long_cell(payload):
            if not mid_cell:
                mid_cell.append(None)
                time.sleep(2.0)  # the cell outlives its lease TTL 3 times
                mid_cell[0] = drain_once(
                    store, workers=1, progress=QUIET, leases=sibling
                )
            return original(payload)

        monkeypatch.setattr(daemon_module, "_cell_task", long_cell)
        report = drain_once(store, workers=1, progress=QUIET, leases=owner)
        assert report.executed == 1
        assert mid_cell[0].skipped_leased == 1 and mid_cell[0].executed == 0
        assert handle.status().complete
        assert _cell_done_counts(store, grid.campaign_id) == {0: 1}
        assert not store.lease_path(grid.campaign_id, 0).exists()

    def test_a_cell_finished_since_the_scan_is_released_not_executed(
        self, store_root, monkeypatch
    ):
        """A sibling finishes a cell between this daemon's scan and its
        claim: the claim is released and the cell does not run again."""
        grid = _smoke_campaign(campaign_id="recheck")
        store = RunStore(store_root)
        Session(store).submit(grid)
        manager = LeaseManager(store, daemon_id="late", ttl_seconds=10.0)
        raced = grid.cell(1)
        claim = manager.claim

        def claim_after_sibling(run_id, index):
            if index == raced.index:
                executor_module.run_cell(store, raced)  # the sibling's run
            return claim(run_id, index)

        dispatched = []
        original = daemon_module._cell_task

        def recording(payload):
            dispatched.append(payload["cell"]["index"])
            return original(payload)

        monkeypatch.setattr(manager, "claim", claim_after_sibling)
        monkeypatch.setattr(daemon_module, "_cell_task", recording)
        report = drain_once(store, workers=1, progress=QUIET, leases=manager)
        assert raced.index not in dispatched
        assert report.executed == grid.n_trajectories - 1
        assert manager.held == []
        assert not store.lease_path(grid.campaign_id, raced.index).exists()
        assert _cell_done_counts(store, grid.campaign_id) == {
            cell.index: 1 for cell in grid.cells()
        }


class TestDeadDaemonTakeover:
    def test_stale_leases_are_usurped_and_the_campaign_finishes(
        self, store_root, tmp_path
    ):
        """A daemon dies right after claiming (no heartbeat ever again):
        its cells stall only until the TTL, then survivors take over."""
        grid = _smoke_campaign(campaign_id="deadclaim")
        store = RunStore(store_root)
        handle = Session(store).submit(grid)

        dead = LeaseManager(store, daemon_id="dead", ttl_seconds=0.4)
        for cell in grid.cells():
            assert dead.claim(grid.campaign_id, cell.index)
        # "dead" never renews nor releases: simulated SIGKILL after claim.

        survivor = LeaseManager(store, daemon_id="survivor", ttl_seconds=10.0)
        early = drain_once(store, workers=1, progress=QUIET, leases=survivor)
        assert early.executed == 0
        assert early.skipped_leased == grid.n_trajectories

        time.sleep(0.5)  # leases age past the dead daemon's TTL
        late = drain_once(store, workers=1, progress=QUIET, leases=survivor)
        assert late.executed == grid.n_trajectories
        assert handle.status().complete

        baseline = RunStore(str(tmp_path / "baseline"))
        Session(baseline).submit(grid)
        drain_once(baseline, workers=1, progress=QUIET)
        assert store.canonical_journal(grid.campaign_id) == baseline.canonical_journal(
            grid.campaign_id
        )
        assert _shard_blobs(store, grid.campaign_id, grid.n_trajectories) == (
            _shard_blobs(baseline, grid.campaign_id, grid.n_trajectories)
        )

    def test_killed_mid_cell_resumes_under_another_daemon(
        self, store_root, tmp_path
    ):
        """Kill the sampler mid-cell (past a checkpoint) under daemon A;
        daemon B redrains, resumes from the checkpoint, and the decoys
        match an uninterrupted synchronous run bit-for-bit."""
        grid = _smoke_campaign(
            campaign_id="killed", targets="1cex(40:51)", seeds=2
        )
        store = RunStore(store_root)
        handle = Session(store).submit(grid)

        original = executor_module._build_sampler

        def killing(cell_):
            sampler = original(cell_)
            inner_step = sampler.step

            def step(state, host_ledger=None):
                if state.iteration == 3:  # past the iteration-2 checkpoint
                    raise RuntimeError("daemon killed mid-cell")
                return inner_step(state, host_ledger=host_ledger)

            sampler.step = step
            return sampler

        daemon_a = LeaseManager(store, daemon_id="a", ttl_seconds=10.0)
        executor_module._build_sampler = killing
        try:
            report = drain_once(store, workers=1, progress=QUIET, leases=daemon_a)
        finally:
            executor_module._build_sampler = original
        assert report.failed == 2 and report.executed == 0
        # Failed cells release their leases: daemon B can claim at once.
        daemon_b = LeaseManager(store, daemon_id="b", ttl_seconds=10.0)
        report = drain_once(store, workers=1, progress=QUIET, leases=daemon_b)
        assert report.executed == 2 and report.failed == 0
        resumed = handle.result()
        assert all(cell.resumed_from == 2 for cell in resumed)

        clean = Session(str(tmp_path / "clean")).run(grid)
        _assert_same_decoys(resumed, clean)


class TestArchipelagoScaleOut:
    def test_leased_fleet_matches_synchronous_migration(
        self, store_root, tmp_path
    ):
        """A ring archipelago drained by two leased daemons produces the
        migration ledger and decoys of an uninterrupted sync run."""
        grid = _smoke_campaign(
            campaign_id="isles", targets="1cex(40:51)", seeds=3, migration="ring"
        )
        store = RunStore(store_root)
        handle = Session(store).submit(grid)
        _drain_fleet(store, handle, ["isle-a", "isle-b"], max_passes=80)
        assert handle.status().complete
        drained = handle.result()

        synchronous = Session(str(tmp_path / "sync")).run(grid)
        assert json.dumps(drained.migration_ledger, sort_keys=True) == json.dumps(
            synchronous.migration_ledger, sort_keys=True
        )
        _assert_same_decoys(drained, synchronous)

    def test_drain_order_keeps_island_groups_contiguous(self, store_root):
        """The migration-aware ordering: a daemon sweeps whole
        archipelagos instead of striping across them."""
        store = RunStore(store_root)
        Session(store).submit(
            _smoke_campaign(campaign_id="grouped", seeds=3, migration="ring")
        )
        pending, _skipped, _exhausted, campaigns, _statuses = _pending_cells(
            store, progress=None, max_attempts=None
        )
        assert campaigns == ["grouped"]
        groups = [cell.migration.group for cell in pending]
        seen = []
        for group in groups:
            if group not in seen:
                seen.append(group)
        # Each group appears in exactly one contiguous block.
        rebuilt = [g for g in seen for _ in range(groups.count(g))]
        assert groups == rebuilt
        assert seen == sorted(seen)


class TestCacheScaleOut:
    def test_identical_resubmission_is_pure_cache(self, store_root, tmp_path):
        """The headline cache property: resubmitting an identical campaign
        under a new id executes *zero* cells — the daemon pass fills every
        cell from the cache, with a booby-trapped sampler proving it."""
        cache = ResultCache(tmp_path / "cache")
        grid = _smoke_campaign(campaign_id="first")
        store = RunStore(store_root)
        Session(store).submit(grid)
        primed = drain_once(store, workers=1, progress=QUIET, cache=cache)
        assert primed.executed == grid.n_trajectories
        assert primed.cache_hits == 0

        again = _smoke_campaign(campaign_id="second")
        handle = Session(store).submit(again)

        original = executor_module._build_sampler
        executor_module._build_sampler = lambda cell_: (_ for _ in ()).throw(
            AssertionError("a cached cell was executed")
        )
        try:
            report = drain_once(store, workers=1, progress=QUIET, cache=cache)
        finally:
            executor_module._build_sampler = original
        assert report.cache_hits == grid.n_trajectories
        assert report.executed == 0 and report.failed == 0

        assert handle.status().complete
        assert _shard_blobs(store, "second", grid.n_trajectories) == (
            _shard_blobs(store, "first", grid.n_trajectories)
        )
        for index in range(grid.n_trajectories):
            status = store.read_shard_status("second", index)
            assert status.get("cache_hit") is True

    def test_fleet_with_shared_cache_executes_each_workload_once(
        self, store_root, tmp_path
    ):
        """Three daemons, two campaigns with overlapping workloads, one
        shared cache: every distinct workload executes exactly once."""
        cache = ResultCache(tmp_path / "cache")
        store = RunStore(store_root)
        first = _smoke_campaign(campaign_id="overlap-a", targets="1cex(40:51)")
        second = _smoke_campaign(
            campaign_id="overlap-b",
            targets=["1cex(40:51)", "1akz(181:192)"],
        )
        handle_a = Session(store).submit(first)
        drain_once(store, workers=1, progress=QUIET, cache=cache)
        handle_b = Session(store).submit(second)

        built = []
        original = executor_module._build_sampler

        def counting(cell_):
            built.append((cell_.run_id, cell_.index))
            return original(cell_)

        executor_module._build_sampler = counting
        try:
            reports = _drain_fleet(
                store, handle_b, ["f-a", "f-b", "f-c"], cache=cache
            )
        finally:
            executor_module._build_sampler = original
        assert handle_a.status().complete and handle_b.status().complete
        flat = [r for per_daemon in reports.values() for r in per_daemon]
        # overlap-b shares its 1cex cells (0, 1) with overlap-a; only the
        # 1akz cells (2, 3) ever reach a sampler, each exactly once.  The
        # per-daemon hit counters may overlap (concurrent fill passes are
        # idempotent, so two daemons can both report the same fill), which
        # is why the executed-once proof counts sampler builds instead.
        assert sorted(built) == [("overlap-b", 2), ("overlap-b", 3)]
        assert sum(r.cache_hits for r in flat) >= 2
