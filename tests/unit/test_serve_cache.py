"""Unit tests of the content-addressed result cache.

The key contract: a cell's cache key is a pure function of its workload
coordinates — invariant to campaign axis ordering, config dict insertion
order, labels, checkpoint cadence and backend alias spelling — and a
cache entry either fills byte-identically or degrades to a miss (never an
error) when poisoned.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import Session, campaign
from repro.cli import sample_main
from repro.config import SamplingConfig
from repro.runtime import RunStore
from repro.runtime.spec import campaign_cell_seed
from repro.serve.cache import ResultCache, cell_cache_key, is_cacheable

TINY = SamplingConfig(population_size=16, n_complexes=4, iterations=3)
TARGETS = ["1cex(40:51)", "1akz(181:192)"]


def _keys_by_coordinates(grid):
    """Map each cell's workload coordinates to its cache key."""
    return {
        (cell.target, cell.config_name, cell.seed_index, cell.backend): (
            cell_cache_key(cell),
            cell.seed,
        )
        for cell in grid.cells()
    }


class TestKeyStability:
    def test_invariant_to_campaign_axis_order(self):
        """Permuting every campaign axis — and renaming the campaign —
        leaves each workload's key unchanged, mirroring the axis-order
        invariance of the cell-seed derivation."""
        configs = {"fast": TINY, "slow": SamplingConfig(16, 4, 5)}
        forward = campaign(
            "axes-a", TARGETS, configs, seeds=[0, 1], backends=["gpu", "cpu"],
            base_seed=7,
        )
        flipped = campaign(
            "axes-b",
            list(reversed(TARGETS)),
            {"slow": SamplingConfig(16, 4, 5), "fast": TINY},
            seeds=[1, 0],
            backends=["cpu", "gpu"],
            base_seed=7,
        )
        keys_a = _keys_by_coordinates(forward)
        keys_b = _keys_by_coordinates(flipped)
        assert set(keys_a) == set(keys_b)
        for coords, (key, seed) in keys_a.items():
            assert keys_b[coords] == (key, seed)
            # The derived seed is itself the documented invariant surface.
            target, config_name, seed_index, _backend = coords
            assert seed == campaign_cell_seed(7, target, config_name, seed_index)

    def test_invariant_to_config_field_order(self):
        one = campaign(
            "c1", TARGETS[0],
            {"x": SamplingConfig(population_size=16, n_complexes=4, iterations=3)},
        )
        other = campaign(
            "c2", TARGETS[0],
            {"x": SamplingConfig(iterations=3, n_complexes=4, population_size=16)},
        )
        assert cell_cache_key(one.cell(0)) == cell_cache_key(other.cell(0))

    def test_ignores_inert_fields(self):
        """The config's own ``seed`` and the checkpoint cadence never
        reach the trajectory, so they must not perturb the key."""
        import dataclasses

        base = campaign("inert-a", TARGETS[0], {"x": TINY}, checkpoint_every=2)
        reseeded = campaign(
            "inert-b",
            TARGETS[0],
            {"x": dataclasses.replace(TINY, seed=999)},
            checkpoint_every=50,
        )
        assert cell_cache_key(base.cell(0)) == cell_cache_key(reseeded.cell(0))

    def test_repro_sample_and_session_share_one_entry(self, monkeypatch, capsys):
        """``repro-sample`` and a ``Session`` campaign of the same
        :class:`SamplingConfig` address one cache entry, so either run
        fills the other's cache."""
        sampled = []
        run = Session.run

        def recording(self, grid, *args, **kwargs):
            sampled.extend(grid.cells())
            return run(self, grid, *args, **kwargs)

        monkeypatch.setattr(Session, "run", recording)
        argv = ["1cex(40:51)", "--population", "64", "--complexes", "4",
                "--iterations", "1"]
        assert sample_main(argv) == 0
        config = SamplingConfig(population_size=64, n_complexes=4, iterations=1)
        (cell,) = campaign("session", "1cex(40:51)", config, backends="gpu").cells()
        (sampled_cell,) = sampled
        assert cell_cache_key(sampled_cell) == cell_cache_key(cell)

    def test_backend_aliases_share_one_entry(self):
        keys = {
            cell_cache_key(
                campaign("alias", TARGETS[0], {"x": TINY}, backends=alias).cell(0)
            )
            for alias in ("gpu", "cpu-gpu", "simt")
        }
        assert len(keys) == 1

    def test_distinct_workloads_get_distinct_keys(self):
        base = campaign("w", TARGETS[0], {"x": TINY}).cell(0)
        variants = [
            campaign("w", TARGETS[1], {"x": TINY}).cell(0),
            campaign("w", TARGETS[0], {"x": SamplingConfig(16, 4, 4)}).cell(0),
            campaign("w", TARGETS[0], {"x": TINY}, seeds=[1]).cell(0),
            campaign("w", TARGETS[0], {"x": TINY}, backends="cpu").cell(0),
            campaign("w", TARGETS[0], {"x": TINY}, base_seed=1).cell(0),
        ]
        keys = {cell_cache_key(cell) for cell in variants}
        assert cell_cache_key(base) not in keys
        assert len(keys) == len(variants)

    def test_migrating_cells_are_not_cacheable(self, tmp_path):
        grid = campaign(
            "isl", TARGETS[0], {"x": TINY}, seeds=3, migration="ring"
        )
        cell = grid.cell(0)
        assert cell.migration is not None
        assert not is_cacheable(cell)
        cache = ResultCache(tmp_path / "cache")
        store = RunStore(str(tmp_path / "store"))
        assert not cache.publish(store, cell)
        assert cache.fill(store, cell) is None
        assert is_cacheable(campaign("ind", TARGETS[0], {"x": TINY}).cell(0))


class TestRoundTrip:
    @pytest.fixture()
    def cache(self, tmp_path):
        return ResultCache(tmp_path / "cache")

    def _run(self, tmp_path, cache, campaign_id, store_name):
        grid = campaign(campaign_id, TARGETS[0], {"x": TINY}, base_seed=3, workers=1)
        store = RunStore(str(tmp_path / store_name))
        session = Session(store, workers=1, cache=cache)
        result = session.run(grid)
        return grid, store, result

    def test_publish_fill_round_trip_is_byte_identical(self, tmp_path, cache):
        grid_a, store_a, result_a = self._run(tmp_path, cache, "rt-a", "store-a")
        key = cell_cache_key(grid_a.cell(0))
        assert cache.has(key)

        # An identical workload under a different campaign id, submitted
        # to a *different* store, completes from the cache alone — no
        # daemon, no execution.
        grid_b = campaign("rt-b", TARGETS[0], {"x": TINY}, base_seed=3, workers=1)
        store_b = RunStore(str(tmp_path / "store-b"))
        handle = Session(store_b, cache=cache).submit(grid_b)
        status = handle.status()
        assert status.complete

        blob_a = (store_a.shard_dir("rt-a", 0) / "decoys.npz").read_bytes()
        blob_b = (store_b.shard_dir("rt-b", 0) / "decoys.npz").read_bytes()
        assert blob_a == blob_b

        # The summary is re-identified as the destination cell's own.
        summary = store_b.load_shard_summary("rt-b", 0)
        assert summary["run_id"] == "rt-b"
        assert summary["shard"] == 0
        assert summary["config_name"] == "x"
        assert summary["n_decoys"] == result_a.trajectories[0].n_decoys

        # Status marks the provenance; the journal carries the standard
        # completion record (byte-compatible with an executed drain).
        assert store_b.read_shard_status("rt-b", 0).get("cache_hit") is True
        records, _offset = store_b.read_journal("rt-b", 0)
        assert {
            "type": "cell-done",
            "shard": 0,
            "target": TARGETS[0],
            "n_decoys": summary["n_decoys"],
        } in records

        # The typed result round-trips through the filled store.
        result_b = handle.result()
        decoys_a = result_a.merged_decoys(TARGETS[0])
        decoys_b = result_b.merged_decoys(TARGETS[0])
        assert len(decoys_a) == len(decoys_b)
        for da, db in zip(decoys_a, decoys_b):
            assert np.array_equal(da.torsions, db.torsions)
            assert da.rmsd == db.rmsd

    def test_poisoned_payload_degrades_to_a_miss(self, tmp_path, cache):
        grid, _store, _result = self._run(tmp_path, cache, "poison", "store-p")
        cell = grid.cell(0)
        key = cell_cache_key(cell)
        (cache.entry_dir(key) / "decoys.npz").write_bytes(b"not an npz at all")

        fresh = RunStore(str(tmp_path / "store-q"))
        fresh.create_run(
            campaign("poison2", TARGETS[0], {"x": TINY}, base_seed=3), exist_ok=True
        )
        target_cell = campaign(
            "poison2", TARGETS[0], {"x": TINY}, base_seed=3
        ).cell(0)
        assert cache.fill(fresh, target_cell) is None
        assert not cache.has(key)  # the poisoned entry was evicted
        assert not fresh.has_shard_result("poison2", 0)

    def test_truncated_marker_is_a_miss(self, tmp_path, cache):
        grid, _store, _result = self._run(tmp_path, cache, "trunc", "store-t")
        key = cell_cache_key(grid.cell(0))
        (cache.entry_dir(key) / "entry.json").write_text('{"npz_sha256": "')

        fresh = RunStore(str(tmp_path / "store-u"))
        other = campaign("trunc2", TARGETS[0], {"x": TINY}, base_seed=3)
        fresh.create_run(other, exist_ok=True)
        assert cache.fill(fresh, other.cell(0)) is None

    def test_entry_bytes_do_not_depend_on_timings(self, tmp_path, cache):
        """Two executions of one cell publish the same entry bytes; a fill
        keeps the ``wall_seconds`` key, at 0.0, and has empty ledgers."""
        grid, store, _result = self._run(tmp_path, cache, "wall", "store-w")
        cell = grid.cell(0)
        entry = cache.entry_dir(cell_cache_key(cell))
        first = {p.name: p.read_bytes() for p in sorted(entry.iterdir())}
        cached = json.loads(first["result.json"])
        for field in ("wall_seconds", "host_ledger", "kernel_ledger"):
            assert field not in cached

        # A slower second execution of the same cell.
        result_path = store.shard_dir("wall", 0) / "result.json"
        summary = json.loads(result_path.read_text())
        summary["wall_seconds"] += 12.5
        for ledger in ("host_ledger", "kernel_ledger"):
            for record in summary[ledger].values():
                record["total_seconds"] += 1.5
        result_path.write_text(json.dumps(summary))
        for path in sorted(entry.iterdir()):
            path.unlink()
        assert cache.publish(store, cell)
        assert {p.name: p.read_bytes() for p in sorted(entry.iterdir())} == first

        fresh = RunStore(str(tmp_path / "store-x"))
        other = campaign("wall2", TARGETS[0], {"x": TINY}, base_seed=3)
        fresh.create_run(other, exist_ok=True)
        assert cache.fill(fresh, other.cell(0))["wall_seconds"] == 0.0
        assert fresh.load_shard_summary("wall2", 0)["wall_seconds"] == 0.0
        ledgers = fresh.load_shard_ledgers("wall2", 0)
        assert not ledgers["host"].records and not ledgers["kernel"].records

    def test_publish_is_first_writer_wins(self, tmp_path, cache):
        grid, store, _result = self._run(tmp_path, cache, "dup", "store-d")
        cell = grid.cell(0)
        key = cell_cache_key(cell)
        marker = (cache.entry_dir(key) / "entry.json").read_bytes()
        # Re-publishing the same (or an identical) result is a no-op.
        assert not cache.publish(store, cell)
        assert (cache.entry_dir(key) / "entry.json").read_bytes() == marker
        assert json.loads(marker)["key"] == key


class TestPrune:
    """LRU-by-mtime eviction: the marker's mtime is the recency signal."""

    NOW = 1_000_000.0

    @pytest.fixture()
    def cache(self, tmp_path):
        return ResultCache(tmp_path / "cache")

    def _make_entry(self, cache, key, age_seconds, complete=True):
        """Synthesise one entry whose files are ``age_seconds`` old."""
        import os

        entry = cache.entry_dir(key)
        entry.mkdir(parents=True, exist_ok=True)
        mtime = self.NOW - age_seconds
        (entry / ResultCache.DECOYS_NAME).write_bytes(b"blob")
        (entry / ResultCache.RESULT_NAME).write_text("{}")
        os.utime(entry / ResultCache.DECOYS_NAME, (mtime, mtime))
        os.utime(entry / ResultCache.RESULT_NAME, (mtime, mtime))
        if complete:
            (entry / ResultCache.ENTRY_NAME).write_text('{"key": "x"}')
            os.utime(entry / ResultCache.ENTRY_NAME, (mtime, mtime))
        return key

    def test_no_limits_is_a_no_op(self, cache):
        self._make_entry(cache, "aa11", age_seconds=0.0)
        assert cache.prune(now=self.NOW) == 0
        assert cache.has("aa11")

    def test_missing_root_is_a_no_op(self, cache):
        assert cache.prune(max_entries=1, max_age_days=1.0, now=self.NOW) == 0

    def test_max_entries_keeps_the_newest(self, cache):
        for index, key in enumerate(["aa01", "bb02", "cc03", "dd04"]):
            self._make_entry(cache, key, age_seconds=index * 100.0)
        assert cache.prune(max_entries=2, now=self.NOW) == 2
        assert cache.has("aa01") and cache.has("bb02")
        assert not cache.has("cc03") and not cache.has("dd04")
        # The evicted entries' directories (and their emptied fan-out
        # shards) are gone entirely, not just their marker files.
        assert not cache.entry_dir("cc03").exists()
        assert not cache.entry_dir("cc03").parent.exists()

    def test_max_age_evicts_stale_entries(self, cache):
        self._make_entry(cache, "aa01", age_seconds=0.5 * 86400.0)
        self._make_entry(cache, "bb02", age_seconds=3.0 * 86400.0)
        assert cache.prune(max_age_days=1.0, now=self.NOW) == 1
        assert cache.has("aa01")
        assert not cache.has("bb02")

    def test_limits_compose(self, cache):
        self._make_entry(cache, "aa01", age_seconds=0.0)
        self._make_entry(cache, "bb02", age_seconds=10.0)
        self._make_entry(cache, "cc03", age_seconds=5.0 * 86400.0)
        assert cache.prune(max_age_days=1.0, max_entries=1, now=self.NOW) == 2
        assert cache.has("aa01")

    def test_markerless_entry_never_counted_against_max_entries(self, cache):
        """A half-written entry (publisher mid-write or crashed) must not
        displace a complete one from the survivor count, nor be swept by
        the count criterion itself."""
        self._make_entry(cache, "aa01", age_seconds=50.0)
        self._make_entry(cache, "bb02", age_seconds=0.0, complete=False)
        assert cache.prune(max_entries=1, now=self.NOW) == 0
        assert cache.has("aa01")
        assert cache.entry_dir("bb02").is_dir()

    def test_markerless_entry_is_age_pruned_by_its_newest_file(self, cache):
        self._make_entry(cache, "aa01", age_seconds=3.0 * 86400.0, complete=False)
        self._make_entry(cache, "bb02", age_seconds=0.0, complete=False)
        assert cache.prune(max_age_days=1.0, now=self.NOW) == 1
        assert not cache.entry_dir("aa01").exists()
        assert cache.entry_dir("bb02").is_dir()

    def test_lru_ties_break_deterministically(self, cache):
        for key in ["dd04", "aa01", "cc03", "bb02"]:
            self._make_entry(cache, key, age_seconds=7.0)
        assert cache.prune(max_entries=2, now=self.NOW) == 2
        # Equal mtimes: survivors are the lexicographically smallest keys.
        assert cache.has("aa01") and cache.has("bb02")
        assert not cache.has("cc03") and not cache.has("dd04")

    def test_pruned_entry_is_a_clean_miss(self, tmp_path, cache):
        """After pruning, a formerly cached workload falls back to
        execution exactly like a cold miss."""
        grid = campaign("pr", TARGETS[0], {"x": TINY}, base_seed=3, workers=1)
        store = RunStore(str(tmp_path / "store-pr"))
        Session(store, workers=1, cache=cache).run(grid)
        key = cell_cache_key(grid.cell(0))
        assert cache.has(key)
        assert cache.prune(max_entries=0) == 1
        assert not cache.has(key)
        fresh = RunStore(str(tmp_path / "store-pr2"))
        other = campaign("pr2", TARGETS[0], {"x": TINY}, base_seed=3)
        fresh.create_run(other, exist_ok=True)
        assert cache.fill(fresh, other.cell(0)) is None
