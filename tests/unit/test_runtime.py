"""Unit tests of the sharded runtime: store, checkpoints, fan-out."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.config import RuntimeConfig, SamplingConfig
from repro.moscem.decoys import Decoy, DecoySet
from repro.moscem.sampler import MOSCEMSampler
from repro.runtime import (
    Campaign,
    CheckpointError,
    RunStore,
    RunStoreError,
    has_checkpoint,
    load_checkpoint,
    parallel_map,
    save_checkpoint,
)
from repro.runtime.checkpoint import CHECKPOINT_FORMAT_VERSION, checkpoint_paths
from repro.utils.timing import TimingLedger


def _spec(**overrides) -> Campaign:
    defaults = dict(
        campaign_id="testrun",
        targets=("1cex(40:51)",),
        configs=(
            ("config", SamplingConfig(population_size=16, n_complexes=4, iterations=3)),
        ),
        seeds=(0, 1),
        backends=("gpu", "xp"),
        base_seed=11,
        checkpoint_every=2,
        workers=2,
    )
    defaults.update(overrides)
    return Campaign(**defaults)


class TestRuntimeConfig:
    def test_defaults_valid(self):
        config = RuntimeConfig()
        assert config.workers >= 1
        assert config.backends

    def test_validation(self):
        with pytest.raises(ValueError):
            RuntimeConfig(workers=0)
        with pytest.raises(ValueError):
            RuntimeConfig(checkpoint_every=-1)
        with pytest.raises(ValueError):
            RuntimeConfig(backends=())


# ---------------------------------------------------------------------------
# RunStore
# ---------------------------------------------------------------------------


class TestRunStore:
    def test_create_and_reload(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _spec()
        store.create_run(spec)
        assert store.list_runs() == ["testrun"]
        assert store.load_manifest("testrun").spec == spec

    def test_create_conflicts(self, tmp_path):
        store = RunStore(tmp_path)
        store.create_run(_spec())
        with pytest.raises(RunStoreError, match="already exists"):
            store.create_run(_spec())
        # Same spec with exist_ok is fine; a different spec is not.
        store.create_run(_spec(), exist_ok=True)
        with pytest.raises(RunStoreError, match="different spec"):
            store.create_run(_spec(base_seed=99), exist_ok=True)

    def test_unknown_run(self, tmp_path):
        with pytest.raises(RunStoreError, match="unknown run"):
            RunStore(tmp_path).load_manifest("nope")

    def test_shard_status_default_and_round_trip(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.read_shard_status("r", 0) == {"state": "pending"}
        store.write_shard_status("r", 0, state="running", iteration=7)
        assert store.read_shard_status("r", 0)["iteration"] == 7

    def test_decoys_round_trip(self, tmp_path, rng):
        store = RunStore(tmp_path)
        decoys = DecoySet(distinctness_threshold=0.25)
        for i in range(5):
            decoys.absorb(
                Decoy(
                    torsions=rng.uniform(-3, 3, size=12),
                    coords=rng.normal(size=(6, 4, 3)),
                    scores=rng.normal(size=3),
                    rmsd=float(i),
                    trajectory=i % 2,
                )
            )
        ledger = TimingLedger()
        ledger.add("CCD", 1.5, calls=3)
        store.save_shard_result(
            "r", 1, decoys, {"shard": 1}, kernel_ledger=ledger
        )
        loaded = store.load_shard_decoys("r", 1)
        assert len(loaded) == 5
        assert loaded.distinctness_threshold == 0.25
        for a, b in zip(decoys, loaded):
            assert np.array_equal(a.torsions, b.torsions)
            assert np.array_equal(a.coords, b.coords)
            assert np.array_equal(a.scores, b.scores)
            assert a.rmsd == b.rmsd and a.trajectory == b.trajectory
        ledgers = store.load_shard_ledgers("r", 1)
        assert ledgers["kernel"].records["CCD"].calls == 3
        assert ledgers["kernel"].records["CCD"].total_seconds == 1.5

    def test_empty_decoy_round_trip(self, tmp_path):
        store = RunStore(tmp_path)
        store.save_shard_result("r", 0, DecoySet(), {"shard": 0})
        assert len(store.load_shard_decoys("r", 0)) == 0

    def test_many_decoys_round_trip_field_by_field(self, tmp_path, rng):
        """Each array is read once; every decoy still gets its own rows,
        equal to the saved ones and not views of one another."""
        store = RunStore(tmp_path)
        decoys = DecoySet(distinctness_threshold=0.5)
        for i in range(300):
            decoys.absorb(
                Decoy(
                    torsions=rng.uniform(-3, 3, size=20),
                    coords=rng.normal(size=(10, 4, 3)),
                    scores=rng.normal(size=3),
                    rmsd=float(rng.uniform(0, 9)),
                    trajectory=i % 7,
                )
            )
        store.save_shard_result("r", 0, decoys, {"shard": 0})
        loaded = list(store.load_shard_decoys("r", 0))
        assert len(loaded) == 300
        for a, b in zip(decoys, loaded):
            for field in ("torsions", "coords", "scores"):
                got = getattr(b, field)
                assert got.dtype == np.float64 and got.flags.owndata
                assert got.tobytes() == getattr(a, field).tobytes()
            assert b.rmsd == a.rmsd and b.trajectory == a.trajectory
            assert type(b.rmsd) is float and type(b.trajectory) is int

    def test_damaged_decoy_file_raises_run_store_error(self, tmp_path, rng):
        store = RunStore(tmp_path)
        decoys = DecoySet()
        decoys.absorb(
            Decoy(torsions=rng.uniform(-3, 3, size=4), coords=rng.normal(size=(2, 4, 3)),
                  scores=rng.normal(size=3), rmsd=1.0)
        )
        store.save_shard_result("r", 0, decoys, {"shard": 0})
        path = store.shard_dir("r", 0) / "decoys.npz"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(RunStoreError, match="decoys.npz"):
            store.load_shard_decoys("r", 0)

    def test_damaged_status_reads_as_pending(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_shard_status("r", 0, state="done", attempts=2)
        path = store.shard_dir("r", 0) / "status.json"
        path.write_bytes(path.read_bytes()[:5])
        assert store.read_shard_status("r", 0) == {"state": "pending"}


# ---------------------------------------------------------------------------
# Checkpoint serialisation
# ---------------------------------------------------------------------------


@pytest.fixture()
def small_sampler(small_target, small_multi_score):
    config = SamplingConfig(population_size=8, n_complexes=2, iterations=4, seed=2)
    return MOSCEMSampler(
        small_target, config=config, multi_score=small_multi_score,
        backend_kind="gpu",
    )


#: The on-disk checkpoint schema.  Resumed runs read exactly these keys, so
#: changing a set is a format change: bump CHECKPOINT_FORMAT_VERSION (old
#: checkpoints then fail loudly instead of resuming with missing state)
#: and update this pin in the same change.
CHECKPOINT_NPZ_KEYS = {
    "acceptance_history",
    "closure",
    "coords",
    "scores",
    "temperature_history",
    "torsions",
}
CHECKPOINT_JSON_KEYS = {
    "extra",
    "format_version",
    "iteration",
    "npz_sha256",
    "rng",
    "seed",
    "temperature",
}


def _written_checkpoint_keys(directory):
    paths = checkpoint_paths(directory)
    with np.load(paths["npz"]) as arrays:
        npz_keys = set(arrays.files)
    payload = json.loads(paths["json"].read_text())
    return npz_keys, set(payload), payload["format_version"]


class TestCheckpoint:
    def test_round_trip(self, tmp_path, small_sampler):
        state = small_sampler.initial_state(seed=13)
        small_sampler.step(state)
        save_checkpoint(tmp_path, state, extra={"shard": 0})
        assert has_checkpoint(tmp_path)

        # The written schema is the pinned one, with and without fitness.
        assert CHECKPOINT_FORMAT_VERSION == 1
        assert _written_checkpoint_keys(tmp_path) == (
            CHECKPOINT_NPZ_KEYS | {"fitness"},
            CHECKPOINT_JSON_KEYS,
            1,
        )
        unscored = small_sampler.initial_state(seed=13)
        unscored.population.fitness = None
        save_checkpoint(tmp_path / "unscored", unscored)
        assert _written_checkpoint_keys(tmp_path / "unscored") == (
            CHECKPOINT_NPZ_KEYS,
            CHECKPOINT_JSON_KEYS,
            1,
        )

        restored = load_checkpoint(tmp_path, small_sampler)
        assert restored.iteration == state.iteration
        assert restored.seed == 13
        assert np.array_equal(restored.population.torsions, state.population.torsions)
        assert np.array_equal(restored.population.coords, state.population.coords)
        assert np.array_equal(restored.population.scores, state.population.scores)
        assert np.array_equal(restored.population.fitness, state.population.fitness)
        assert restored.schedule.temperature == state.schedule.temperature
        assert restored.acceptance_history == state.acceptance_history
        assert restored.rng_states() == state.rng_states()
        # The restored streams continue with the exact same draws.
        assert restored.mutation_rng.random() == state.mutation_rng.random()
        assert restored.metropolis_rng.random() == state.metropolis_rng.random()

    def test_missing_checkpoint(self, tmp_path, small_sampler):
        assert not has_checkpoint(tmp_path)
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path, small_sampler)

    def test_corrupted_arrays_rejected(self, tmp_path, small_sampler):
        state = small_sampler.initial_state(seed=1)
        save_checkpoint(tmp_path, state)
        npz = checkpoint_paths(tmp_path)["npz"]
        data = bytearray(npz.read_bytes())
        data[len(data) // 2] ^= 0xFF
        npz.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="hash"):
            load_checkpoint(tmp_path, small_sampler)

    def test_partial_write_rejected(self, tmp_path, small_sampler):
        state = small_sampler.initial_state(seed=1)
        save_checkpoint(tmp_path, state)
        npz = checkpoint_paths(tmp_path)["npz"]
        npz.write_bytes(npz.read_bytes()[:100])  # truncated mid-write
        with pytest.raises(CheckpointError, match="hash"):
            load_checkpoint(tmp_path, small_sampler)

    def test_unreadable_manifest_rejected(self, tmp_path, small_sampler):
        state = small_sampler.initial_state(seed=1)
        save_checkpoint(tmp_path, state)
        checkpoint_paths(tmp_path)["json"].write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(tmp_path, small_sampler)

    def test_population_mismatch_rejected(self, tmp_path, small_sampler, small_target, small_multi_score):
        state = small_sampler.initial_state(seed=1)
        save_checkpoint(tmp_path, state)
        other = MOSCEMSampler(
            small_target,
            config=SamplingConfig(population_size=12, n_complexes=2, iterations=4),
            multi_score=small_multi_score,
            backend_kind="gpu",
        )
        with pytest.raises(CheckpointError, match="members"):
            load_checkpoint(tmp_path, other)

    def test_iteration_out_of_range_rejected(self, tmp_path, small_sampler, small_target, small_multi_score):
        state = small_sampler.initial_state(seed=1)
        for _ in range(4):
            small_sampler.step(state)
        save_checkpoint(tmp_path, state)
        shorter = MOSCEMSampler(
            small_target,
            config=SamplingConfig(population_size=8, n_complexes=2, iterations=2),
            multi_score=small_multi_score,
            backend_kind="gpu",
        )
        with pytest.raises(CheckpointError, match="iteration"):
            load_checkpoint(tmp_path, shorter)


# ---------------------------------------------------------------------------
# parallel_map
# ---------------------------------------------------------------------------


def _square(x):
    return x * x


def _slow_square(x):
    time.sleep(0.05)
    return x * x


class TestParallelMap:
    def test_inline_preserves_order(self):
        events = []
        out = parallel_map(
            _square, [3, 1, 2], workers=1,
            on_result=lambda i, r: events.append((i, r)),
        )
        assert out == [9, 1, 4]
        assert events == [(0, 9), (1, 1), (2, 4)]

    def test_pool_preserves_order(self):
        assert parallel_map(_square, list(range(10)), workers=2) == [
            x * x for x in range(10)
        ]

    def test_empty(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_inline_admits_each_item_right_before_it_runs(self):
        events = []

        def admit(index):
            events.append(("admit", index))
            return index != 1

        out = parallel_map(
            _square, [3, 1, 2], workers=1, admit=admit,
            on_result=lambda i, r: events.append(("result", i)),
        )
        # A refused item is skipped: no result, no on_result call.
        assert out == [9, None, 4]
        assert events == [
            ("admit", 0), ("result", 0),
            ("admit", 1),
            ("admit", 2), ("result", 2),
        ]

    def test_pool_keeps_at_most_workers_in_flight(self):
        counts = {"admitted": 0, "finished": 0}
        in_flight_at_admit = []

        def admit(index):
            in_flight_at_admit.append(counts["admitted"] - counts["finished"])
            if index == 4:
                return False
            counts["admitted"] += 1
            return True

        def on_result(_index, _result):
            counts["finished"] += 1

        out = parallel_map(
            _slow_square, list(range(7)), workers=2, admit=admit,
            on_result=on_result,
        )
        assert out == [0, 1, 4, 9, None, 25, 36]
        # Admission asks only when a slot is free, once per item, in order.
        assert len(in_flight_at_admit) == 7
        assert max(in_flight_at_admit) < 2

    def test_inline_ticks_during_a_long_item(self):
        ticks = []
        parallel_map(
            time.sleep, [0.3], workers=1,
            on_tick=lambda: ticks.append(1), tick_seconds=0.05,
        )
        # The tick fires while the item runs, not only between items.
        assert len(ticks) >= 3
