"""Leased daemons as real processes: ``repro-daemon`` fleets of 1, 2 and 3.

The threaded fleets of ``test_serve_scaleout.py`` share one interpreter
and its GIL; here every daemon is its own ``repro-daemon --leases
--workers 1`` process, as in production.  Six cells are drained by one,
two and three daemons, each fleet on its own store and cache:

* claim on dispatch gives every daemon of a fleet at least one cell
  (a daemon holds no more claims than it has free worker slots);
* canonical journals, decoy files and cache entries are byte-identical to
  the one-daemon drain;
* on a host with at least three cores the three-daemon fleet drains
  faster than one daemon.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

import pytest

import repro
from repro.api import Session, campaign
from repro.config import SamplingConfig
from repro.obs.fleet import heartbeat_path
from repro.runtime import RunStore
from repro.serve.cache import ResultCache, cell_cache_key

SRC = str(Path(repro.__file__).resolve().parents[1])
FLEETS = (1, 2, 3)
TIMEOUT_S = 240.0

GRID = campaign(
    "procs",
    ["1cex(40:51)", "1akz(181:192)"],
    {"proc": SamplingConfig(population_size=128, n_complexes=8, iterations=4)},
    seeds=3,
    backends="gpu",
    base_seed=17,
    checkpoint_every=2,
    workers=1,
)


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _spawn(store: Path, cache: Path, daemon_id: str, log: Path) -> subprocess.Popen:
    argv = [
        "--store", str(store), "--workers", "1", "--leases",
        "--daemon-id", daemon_id, "--cache", str(cache), "--interval", "0.1",
    ]
    code = f"from repro.cli import daemon_main; raise SystemExit(daemon_main({argv!r}))"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    with open(log, "w") as handle:
        return subprocess.Popen(
            [sys.executable, "-c", code], stdout=handle, stderr=subprocess.STDOUT, env=env
        )


def _wait(ready, procs, what: str) -> None:
    deadline = time.monotonic() + TIMEOUT_S
    while not ready():
        for proc in procs:
            assert proc.poll() is None, f"{what}: daemon {proc.pid} exited early"
        assert time.monotonic() < deadline, f"{what}: timed out"
        time.sleep(0.05)


def _drain(root: Path, n_daemons: int) -> dict:
    """Drain ``GRID`` with ``n_daemons`` daemon processes started cold."""
    root.mkdir(parents=True)
    store, cache = RunStore(str(root / "store")), ResultCache(root / "cache")
    ids = [f"proc-{slot}" for slot in range(n_daemons)]
    procs = [
        _spawn(store.root, cache.root, daemon_id, root / f"{daemon_id}.log")
        for daemon_id in ids
    ]
    entries = [cache.entry_dir(cell_cache_key(cell)) for cell in GRID.cells()]
    try:
        # Every daemon is up (first heartbeat written) before work arrives.
        _wait(
            lambda: all(heartbeat_path(store, i).is_file() for i in ids),
            procs, "daemon start-up",
        )
        started = time.perf_counter()
        handle = Session(store).submit(GRID)
        # Publishing to the cache follows the result write.
        _wait(
            lambda: handle.status().complete
            and all((entry / ResultCache.ENTRY_NAME).is_file() for entry in entries),
            procs, "drain",
        )
        seconds = time.perf_counter() - started
    finally:
        for proc in procs:
            proc.send_signal(signal.SIGINT)
        for proc in procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover - wedged daemon
                proc.kill()
                proc.wait()
    assert [proc.returncode for proc in procs] == [0] * n_daemons
    executed = {proc.pid: 0 for proc in procs}
    for cell in GRID.cells():
        pid = int(store.read_shard_status(GRID.run_id, cell.index)["pid"])
        executed[pid] += 1
    return {
        "store": store,
        "entries": entries,
        "seconds": seconds,
        "executed": sorted(executed.values()),
    }


@pytest.fixture(scope="module")
def drains(tmp_path_factory):
    """One drain per fleet size; stores go under ``REPRO_CAMPAIGN_STORE``
    when it is set (a CI artifact on failure)."""
    base = os.environ.get("REPRO_CAMPAIGN_STORE")
    if base:
        root = Path(base) / f"fleets-{uuid.uuid4().hex[:12]}"
    else:
        root = tmp_path_factory.mktemp("fleets")
    return {n: _drain(root / f"fleet-{n}", n) for n in FLEETS}


def _files(drain: dict) -> list:
    store = drain["store"]
    shards = [
        (store.shard_dir(GRID.run_id, cell.index) / "decoys.npz").read_bytes()
        for cell in GRID.cells()
    ]
    # Every file of a cache entry is content-addressed: no wall time.
    cached = [
        (entry / name).read_bytes()
        for entry in drain["entries"]
        for name in (
            ResultCache.ENTRY_NAME, ResultCache.DECOYS_NAME, ResultCache.RESULT_NAME
        )
    ]
    return [store.canonical_journal(GRID.run_id), *shards, *cached]


class TestProcessFleet:
    @pytest.mark.parametrize("n_daemons", FLEETS[1:])
    def test_every_daemon_executes_a_cell(self, drains, n_daemons):
        executed = drains[n_daemons]["executed"]
        assert sum(executed) == GRID.n_trajectories
        assert min(executed) >= 1, f"per-daemon cells: {executed}"

    @pytest.mark.parametrize("n_daemons", FLEETS[1:])
    def test_fleet_bytes_equal_one_daemon(self, drains, n_daemons):
        journal = drains[n_daemons]["store"].canonical_journal(GRID.run_id)
        done = [line for line in journal.splitlines() if b'"cell-done"' in line]
        assert len(done) == GRID.n_trajectories
        assert _files(drains[n_daemons]) == _files(drains[1])

    def test_three_daemons_drain_faster_than_one(self, drains):
        if _cores() < 3:
            pytest.skip(
                f"{_cores()} core(s): three daemon processes cannot run "
                "side by side, so their wall time says nothing about scale-out"
            )
        assert drains[3]["seconds"] < drains[1]["seconds"]
