"""Serving-layer benchmark: cache hit latency, fleet drain, lease cost.

Measures the three numbers the serving layer is sold on and writes them
to ``BENCH_serve.json`` at the repo root (committed, so reviewers can
diff serving-regression claims against the tree):

* **cache hit latency** — wall time for a daemon pass to fill an entire
  identical campaign from the content-addressed cache, per cell, versus
  the execution time it displaced;
* **drain throughput** — cells/second for one ``repro-daemon --leases
  --workers 1`` process versus a fleet of three such processes leasing
  cells out of one store (each started before the campaign is submitted,
  timed from submit to the last cell), plus the cells each daemon ran;
* **lease overhead** — raw claim/release round trips per second, plus
  the relative wall-time cost of running a drain with leasing enabled.

Run with ``pytest -m benchmarks benchmarks/test_serve_bench.py -s``.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import repro
from repro.api import Session, campaign, drain_once
from repro.config import SamplingConfig
from repro.obs.fleet import heartbeat_path
from repro.runtime import RunStore
from repro.serve.cache import ResultCache
from repro.serve.leases import LeaseManager

from conftest import bench_scale

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUTPUT = REPO_ROOT / "BENCH_serve.json"

_SCALED = {
    "smoke": SamplingConfig(population_size=16, n_complexes=4, iterations=4),
    "default": SamplingConfig(population_size=32, n_complexes=8, iterations=10),
    "paper": SamplingConfig(population_size=64, n_complexes=16, iterations=30),
}

QUIET = lambda _line: None  # noqa: E731


def _grid(campaign_id: str, config: SamplingConfig):
    return campaign(
        campaign_id,
        ["1cex(40:51)", "1akz(181:192)"],
        {"bench": config},
        seeds=2,
        backends="gpu",
        base_seed=29,
        checkpoint_every=4,
        workers=1,
    )


def _drain_fleet(root: pathlib.Path, grid, n_daemons: int):
    """Seconds for ``n_daemons`` daemon processes to drain ``grid`` from
    submit to completion, and the cells each of them executed."""
    store = RunStore(str(root))
    ids = [f"bench-{slot}" for slot in range(n_daemons)]
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    procs = []
    for daemon_id in ids:
        argv = ["--store", str(root), "--workers", "1", "--leases",
                "--daemon-id", daemon_id, "--interval", "0.1"]
        code = f"from repro.cli import daemon_main; raise SystemExit(daemon_main({argv!r}))"
        procs.append(subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        ))
    try:
        deadline = time.monotonic() + 600
        while not all(heartbeat_path(store, i).is_file() for i in ids):
            assert time.monotonic() < deadline, "daemon start-up timed out"
            time.sleep(0.05)
        start = time.perf_counter()
        handle = Session(store).submit(grid)
        while not handle.status().complete:
            assert time.monotonic() < deadline, "fleet drain timed out"
            time.sleep(0.05)
        seconds = time.perf_counter() - start
    finally:
        for proc in procs:
            proc.send_signal(signal.SIGINT)
        for proc in procs:
            proc.wait(timeout=60)
    executed = {proc.pid: 0 for proc in procs}
    for cell in grid.cells():
        executed[int(store.read_shard_status(grid.run_id, cell.index)["pid"])] += 1
    return seconds, sorted(executed.values())


def test_serve_benchmarks(tmp_path, capsys):
    scale = bench_scale()
    config = _SCALED.get(scale, _SCALED["smoke"])
    cache = ResultCache(tmp_path / "cache")
    report: dict = {"scale": scale, "config": {
        "population_size": config.population_size,
        "n_complexes": config.n_complexes,
        "iterations": config.iterations,
        "n_cells": 4,
    }}

    # --- in-process execution (primes the cache) -----------------------
    store_one = RunStore(str(tmp_path / "one"))
    handle = Session(store_one).submit(_grid("bench-exec", config))
    start = time.perf_counter()
    primed = drain_once(store_one, workers=1, progress=QUIET, cache=cache)
    exec_seconds = time.perf_counter() - start
    assert primed.executed == 4 and primed.failed == 0
    n_cells = primed.executed
    report["drain"] = {
        "n_cells": n_cells,
        "in_process_seconds": round(exec_seconds, 4),
        "in_process_cells_per_s": round(n_cells / exec_seconds, 3),
    }

    # --- cache hit latency: an identical campaign fills in O(ms) -------
    store_hit = RunStore(str(tmp_path / "hit"))
    hit_handle = Session(store_hit).submit(_grid("bench-hit", config))
    start = time.perf_counter()
    hits = drain_once(store_hit, workers=1, progress=QUIET, cache=cache)
    hit_seconds = time.perf_counter() - start
    assert hits.cache_hits == n_cells and hits.executed == 0
    assert hit_handle.status().complete
    per_cell_ms = 1000.0 * hit_seconds / n_cells
    report["cache"] = {
        "fill_pass_seconds": round(hit_seconds, 4),
        "hit_latency_ms_per_cell": round(per_cell_ms, 3),
        "speedup_vs_execution": round(exec_seconds / hit_seconds, 1),
    }
    # The headline property: a hit costs milliseconds, not sampler time.
    assert hit_seconds < exec_seconds / 5.0

    # --- daemon processes: one versus a three-daemon fleet ------------
    for label, n_daemons in (("one_daemon", 1), ("three_daemon", 3)):
        seconds, executed = _drain_fleet(
            tmp_path / label, _grid(f"bench-{label}", config), n_daemons
        )
        report["drain"][f"{label}_seconds"] = round(seconds, 4)
        report["drain"][f"{label}_cells_per_s"] = round(n_cells / seconds, 3)
        report["drain"][f"{label}_cells_per_daemon"] = executed
    report["drain"]["cores"] = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )

    # --- lease protocol overhead ---------------------------------------
    store_lease = RunStore(str(tmp_path / "leases"))
    manager = LeaseManager(store_lease, daemon_id="bench", ttl_seconds=30.0)
    store_lease.create_run(_grid("bench-lease", config), exist_ok=True)
    rounds = 200
    start = time.perf_counter()
    for i in range(rounds):
        index = i % n_cells
        assert manager.claim("bench-lease", index)
        manager.renew("bench-lease", index)
        manager.release("bench-lease", index)
    lease_seconds = time.perf_counter() - start
    ops_per_s = 3 * rounds / lease_seconds
    report["leases"] = {
        "claim_renew_release_ops_per_s": round(ops_per_s, 1),
        "round_trip_ms": round(1000.0 * lease_seconds / rounds, 4),
    }

    # A leased single-daemon drain of the same workload: relative cost.
    store_rel = RunStore(str(tmp_path / "rel"))
    rel_handle = Session(store_rel).submit(_grid("bench-rel", config))
    rel_manager = LeaseManager(store_rel, daemon_id="rel", ttl_seconds=30.0)
    start = time.perf_counter()
    rel = drain_once(store_rel, workers=1, progress=QUIET, leases=rel_manager)
    leased_seconds = time.perf_counter() - start
    assert rel.executed == n_cells and rel_handle.status().complete
    report["leases"]["drain_overhead_fraction"] = round(
        max(0.0, leased_seconds / exec_seconds - 1.0), 4
    )

    OUTPUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    with capsys.disabled():
        print(f"\nwrote {OUTPUT}")
        print(json.dumps(report, indent=2, sort_keys=True))
