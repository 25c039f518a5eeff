"""Observability benchmark: what does tracing cost a drain?

Drains the same campaign with tracing off and tracing on (N back-to-back
pairs, fresh stores every time so no run resumes another's checkpoints)
and writes the median per-pair relative overhead to ``BENCH_obs.json`` at
the repo root (committed, so reviewers can diff tracing-cost claims
against the tree).  The cells are mid-scale (population 1,024, as the
repository benchmark's fleet drain runs), so a drain times the sampler's
kernels as real runs do rather than per-cell fixed costs.  The host is
a share of a larger machine whose speed drifts within seconds, so each
drain runs the repository benchmark's host-speed probe
(``perfbench/pace.py``) and its wall time is scaled to the probe's
reference speed; the median of the pairs' scaled ratios is the reading.
The acceptance gate is the
tentpole's promise: **a traced drain stays within 3% of an untraced
one** — epoch spans follow the checkpoint cadence and leaf spans are
the measurements the timing ledgers take anyway, so tracing adds
bookkeeping, not measurement.

Also measured, because they are the other always-on costs: metric
increments per second (the counters stay on unconditionally) and the
per-cell wall cost of persisting trace documents.

Run with ``pytest -m benchmarks benchmarks/test_obs_bench.py -s``.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import statistics
import time

from repro.api import Session, campaign, drain_once
from repro.config import SamplingConfig
from repro.obs.metrics import MetricsRegistry
from repro.runtime import RunStore

from conftest import bench_scale

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUTPUT = REPO_ROOT / "BENCH_obs.json"

# The host-speed probe perfbench scales its timings with (a script
# directory, not a package).
_PACE_SPEC = importlib.util.spec_from_file_location(
    "pace", REPO_ROOT / "perfbench" / "pace.py"
)
pace = importlib.util.module_from_spec(_PACE_SPEC)
_PACE_SPEC.loader.exec_module(pace)

_SCALED = {
    "smoke": SamplingConfig(population_size=1024, n_complexes=8, iterations=2),
    "default": SamplingConfig(population_size=1024, n_complexes=8, iterations=4),
    "paper": SamplingConfig(population_size=2048, n_complexes=16, iterations=6),
}
#: Cells per drain: one target, two seeds.
_CELLS = 2

#: Back-to-back drain pairs; odd, so the median is one pair's ratio.
_REPEATS = {"smoke": 11, "default": 11, "paper": 7}

#: The acceptance ceiling on traced-drain overhead.
MAX_OVERHEAD_FRACTION = 0.03

QUIET = lambda _line: None  # noqa: E731


def _grid(campaign_id: str, config: SamplingConfig):
    return campaign(
        campaign_id,
        ["1cex(40:51)"],
        {"bench": config},
        seeds=_CELLS,
        backends="gpu",
        base_seed=43,
        checkpoint_every=1,
        workers=1,
    )


def _drain_seconds(root: pathlib.Path, campaign_id: str, config, trace: bool) -> float:
    """Wall time of one full drain of a fresh store, at the reference
    host speed of the probe sampled during that drain."""
    store = RunStore(str(root))
    Session(store).submit(_grid(campaign_id, config))
    probe = pace.Pace()
    probe.start()
    try:
        start = time.perf_counter()
        report = drain_once(store, workers=1, progress=QUIET, trace=trace)
        seconds = time.perf_counter() - start
    finally:
        probe.stop()
    seconds *= pace.speed(probe.samples) or 1.0
    assert report.executed == _CELLS and report.failed == 0
    if trace:
        assert store.has_shard_trace(campaign_id, 0)
    return seconds


def test_obs_benchmarks(tmp_path, capsys):
    scale = bench_scale()
    config = _SCALED.get(scale, _SCALED["smoke"])
    repeats = _REPEATS.get(scale, 11)
    report: dict = {
        "scale": scale,
        "config": {
            "population_size": config.population_size,
            "n_complexes": config.n_complexes,
            "iterations": config.iterations,
            "n_cells": _CELLS,
            "repeats": repeats,
        },
    }

    # --- traced vs untraced drains, paired, median of N ----------------
    # The host's speed (CPU time too) shifts within seconds, so a min over
    # each arm tracks which arm caught a fast burst.  Each rep runs one
    # drain of each arm back to back, alternating which goes first, and
    # each drain is scaled by the probe sampled inside it: the pair is
    # compared at one host speed, and the median of the per-pair ratios
    # drops the few pairs the probe could not correct.
    plain_times, traced_times = [], []
    for rep in range(repeats):
        for trace in ((False, True) if rep % 2 == 0 else (True, False)):
            arm = "traced" if trace else "plain"
            (traced_times if trace else plain_times).append(
                _drain_seconds(tmp_path / f"{arm}-{rep}", f"bench-{arm}", config, trace)
            )
    plain, traced = min(plain_times), min(traced_times)
    pair_overheads = [t / p - 1.0 for p, t in zip(plain_times, traced_times)]
    overhead = statistics.median(pair_overheads)
    report["tracing"] = {
        "seconds_at": "pace.py reference host speed",
        "untraced_drain_seconds": round(plain, 4),
        "traced_drain_seconds": round(traced, 4),
        "pair_overhead_fractions": [round(x, 4) for x in pair_overheads],
        "overhead_fraction": round(overhead, 4),
        "max_overhead_fraction": MAX_OVERHEAD_FRACTION,
    }
    # The tentpole gate: tracing rides within 3% of an untraced drain.
    assert overhead <= MAX_OVERHEAD_FRACTION, (
        f"traced drains run {100 * overhead:.1f}% slower than untraced ones "
        f"(> {100 * MAX_OVERHEAD_FRACTION:.0f}%; median of {repeats} pairs, "
        f"fastest {traced:.3f}s vs {plain:.3f}s)"
    )

    # --- trace document size (what the status channel carries) ---------
    store = RunStore(str(tmp_path / "traced-0"))
    sizes = [
        store.trace_path("bench-traced", index).stat().st_size
        for index in range(_CELLS)
    ]
    report["tracing"]["trace_bytes_per_cell"] = round(sum(sizes) / len(sizes))

    # --- metric increment throughput (counters stay on) -----------------
    registry = MetricsRegistry()
    counter = registry.counter("bench_ops_total", "benchmark counter")
    rounds = 200_000
    start = time.perf_counter()
    for _ in range(rounds):
        counter.inc(outcome="executed")
    inc_seconds = time.perf_counter() - start
    report["metrics"] = {
        "counter_incs_per_s": round(rounds / inc_seconds, 1),
        "inc_cost_ns": round(1e9 * inc_seconds / rounds, 1),
    }

    OUTPUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    with capsys.disabled():
        print(f"\nwrote {OUTPUT}")
        print(json.dumps(report, indent=2, sort_keys=True))
