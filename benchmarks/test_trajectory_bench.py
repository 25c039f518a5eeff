"""Trajectory benchmark: where the time of a paper-scale step goes.

Runs one ``1cex(40:51)`` cell at the paper's population (15,360 members
in 120 complexes) through :class:`~repro.api.Session`, inline, on the
member threads the runtime gives a one-cell drain, with tracing on, and
splits the cell's trace by its ledger leaves:

* ``init_s`` -- the cold start, from the ``Initialization`` section to
  the first step (basin draws, the first CCD, scoring and fitness);
* ``step_s`` -- the median step, from its population ``[FitAssg]`` to its
  ``Assemble`` section;
* the median step's split: ``[CCD]``, ``[Reproduction]``,
  ``[EvalVDW/DIST/TRIP]``, both ``[FitAssg]`` passes, and the host rest
  (every other section and the time between sections).

The host is a share of a larger machine whose speed drifts, so the cell
runs the repository benchmark's host-speed probe (``perfbench/pace.py``)
and every time is also reported scaled to the probe's reference speed
(``*_scaled`` rows).  Writes ``BENCH_trajectory.json`` at the repo root.
One bound is asserted, a loose regression tripwire: the median step,
scaled, stays within :data:`STEP_S_SCALED_BOUND`; the other rows are
informational.

Run with ``pytest -m benchmarks benchmarks/test_trajectory_bench.py -s``;
``REPRO_BENCH_SCALE=paper`` runs the paper's 100 iterations.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import statistics

from repro.api import Session, campaign
from repro.config import SamplingConfig
from repro.runtime import RunStore
from repro.scoring.pairwise import member_thread_count

from conftest import bench_scale

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUTPUT = REPO_ROOT / "BENCH_trajectory.json"

_PACE_SPEC = importlib.util.spec_from_file_location(
    "pace", REPO_ROOT / "perfbench" / "pace.py"
)
pace = importlib.util.module_from_spec(_PACE_SPEC)
_PACE_SPEC.loader.exec_module(pace)

TARGET = "1cex(40:51)"
ITERATIONS = {"smoke": 3, "default": 5, "paper": 100}
#: Twice the scaled median step recorded once the CCD passes ran on SIMD
#: lanes (0.4724 s at pop 15,360 / 120 on 2 member threads; the rows were
#: recorded by two changes before a bound was set).
STEP_S_SCALED_BOUND = 0.945

#: Per-step rows and the ledger sections each one sums.
SPLIT = {
    "ccd_s": ("CCD",),
    "reproduction_s": ("Reproduction",),
    "eval_s": ("EvalVDW", "EvalDIST", "EvalTRIP"),
    "fitassg_s": ("FitAssg within Population", "FitAssg within Complex"),
}


def _leaves(trace: dict) -> list:
    """The ledger leaves of a cell trace (every epoch's), in time order."""
    leaves = []

    def walk(span: dict) -> None:
        if span["category"] in ("host", "kernel"):
            leaves.append(span)
        for child in span.get("children", ()):
            walk(child)

    for root in trace["spans"]:
        walk(root)
    return sorted(leaves, key=lambda span: span["start"])


def _split(leaves: list, iterations: int) -> dict:
    """``init_s`` and each step's total and per-section seconds."""
    names = [leaf["name"] for leaf in leaves]
    # A step opens with the population [FitAssg] just before its FitSort
    # and closes with its Assemble section.
    firsts = [i - 1 for i, name in enumerate(names) if name == "FitSort"]
    lasts = [i for i, name in enumerate(names) if name == "Assemble"]
    assert len(firsts) == len(lasts) == iterations, names
    init_start = leaves[names.index("Initialization")]["start"]
    steps = []
    for first, last in zip(firsts, lasts):
        window = leaves[first:last + 1]
        total = window[-1]["start"] + window[-1]["duration"] - window[0]["start"]
        step = {"step_s": total}
        for row, sections in SPLIT.items():
            step[row] = sum(leaf["duration"] for leaf in window if leaf["name"] in sections)
        step["host_rest_s"] = total - sum(step[row] for row in SPLIT)
        steps.append(step)
    return {"init_s": leaves[firsts[0]]["start"] - init_start, "steps": steps}


def test_trajectory_benchmark(tmp_path, capsys):
    scale = bench_scale()
    iterations = ITERATIONS.get(scale, ITERATIONS["smoke"])
    config = SamplingConfig(population_size=15360, n_complexes=120, iterations=iterations)
    store = RunStore(str(tmp_path / "store"))
    grid = campaign(
        "trajectory", [TARGET], {"paper": config}, seeds=1, backends="gpu",
        base_seed=2010, checkpoint_every=0, workers=1,
    )
    probe = pace.Pace()
    probe.start()
    try:
        Session(store, workers=1, progress=lambda _line: None, trace=True).run(grid)
    finally:
        probe.stop()
    speed = pace.speed(probe.samples) or 1.0

    split = _split(_leaves(store.load_shard_trace("trajectory", 0)), iterations)
    median_step = statistics.median(step["step_s"] for step in split["steps"])
    rows = {"init_s": split["init_s"], "step_s": median_step}
    for row in (*SPLIT, "host_rest_s"):
        rows[row] = statistics.median(step[row] for step in split["steps"])
    report = {
        "scale": scale,
        "config": {
            "target": TARGET,
            "population_size": config.population_size,
            "n_complexes": config.n_complexes,
            "iterations": iterations,
            "member_threads": member_thread_count(1),
        },
        "seconds_scaled_at": "pace.py reference host speed",
        "host_speed": round(speed, 4),
        "rows": {
            **{row: round(value, 4) for row, value in rows.items()},
            **{f"{row}_scaled": round(value * speed, 4) for row, value in rows.items()},
        },
        "steps_s": [round(step["step_s"], 4) for step in split["steps"]],
    }
    for step in split["steps"]:
        assert step["host_rest_s"] >= 0.0 and step["ccd_s"] > 0.0
    assert rows["init_s"] > 0.0

    OUTPUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    with capsys.disabled():
        print(f"\nwrote {OUTPUT}")
        print(json.dumps(report, indent=2, sort_keys=True))
    assert report["rows"]["step_s_scaled"] <= STEP_S_SCALED_BOUND, report["rows"]
