"""The repository benchmark: two workloads through the public entry points.

Run from the repository root::

    python3 perfbench/run.py --workload paper_trajectory --seed 1 --seconds 3 --trace 0
    python3 perfbench/run.py --self-check

Workloads (see ``BENCHMARK.json`` and ``gen.py`` for their shapes):

* ``paper_trajectory`` -- a fresh process runs one population-7,680 cell
  through ``Session.run`` (gpu backend, inline);
* ``fleet_drain`` -- ``repro-serve --cache`` and two cold ``repro-daemon
  --leases --cache`` processes (one worker each) on one store.  A
  ``ServeClient`` submits one campaign of 8 x 128 cells, the daemons drain
  it, and the client fetches the result and every decoy set.  With the
  daemons stopped, the client then re-submits the cells under fresh ids
  and permuted axes in a closed loop for ``--seconds``; every cell must
  fill from the cache the drain published.

Both workloads are otherwise fixed amounts of work, so a run outlasts
``--seconds``.  Every end-to-end metric is reported for every workload:

* ``setup_s`` -- spawn until the target, loop library and knowledge base
  are built (paper), or until the server answers ``/v1/healthz`` and both
  daemons wrote their first heartbeat (fleet); the median of
  ``PAPER_STARTS`` / ``FLEET_STARTS`` cold starts;
* ``trajectory_s`` -- the ``Session.run`` wall (paper), the median sampler
  wall of the drained cells (fleet);
* ``cells_per_s`` -- cells completed per second of submit-to-complete time;
* ``front_hypervolume`` / ``best_front_rmsd_A`` -- of the harvested decoys,
  averaged (mean / median) over the cells;
* ``peak_rss_mb`` -- the largest peak RSS of the processes under test.

The three times (``setup_s``, ``trajectory_s`` and the makespan behind
``cells_per_s``) are scaled to a reference host speed: every process under
test runs the probe of ``pace.py``, and each time is multiplied by the
probe's speed in the process and interval it was measured in.  The host
changes speed by up to 1.4x for minutes at a time, which moved unscaled
medians by 25-35% between two sets of runs of the same code.  Unscaled
walls and the speeds go to standard error; ``host.speed`` is a per-layer
metric.

Untraced runs (``--trace 0``) print the end-to-end metrics; traced runs
(``--trace 1``) install the layer wrappers of ``spans.py`` in every process
under test and print the per-layer metrics, self times included, plus the
end-to-end values measured under tracing (``traced.*``): the tracing
overhead is their difference from an untraced run of the same seed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
error rate.  A human-readable breakdown goes to standard error.
``--self-check`` runs both workloads at a tiny scale, asserts that every
metric named in ``BENCHMARK.json`` is emitted with its unit, and that a
corrupted cache entry is counted as a failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

import gen  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402
from quality import npz_digest, pair_hypervolume  # noqa: E402

#: Cold starts per run; ``setup_s`` is their median.  A paper-scale start
#: builds the library and knowledge base (3-5 s), so one probe precedes the
#: trajectory process's own; a server and daemon-pair start only imports
#: and binds (~1 s), and the last of them is the one that drains.
PAPER_STARTS = 2
FLEET_STARTS = 5
#: Longest wait for one workload step before it counts as failed.
STEP_TIMEOUT_S = 150.0
#: Traced and ledger kernel totals may differ by this share plus 50 ms.
LEDGER_TOLERANCE = 0.05
#: Run directories (stores, caches, logs, spans) kept for inspection; older
#: ones are deleted when the next run starts.
KEEP_RUNS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "trajectory_s": "s",
    "cells_per_s": "cells/s",
    "front_hypervolume": "fraction",
    "best_front_rmsd_A": "angstrom",
    "peak_rss_mb": "MB",
}


class Failed(RuntimeError):
    """A workload step that could not complete."""


def log(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


@functools.lru_cache(maxsize=None)
def code_identity() -> str:
    """sha256 over the program's sources: digests compare runs of one code."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def prune_runs(keep: int = KEEP_RUNS) -> None:
    """Delete all but the newest ``keep`` run directories.

    Called before a run starts, so the deletion falls outside what it measures.
    """
    runs = sorted(WORK.glob("run-*"), key=lambda path: path.stat().st_mtime)
    for old in runs[: max(len(runs) - keep, 0)]:
        shutil.rmtree(old, ignore_errors=True)


# ---------------------------------------------------------------------------
# Processes under test
# ---------------------------------------------------------------------------


class Child:
    """One process under test, reaped with its resource usage."""

    def __init__(self, popen: subprocess.Popen, started: float, log: Path,
                 pace_path: Optional[Path]) -> None:
        self.popen = popen
        self.started = started
        self.started_at = time.time()
        self.log = log
        self.pace_path = pace_path
        self.rss_mb: Optional[float] = None

    @property
    def pid(self) -> int:
        return self.popen.pid

    def pace(self) -> List[List[float]]:
        """Host-speed probe samples; complete once the child has exited."""
        return pace.load(str(self.pace_path)) if self.pace_path else []

    def read_tagged(self, tag: str) -> Dict[str, Any]:
        """Block until the child prints ``<tag> {json}`` on its stdout pipe."""
        for line in self.popen.stdout:
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:])
        self.reap()
        raise Failed(f"child {self.pid} exited before printing {tag}:\n{self.log_tail()}")

    def log_tail(self, lines: int = 15) -> str:
        return "\n".join(self.log.read_text(errors="replace").splitlines()[-lines:])

    def reap(self, timeout: float = STEP_TIMEOUT_S) -> int:
        """Wait for exit; records the peak RSS from the child's rusage."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.pid, os.WNOHANG)
            if pid == self.pid:
                break
            if time.monotonic() > deadline:
                self.popen.kill()
                pid, status, usage = os.wait4(self.pid, 0)
                break
            time.sleep(0.01)
        self.popen.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        if self.popen.stdout is not None:
            self.popen.stdout.close()
        return self.popen.returncode

    def stop(self) -> int:
        """SIGINT (the console scripts' shutdown), then reap."""
        if self.popen.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                self.popen.send_signal(signal.SIGINT)
        return self.reap(timeout=20.0)


class Run:
    """State of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, scale: str) -> None:
        self.workload = workload
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.trace = bool(trace)
        self.scale = scale
        self.dir = WORK / f"run-{workload}-{time.time_ns()}-{os.getpid()}"
        self.children: List[Child] = []
        self.span_files: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.extra: Dict[str, Any] = {}
        self.breakdown: Optional[Dict[str, Any]] = None
        self.speeds: List[float] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONHASHSEED"] = "0"

    def check(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def spawn(self, role: str, *args: str, log_name: Optional[str] = None) -> Child:
        """Start ``child.py <role>``; stdout goes to a pipe or ``log_name``.

        Every role runs the host-speed probe.
        """
        command = [sys.executable, str(HERE / "child.py"), role]
        if self.trace:
            path = str(self.dir / f"spans-{len(self.span_files)}.json")
            self.span_files.append(path)
            command += ["--spans", path]
        pace_path = self.dir / f"pace-{len(self.children)}.json"
        command += ["--pace", str(pace_path)]
        command += list(args)
        log_name = log_name or f"{role}-{len(self.children)}.err"
        with open(self.dir / log_name, "w") as output:
            started = time.perf_counter()
            popen = subprocess.Popen(
                command, cwd=ROOT, env=self.env, text=True, stderr=output,
                stdout=output if log_name.endswith(".log") else subprocess.PIPE,
            )
        child = Child(popen, started, self.dir / log_name, pace_path)
        self.children.append(child)
        return child

    def scaled(self, seconds: float, samples: List[List[float]], start: float, end: float) -> float:
        """``seconds`` measured in [start, end], at the reference host speed.

        Falls back to the samples of the whole run, then to no scaling, when
        the interval holds none (tiny scale).
        """
        speed = pace.speed(samples, start, end) or pace.speed(samples)
        self.speeds.append(speed or 1.0)
        return seconds * (speed or 1.0)

    def stop_all(self) -> None:
        for child in self.children:
            if child.popen.returncode is None:
                child.stop()

    def dumps(self) -> List[Dict[str, Any]]:
        return spans.load_dumps(p for p in self.span_files if os.path.exists(p))

    def write_doc(self, name: str, document: Dict[str, Any]) -> str:
        path = self.dir / name
        path.write_text(json.dumps(document, sort_keys=True))
        return str(path)


def _cell_key(document: Dict[str, Any]) -> str:
    from repro.api.campaign import campaign_from_dict
    from repro.serve.cache import cell_cache_key

    return cell_cache_key(campaign_from_dict(document).cells()[0])


def _digest_record(run: Run, key: str, digest: str) -> bool:
    """Compare ``digest`` with any earlier run's of the same cell and code.

    Cells are content-addressed, so a digest that changes between runs of
    the same sources means the program's output depends on something other
    than the cell itself (which daemon ran it, tracing, the flat index).
    Other sources get their own reference: a change may alter results.
    """
    key = f"{code_identity()}:{key}"
    folder = WORK / "digests"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / (hashlib.sha256(key.encode()).hexdigest()[:32] + ".json")
    if path.is_file():
        return json.loads(path.read_text())["digest"] == digest
    path.write_text(json.dumps({"key": key, "digest": digest}))
    return True


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def paper_trajectory(run: Run) -> Dict[str, float]:
    document = gen.paper_trajectory(run.seed, run.scale)
    doc = run.write_doc("paper.json", document)
    starts, splits = [], []
    for _ in range(PAPER_STARTS - 1):
        probe = run.spawn("setup", "--target", document["campaign"]["targets"][0])
        splits.append(probe.read_tagged("READY"))
        starts.append((probe, time.perf_counter() - probe.started))
        probe.reap()
    child = run.spawn("trajectory", "--doc", doc, "--store", str(run.dir / "store"))
    splits.append(child.read_tagged("READY"))
    starts.append((child, time.perf_counter() - child.started))
    result = child.read_tagged("RESULT")
    run.check(child.reap() == 0, "trajectory process failed")
    run.check(not result["problems"], "; ".join(result["problems"]))
    for kind, digest in sorted(result["digests"].items()):
        run.check(
            _digest_record(run, f"{kind}:{_cell_key(document)}", digest),
            f"{kind} digest differs from an earlier run of the same cell",
        )
    setup_s = [
        run.scaled(seconds, process.pace(), process.started_at, split["ready_at"])
        for (process, seconds), split in zip(starts, splits)
    ]
    wall_s = result["trajectory_s"]
    trajectory_s = run.scaled(wall_s, child.pace(), *result["window"])
    run.extra = {
        "setup_s": [seconds for _, seconds in starts],
        "setup_splits": splits,
        "ledger": result["ledger"],
        "cell_wall_s": [wall_s],
        "wall_s": wall_s,
    }
    return {
        "setup_s": statistics.median(setup_s),
        "trajectory_s": trajectory_s,
        "cells_per_s": 1.0 / trajectory_s,
        "front_hypervolume": result["front_hypervolume"],
        "best_front_rmsd_A": result["best_front_rmsd_A"],
        "peak_rss_mb": child.rss_mb,
    }


def _wait_until(ready: Callable[[], bool], children: List[Child], what: str) -> None:
    deadline = time.monotonic() + STEP_TIMEOUT_S
    while not ready():
        for child in children:
            if child.popen.poll() is not None:
                raise Failed(f"{what}: process {child.pid} exited:\n{child.log_tail()}")
        if time.monotonic() > deadline:
            raise Failed(f"{what}: timed out")
        time.sleep(0.005)


def _start_fleet(run: Run, store: Path, cache: Path, tag: str) -> Tuple[Child, str, List[Child]]:
    """``repro-serve`` and two cold daemons on one store; returns once the
    server answers ``/v1/healthz`` and both daemons wrote a heartbeat."""
    from repro.obs.fleet import heartbeat_path

    server_log = f"serve-{tag}.log"
    server = run.spawn(
        "serve", "--", "--store", str(store), "--cache", str(cache), "--port", "0",
        log_name=server_log,
    )
    daemons = [
        run.spawn(
            "daemon", "--", "--store", str(store), "--workers", "1",
            "--leases", "--daemon-id", f"bench-{slot}", "--cache", str(cache),
            "--interval", "0.5",
            log_name=f"daemon-{tag}-{slot}.log",
        )
        for slot in range(2)
    ]
    url: List[str] = []

    def server_up() -> bool:
        if not url:
            for line in (run.dir / server_log).read_text().splitlines():
                if "listening on " in line:
                    url.append(line.split("listening on ", 1)[1].strip())
                    break
        if not url:
            return False
        try:
            with urllib.request.urlopen(url[0] + "/v1/healthz", timeout=5) as response:
                return response.status == 200
        except OSError:
            return False

    beats = [heartbeat_path(store, f"bench-{slot}") for slot in range(2)]
    _wait_until(lambda: all(path.is_file() for path in beats), daemons, "daemon start-up")
    _wait_until(server_up, [server], "repro-serve start-up")
    return server, url[0], daemons


def _fetch(run: Run, client: Any, document: Dict[str, Any], handle: Any = None) -> Optional[List[bytes]]:
    """Result and every cell's decoys of one campaign over HTTP (None: failed).

    Without a ``handle`` the document is submitted first.
    """
    from repro.api.campaign import campaign_from_dict
    from repro.serve.client import ServeError

    campaign_id = document["campaign"]["id"]
    try:
        if handle is None:
            handle = client.submit(document)
        handle.result()
        blobs = []
        for index in range(len(campaign_from_dict(document).cells())):
            status, body, _ = client._request("GET", handle._path(f"cells/{index}/decoys"))
            if status >= 300:
                raise ServeError(status, f"decoys of cell {index}: {body[:200]!r}")
            blobs.append(body)
    except ServeError as exc:
        run.check(False, f"{campaign_id}: {exc}")
        return None
    return blobs


def fleet_drain(run: Run, tamper: bool = False) -> Dict[str, float]:
    import numpy as np

    from repro.api.campaign import campaign_from_dict
    from repro.runtime import RunStore
    from repro.serve.cache import cell_cache_key
    from repro.serve.client import ServeClient

    workload = gen.FleetDrain(run.seed, run.scale)
    document = workload.campaign()
    grid = campaign_from_dict(document)
    store_root = run.dir / "store"
    cache_root = run.dir / "cache"
    starts = []
    for round_ in range(FLEET_STARTS):
        last = round_ == FLEET_STARTS - 1
        store = store_root if last else run.dir / f"probe-store-{round_}"
        started, started_at = time.perf_counter(), time.time()
        server, url, daemons = _start_fleet(run, store, cache_root, str(round_))
        starts.append(([server, *daemons], time.perf_counter() - started, started_at, time.time()))
        if not last:
            for child in (server, *daemons):
                child.stop()

    client = ServeClient(url, timeout=30.0)
    submitted_wall = time.time()
    submitted = time.perf_counter()
    handle = client.submit(document)
    deadline = submitted + STEP_TIMEOUT_S
    # The cells' own finish stamps time the drain; polling is only the exit
    # condition, kept slow so the harness takes no CPU from the daemons.
    # A daemon publishes a cell to the cache after writing its result, so
    # stopping the daemons at "complete" could cut a publication short.
    entries = [cache_root / key[:2] / key / "entry.json" for key in map(cell_cache_key, grid.cells())]
    while time.perf_counter() < deadline and not (
        handle.status()["complete"] and all(entry.is_file() for entry in entries)
    ):
        time.sleep(0.5)
    observed_s = time.perf_counter() - submitted
    for daemon in daemons:
        run.check(daemon.stop() == 0, f"daemon {daemon.pid} exited with an error")
    # Cells run on the daemons' main threads, where their probes sample.
    samples = [sample for daemon in daemons for sample in daemon.pace()]

    store = RunStore(str(store_root))
    journal = [json.loads(line) for line in store.canonical_journal(grid.run_id).splitlines()]
    done_counts: Dict[int, int] = {}
    for record in journal:
        if record.get("type") == "cell-done":
            done_counts[int(record["shard"])] = done_counts.get(int(record["shard"]), 0) + 1
    pids = {d.pid: slot for slot, d in enumerate(daemons)}
    executed = [0, 0]
    expected: Dict[str, str] = {}
    finished, walls, scaled_walls, volumes, best = [], [], [], [], []
    for cell in grid.cells():
        index = cell.index
        name = f"{grid.run_id}/{cell.name}"
        if not run.check(store.has_shard_result(grid.run_id, index), f"{name} never completed"):
            continue
        status = store.read_shard_status(grid.run_id, index)
        summary = store.load_shard_summary(grid.run_id, index)
        ok = done_counts.get(index, 0) == 1
        problem = f"{name} has {done_counts.get(index, 0)} cell-done records"
        slot = pids.get(int(status.get("pid", -1)))
        if slot is not None:
            executed[slot] += 1
        decoys_path = store.shard_dir(grid.run_id, index) / "decoys.npz"
        key = cell_cache_key(cell)
        entry = cache_root / key[:2] / key / "entry.json"
        expected[key] = hashlib.sha256(decoys_path.read_bytes()).hexdigest()
        if ok and (not entry.is_file() or json.loads(entry.read_text())["npz_sha256"] != expected[key]):
            ok, problem = False, f"{name}: cache entry does not hold the cell's decoys"
        if ok and not _digest_record(run, f"decoys:{key}", npz_digest(decoys_path)):
            ok, problem = False, f"{name}: decoys differ from an earlier run of the same cell"
        run.check(ok, problem)
        finished_at = float(status.get("finished_at", submitted_wall + observed_s))
        finished.append(finished_at - submitted_wall)
        walls.append(float(summary["wall_seconds"]))
        scaled_walls.append(run.scaled(walls[-1], samples, finished_at - walls[-1], finished_at))
        decoys = store.load_shard_decoys(grid.run_id, index)
        scores = decoys.scores_matrix() if len(decoys) else np.zeros((0, 3))
        volumes.append(pair_hypervolume(scores))
        best.append(decoys.best_rmsd())
    if not finished:
        raise Failed("no cell of the drained campaign completed")

    def check_downloads(doc: Dict[str, Any], blobs: Optional[List[bytes]], filled: bool) -> None:
        if blobs is None:
            return
        problems = []
        for cell, blob in zip(campaign_from_dict(doc).cells(), blobs):
            if hashlib.sha256(blob).hexdigest() != expected.get(cell_cache_key(cell)):
                problems.append(f"cell {cell.index} decoys differ from the cache entry")
            if filled and not store.read_shard_status(cell.run_id, cell.index).get("cache_hit"):
                problems.append(f"cell {cell.index} executed instead of filling")
        run.check(not problems, f"{doc['campaign']['id']}: " + "; ".join(problems))

    check_downloads(document, _fetch(run, client, document, handle), filled=False)
    if tamper:
        # Self-check: corrupt one published entry before the re-submissions.
        victim = cache_root / key[:2] / key / "decoys.npz"
        victim.write_bytes(victim.read_bytes()[:-16] + b"\0" * 16)
    # Re-submissions under fresh ids and permuted axes, in a closed loop:
    # with the daemons gone, every cell must fill from the cache.
    number = 0
    window_end = time.perf_counter() + run.seconds
    while number == 0 or time.perf_counter() < window_end:
        resubmitted = workload.resubmission(number)
        number += 1
        check_downloads(resubmitted, _fetch(run, client, resubmitted), filled=True)
    run.check(server.stop() == 0, "repro-serve exited with an error")

    # Cells finish in claim order, so per-cell latencies depend on the axis
    # permutation; the campaign's submit-to-complete time does not.
    makespan = max(finished)
    setup_s = [
        run.scaled(seconds, [s for child in children for s in child.pace()], start, end)
        for children, seconds, start, end in starts
    ]
    run.extra = {
        "setup_s": [seconds for _, seconds, _, _ in starts],
        "executed": executed,
        "cell_wall_s": walls,
        "makespan_s": makespan,
        "n_daemons": 2,
        "resubmissions": number,
        "store_runs": len(store.list_runs()),
    }
    return {
        "setup_s": statistics.median(setup_s),
        "trajectory_s": statistics.median(scaled_walls),
        "cells_per_s": len(finished) / run.scaled(makespan, samples, submitted_wall, submitted_wall + makespan),
        "front_hypervolume": statistics.mean(volumes),
        "best_front_rmsd_A": statistics.median(best),
        "peak_rss_mb": max(child.rss_mb for child in (server, *daemons)),
    }


WORKLOADS: Dict[str, Callable[..., Dict[str, float]]] = {
    "paper_trajectory": paper_trajectory,
    "fleet_drain": fleet_drain,
}


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of a traced run
# ---------------------------------------------------------------------------


#: Spans with children whose self time is reported.
SELF_TIMED = (
    "api.session_run",
    "api.drain_pass",
    "runtime.cell",
    "moscem.step",
    "serve.http_submit",
    "serve.http_result",
    "serve.http_decoys",
)


def per_layer(run: Run, e2e: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    agg = spans.aggregate(run.dumps())
    counters = agg["counters"]
    extra = run.extra
    total = lambda name: spans.total(agg, name)  # noqa: E731
    median_ms = lambda name: spans.median_ms(agg, name)  # noqa: E731

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values: Dict[str, Any] = {
        "repro.import_s": (total("repro.import"), "s"),
        "loops.target_s": (total("loops.target"), "s"),
        "loops.library_s": (total("loops.library"), "s"),
        "scoring.knowledge_base_s": (total("scoring.knowledge_base"), "s"),
        "moscem.dominance.fitness_population_s": (total("moscem.dominance.fitness_population"), "s"),
        "moscem.dominance.fitness_population_calls": (spans.calls(agg, "moscem.dominance.fitness_population"), "count"),
        "moscem.dominance.fitness_complexes_s": (total("moscem.dominance.fitness_complexes"), "s"),
        "moscem.dominance.non_dominated_mask_s": (total("moscem.dominance.non_dominated_mask"), "s"),
        "closure.ccd_s": (total("closure.ccd"), "s"),
        "closure.ccd_calls": (spans.calls(agg, "closure.ccd"), "count"),
        "closure.closed_fraction": (ratio(counters.get("closure.closed", 0), counters.get("closure.proposed", 0)), "fraction"),
        "scoring.vdw_s": (total("scoring.vdw"), "s"),
        "scoring.dist_s": (total("scoring.dist"), "s"),
        "scoring.trip_s": (total("scoring.trip"), "s"),
        "moscem.host_s": (sum(agg["self"].get(n, 0.0) for n in ("moscem.initial_state", "moscem.step", "moscem.finalize_state")), "s"),
        "moscem.acceptance_fraction": (ratio(counters.get("moscem.acceptance_sum", 0), counters.get("moscem.steps", 0)), "fraction"),
        "geometry.rmsd_s": (total("geometry.rmsd"), "s"),
        "moscem.decoy_harvest_s": (total("moscem.decoy_harvest"), "s"),
        "runtime.checkpoint_s": (total("runtime.checkpoint"), "s"),
        "runtime.checkpoint_bytes": (counters.get("runtime.checkpoint_bytes", 0), "bytes"),
        "runtime.result_write_s": (total("runtime.result_write"), "s"),
        "runtime.cell_s": (total("runtime.cell"), "s"),
        "runtime.worker_busy_fraction": (
            ratio(sum(extra.get("cell_wall_s", ())), extra.get("n_daemons", 0) * extra.get("makespan_s", 0.0)), "fraction"),
        "api.drain_pass_s": (total("api.drain_pass"), "s"),
        "api.drain_passes": (spans.calls(agg, "api.drain_pass"), "count"),
        "api.cells_executed_min": (min(extra.get("executed", [0])), "count"),
        "api.cells_executed_max": (max(extra.get("executed", [0])), "count"),
        "serve.lease_claims_won": (counters.get("serve.lease_claims_won", 0), "count"),
        "serve.lease_claims_lost": (counters.get("serve.lease_claims_lost", 0), "count"),
        "serve.lease_claim_ms": (median_ms("serve.lease_claim"), "ms"),
        "serve.cache_publish_ms": (median_ms("serve.cache_publish"), "ms"),
        "serve.cache_fill_ms": (median_ms("serve.cache_fill"), "ms"),
        "serve.cache_hit_fraction": (ratio(counters.get("serve.cache_hits", 0), counters.get("serve.cache_fills", 0)), "fraction"),
        "serve.http_submit_ms": (median_ms("serve.http_submit"), "ms"),
        "serve.http_result_ms": (median_ms("serve.http_result"), "ms"),
        "serve.http_decoys_ms": (median_ms("serve.http_decoys"), "ms"),
        "runtime.create_run_ms": (median_ms("runtime.create_run"), "ms"),
        "api.result_ms": (median_ms("api.result"), "ms"),
        "runtime.store_runs": (extra.get("store_runs", 0), "count"),
    }
    for name in SELF_TIMED:
        values[f"{name}.self_s"] = (agg["self"].get(name, 0.0), "s")
    splits = extra.get("setup_splits")
    if splits:
        accounted = statistics.median(
            s["import_s"] + s["target_s"] + s["library_s"] + s["knowledge_base_s"] for s in splits
        )
    else:
        accounted = statistics.median(agg["durations"].get("repro.import", [0.0]))
    values["setup.readiness_s"] = (max(e2e["setup_s"] - accounted, 0.0), "s")
    mismatch = 0.0
    ledger = extra.get("ledger")
    if ledger:
        for span_name, ledger_name in spans.LEDGER_KERNELS.items():
            traced = total(span_name)
            booked = float(ledger.get(ledger_name, 0.0))
            mismatch = max(mismatch, ratio(abs(traced - booked), booked))
            run.check(
                abs(traced - booked) <= LEDGER_TOLERANCE * booked + 0.05,
                f"traced {span_name} {traced:.3f}s disagrees with ledger {ledger_name} {booked:.3f}s",
            )
    values["trace.ledger_mismatch_fraction"] = (mismatch, "fraction")
    values["host.speed"] = (statistics.median(run.speeds) if run.speeds else 1.0, "ratio")
    for name, value in e2e.items():
        values[f"traced.{name}"] = (value, END_TO_END_UNITS[name])
    run.breakdown = agg
    return {name: {"value": float(v), "unit": u} for name, (v, u) in values.items()}


def _render(run: Run, e2e: Dict[str, float]) -> None:
    log(f"{run.workload} seed={run.seed} trace={int(run.trace)} scale={run.scale}: "
        f"{run.failed}/{run.attempted} checks failed, error_rate="
        f"{run.failed / max(run.attempted, 1):.4f}")
    for name, value in e2e.items():
        log(f"  {name:<22} {value:14.6g} {END_TO_END_UNITS[name]}")
    if run.speeds:
        log(f"  host speed (reference 1) min {min(run.speeds):.3f} median "
            f"{statistics.median(run.speeds):.3f} max {max(run.speeds):.3f}; "
            f"unscaled cell walls {[round(w, 3) for w in run.extra.get('cell_wall_s', [])]}, "
            f"unscaled starts {[round(w, 3) for w in run.extra.get('setup_s', [])]}")
    for problem in run.problems[:5]:
        log(f"  FAILED: {problem}")
    if len(run.problems) > 5:
        log(f"  ... and {len(run.problems) - 5} more failed checks")
    agg = run.breakdown
    if agg:
        log(f"  {'span':<40}{'calls':>7}{'total_s':>11}{'self_s':>11}")
        for name in sorted(agg["durations"]):
            log(f"  {name:<40}{len(agg['durations'][name]):>7}"
                f"{sum(agg['durations'][name]):>11.4f}{agg['self'][name]:>11.4f}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
                 **options: Any) -> Dict[str, Any]:
    prune_runs()
    run = Run(workload, seed, seconds, trace, scale)
    run.dir.mkdir(parents=True)
    try:
        e2e = WORKLOADS[workload](run, **options)
    finally:
        run.stop_all()
    metrics = (
        per_layer(run, e2e) if trace
        else {name: {"value": float(v), "unit": END_TO_END_UNITS[name]} for name, v in e2e.items()}
    )
    _render(run, e2e)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# Self-check
# ---------------------------------------------------------------------------


def self_check() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        outputs = {}
        for trace in (0, 1):
            out = run_workload(workload, 1, 1.0, bool(trace), scale="tiny")
            outputs[trace] = out
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(wanted[trace]))} "
                                "missing, extra or with another unit")
            if not out["correct"] or out["failed"]:
                problems.append(f"{workload} trace={trace}: {out['failed']} failed checks")
        for name, metric in outputs[0]["metrics"].items():
            traced = outputs[1]["metrics"][f"traced.{name}"]["value"]
            log(f"  tracing overhead {workload} {name}: {traced - metric['value']:+.6g} {metric['unit']}")
    tampered = run_workload("fleet_drain", 1, 1.0, False, scale="tiny", tamper=True)
    if tampered["failed"] == 0 or tampered["correct"]:
        problems.append("a corrupted cache entry was not counted as a failure")
    for problem in problems:
        log(f"SELF-CHECK FAILED: {problem}")
    log("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"perfbench: no program sources at {SRC / 'repro'}; run from the repository root")
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Failed as exc:
        log(f"perfbench: {args.workload} failed: {exc}")
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
