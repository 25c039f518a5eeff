"""Member threads: the population kernels split their members across the
cores the cell owns, without changing a bit.

* the pool primitive (:func:`repro.scoring.pairwise.map_members`): every
  task runs once, errors surface after all tasks finished, a nested map
  runs inline;
* VDW, DIST and TRIP totals at 1, 2 and 3 threads are ``np.array_equal``
  on populations that are not multiples of the block size, crowded ones
  included, on the compiled and the generic route, and so is a
  fixed-seed trajectory;
* the slot rule: a cell's thread count is ``max(1, cores // slots)``,
  where a leased daemon's slots count the workers of live sibling
  heartbeats on its host, the experiment processes of
  ``repro-experiments --workers N`` each count as one, and the count
  travels with the work item;
* tracing: ledger records and spans are filed from the cell's thread;
* fork safety: a process-pool campaign after an inline one completes,
  although the pool's threads do not survive ``fork``.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.api.daemon as daemon_module
import repro.closure.ccd as ccd_module
import repro.experiments.runner as runner_module
import repro.runtime.executor as executor_module
from repro.api import Session, campaign, drain_once
from repro.backends import make_backend
from repro.config import SamplingConfig
from repro.io import write_json_atomic
from repro.loops.ramachandran import RamachandranModel
from repro.moscem.sampler import MOSCEMSampler
from repro.obs.fleet import heartbeat_path, host_slots
from repro.obs.trace import Tracer
from repro.runtime import RunStore
from repro.scoring import default_multi_score, pairwise
from repro.scoring.pairwise import (
    DEFAULT_BLOCK_SIZE,
    map_members,
    member_thread_count,
    member_threads,
    using_member_threads,
)
from repro.serve.leases import LeaseManager
from repro.utils.timing import TimingLedger
from repro.xp import numpy_kernels

THREADS = (1, 2, 3)
TINY = SamplingConfig(population_size=16, n_complexes=4, iterations=1)
QUIET = lambda _line: None  # noqa: E731


class TestMapMembers:
    @pytest.mark.parametrize("threads", THREADS)
    def test_every_task_runs_once(self, threads):
        seen = np.zeros(37, dtype=np.int64)

        def task(index):
            seen[index] += 1

        with using_member_threads(threads):
            map_members(task, seen.size)
            map_members(task, 0)
        assert np.all(seen == 1)

    def test_count_is_scoped(self):
        before = member_threads()
        with using_member_threads(3):
            assert member_threads() == 3
        assert member_threads() == before

    def test_error_surfaces_after_every_task_finished(self):
        finished = []

        def task(index):
            if index == 0:
                raise ValueError("bad member")
            time.sleep(0.01)
            finished.append(index)

        with using_member_threads(2), pytest.raises(ValueError, match="bad member"):
            map_members(task, 6)
        assert sorted(finished) == [1, 2, 3, 4, 5]

    def test_stress_more_threads_than_cores(self):
        """Eight threads, a 1 us switch interval, 20,000 tasks: a task run
        twice or lost would leave a count other than one."""
        seen = np.zeros(20000, dtype=np.int64)

        def task(index):
            seen[index] += 1

        def run():
            with using_member_threads(8):
                map_members(task, seen.size)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=run)
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert np.all(seen == 1)

    def test_nested_map_runs_inline(self):
        grid = np.zeros((4, 5), dtype=np.int64)

        def row(i):
            def cell(j):
                grid[i, j] += 1

            map_members(cell, grid.shape[1])

        with using_member_threads(2):
            map_members(row, grid.shape[0])
        assert np.all(grid == 1)


class TestScoringTotals:
    """Per-member totals do not depend on the member-thread count."""

    @pytest.mark.parametrize(
        "pop, block, squeeze",
        [(1, None, 1.0), (300, None, 1.0), (45, 7, 1.0), (3, None, 0.35), (129, None, 0.35)],
        ids=["1-None", "300-None", "45-7", "3-crowded", "129-crowded"],
    )
    def test_totals_bit_identical_across_threads(
        self, paper_target, knowledge_base, pop, block, squeeze, monkeypatch
    ):
        """One set of bits on every thread count, on the compiled and the
        generic route.  Crowded members (squeezed toward their centroid:
        hundreds of overlapping pairs each) show the partition in their
        VDW sum order: a one-member block adds in two lanes, a larger block
        one by one.  The partition is the fixed 128 whatever the thread
        count, so 3 members are one block, and at 129 the last member is a
        block of its own, scored as :meth:`evaluate` scores it."""
        if block is not None:
            monkeypatch.setattr(pairwise, "DEFAULT_BLOCK_SIZE", block)
        torsions = RamachandranModel().sample_population(
            paper_target.sequence, pop, np.random.default_rng(pop)
        )
        coords, _closure = paper_target.build_batch(torsions)
        centre = coords.mean(axis=(1, 2), keepdims=True)
        coords = centre + squeeze * (coords - centre)
        totals = []
        for kernels in (None, numpy_kernels()):
            multi = default_multi_score(paper_target, knowledge_base=knowledge_base)
            for fn in multi.functions:
                fn.use_kernels(kernels)
            for threads in THREADS:
                with using_member_threads(threads):
                    totals.append([fn.evaluate_batch(coords, torsions) for fn in multi])
        names = [type(fn).__name__ for fn in multi.functions]
        assert names[0] == "SoftSphereVDW"
        assert {"DistanceScore", "TripletScore"} <= set(names)
        for run, other in enumerate(totals[1:], 1):
            for name, one, many in zip(names, totals[0], other):
                assert np.array_equal(one, many), (name, run)
        if squeeze < 1.0:
            vdw = multi.functions[0]
            last = vdw.evaluate(coords[-1], torsions[-1])
            # The case tells the two sum orders apart ...
            assert vdw.evaluate_batch(coords[-2:], torsions[-2:])[1] != last
            if pop > DEFAULT_BLOCK_SIZE:  # ... and the last block holds one member.
                assert totals[0][0][-1] == last


def test_fixed_seed_trajectory_identical_across_threads(
    paper_target, knowledge_base, monkeypatch
):
    """A gpu-backend trajectory whose CCD calls and scoring passes split
    across 2 and 3 threads ends in the 1-thread run's exact population."""
    monkeypatch.setattr(ccd_module, "_MIN_STRIPE", 1)
    config = SamplingConfig(population_size=300, n_complexes=4, iterations=2, seed=5)
    runs = {}
    for threads in THREADS:
        multi = default_multi_score(paper_target, knowledge_base=knowledge_base)
        backend = make_backend("gpu", paper_target, multi, config)
        with using_member_threads(threads):
            runs[threads] = MOSCEMSampler(paper_target, config, backend=backend).run()
    for threads in THREADS[1:]:
        for field in ("torsions", "coords", "scores", "fitness"):
            assert np.array_equal(
                getattr(runs[1].population, field),
                getattr(runs[threads].population, field),
            ), (field, threads)


def _fake_heartbeat(store, daemon_id, host, pid, workers, age=0.0):
    write_json_atomic(
        heartbeat_path(store, daemon_id),
        {
            "format_version": 1,
            "daemon": daemon_id,
            "host": host,
            "pid": pid,
            "heartbeat": time.time() - age,
            "workers": workers,
            "cycle": 1,
        },
    )


@pytest.fixture()
def two_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)


@pytest.fixture()
def dispatched(monkeypatch):
    """The member-thread counts of the work items the runtime dispatches."""
    counts = []
    original = executor_module._cell_task

    def recording(payload):
        counts.append(payload["threads"])
        return original(payload)

    monkeypatch.setattr(executor_module, "_cell_task", recording)
    monkeypatch.setattr(daemon_module, "_cell_task", recording)
    return counts


class TestSlotRule:
    def test_share_of_the_cores(self, two_cores):
        assert [member_thread_count(s) for s in (0, 1, 2, 3)] == [2, 2, 1, 1]

    def test_host_slots_counts_live_siblings_on_this_host(self, tmp_path):
        store, host = RunStore(str(tmp_path)), socket.gethostname()
        assert host_slots(store, 1) == 1
        _fake_heartbeat(store, "me", host, os.getpid(), 1)  # not counted twice
        _fake_heartbeat(store, "sibling", host, os.getpid() + 1, 2)
        _fake_heartbeat(store, "stale", host, os.getpid() + 2, 4, age=3600.0)
        _fake_heartbeat(store, "remote", host + "-other", os.getpid() + 3, 8)
        assert host_slots(store, 1) == 3

    def test_inline_session_cell_gets_every_core(self, tmp_path, two_cores, dispatched):
        grid = campaign("inline", "1cex(40:51)", {"t": TINY}, workers=1)
        Session(RunStore(str(tmp_path)), workers=1).run(grid)
        assert dispatched == [2]

    @pytest.mark.parametrize(
        "sibling, threads",
        [
            (None, 2),
            (dict(host=None, age=0.0), 1),
            (dict(host=None, age=3600.0), 2),
            (dict(host="elsewhere", age=0.0), 2),
        ],
        ids=["alone", "live-sibling", "stale-sibling", "other-host"],
    )
    def test_leased_daemon_shares_the_host(
        self, tmp_path, two_cores, dispatched, sibling, threads
    ):
        """Two one-worker daemons on a two-core host run one thread each;
        a stale heartbeat or one from another host does not count."""
        store = RunStore(str(tmp_path))
        Session(store).submit(campaign("leased", "1cex(40:51)", {"t": TINY}))
        if sibling is not None:
            host = sibling["host"] or socket.gethostname()
            _fake_heartbeat(store, "sib", host, os.getpid() + 1, 1, sibling["age"])
        leases = LeaseManager(store, daemon_id="me", ttl_seconds=10.0)
        report = drain_once(store, workers=1, progress=QUIET, leases=leases)
        assert report.executed == 1
        assert dispatched == [threads]


@pytest.mark.parametrize("workers, threads", [(1, 2), (2, 1)])
def test_experiment_workers_share_the_host(
    tmp_path, monkeypatch, two_cores, dispatched, workers, threads
):
    """``repro-experiments --workers N`` runs N experiment processes at
    once, so each one's inline cells get ``max(1, cores // N)`` threads."""

    def experiment(experiment_id, scale, seed):
        grid = campaign(experiment_id, "1cex(40:51)", {"t": TINY}, workers=1)
        Session(RunStore(str(tmp_path / experiment_id)), workers=1).run(grid)
        return experiment_id

    def pool_in_process(fn, items, workers, on_result=None):
        return [fn(item) for item in items]

    monkeypatch.setattr(runner_module, "run_experiment", experiment)
    monkeypatch.setattr(executor_module, "parallel_map", pool_in_process)
    report = runner_module.run_experiments(["fig1", "table2"], workers=workers)
    assert report.results == ["fig1", "table2"]
    assert dispatched == [threads, threads]
    assert member_thread_count(1) == 2  # the share ends with the map


def test_ledger_records_and_spans_stay_on_the_calling_thread(
    tmp_path, monkeypatch
):
    """A traced cell on two member threads files every ledger record and
    span from the thread that runs the cell, never from a pool thread."""
    filed, helpers = [], []
    add, begin, leaf = TimingLedger.add, Tracer.begin, Tracer.add_leaf
    grow = pairwise._helpers

    def on_thread(fn):
        def wrapper(*args, **kwargs):
            filed.append(threading.current_thread())
            return fn(*args, **kwargs)

        return wrapper

    def counting(count):
        helpers.append(count)
        return grow(count)

    monkeypatch.setattr(TimingLedger, "add", on_thread(add))
    monkeypatch.setattr(Tracer, "begin", on_thread(begin))
    monkeypatch.setattr(Tracer, "add_leaf", on_thread(leaf))
    monkeypatch.setattr(pairwise, "_helpers", counting)
    config = SamplingConfig(population_size=256, n_complexes=4, iterations=1)
    grid = campaign("traced", "1cex(40:51)", {"c": config})
    store = RunStore(str(tmp_path))
    store.create_run(grid, exist_ok=True)
    with using_member_threads(2):
        executor_module.run_cell(store, grid.cell(0), trace=True)
    assert helpers, "no kernel split its members across the pool"
    assert filed and set(filed) == {threading.current_thread()}


_FORK_SCRIPT = textwrap.dedent(
    """
    from repro.api import Session, campaign
    from repro.config import SamplingConfig
    from repro.runtime import executor
    from repro.scoring import pairwise

    # Every cell maps its kernels over two member threads, whatever the
    # host's core count.
    executor.member_thread_count = lambda slots: 2
    config = SamplingConfig(population_size=256, n_complexes=4, iterations=1)
    with Session.ephemeral() as session:
        session.run(campaign("inline", "1cex(40:51)", {"c": config}, base_seed=1))
    assert pairwise._POOL is not None  # the inline cell built the pool
    with Session.ephemeral(workers=2) as session:
        result = session.run(
            campaign("pool", "1cex(40:51)", {"c": config}, seeds=2, base_seed=1)
        )
    print("cells", len(result.trajectories))
    """
)


def test_process_pool_after_inline_run_completes():
    """The workers fork from a process whose pool has threads; the pool
    is rebuilt in each child, so the campaign completes (it would hang)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-c", _FORK_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the hung pool workers too
        proc.communicate()
        pytest.fail("the process-pool campaign hung after the inline run")
    assert proc.returncode == 0, stderr
    assert stdout.split() == ["cells", "2"]
