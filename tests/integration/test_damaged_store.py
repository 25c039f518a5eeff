"""A drained campaign whose files are damaged on disk.

Atomic writes rule out torn files from a crash, so these come from disk
or operator damage.  A damaged status document is a status-channel file
that promises nothing durable: it reads as absent, and the finished
result next to it still loads and is not re-run.  A damaged decoy
archive fails with :class:`~repro.runtime.RunStoreError` naming the file.
"""

from __future__ import annotations

import pytest

from repro.api import Session, campaign, drain_once
from repro.config import SamplingConfig
from repro.runtime import RunStore, RunStoreError

QUIET = lambda _line: None  # noqa: E731


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


@pytest.fixture()
def drained(tmp_path):
    """A drained 2-cell campaign: its store and its handle."""
    store = RunStore(str(tmp_path / "store"))
    grid = campaign(
        "damaged",
        "1cex(40:51)",
        {"tiny": SamplingConfig(population_size=16, n_complexes=4, iterations=2)},
        seeds=2,
        backends="gpu",
        base_seed=7,
        workers=1,
    )
    handle = Session(store).submit(grid)
    assert drain_once(store, workers=1, progress=QUIET).executed == 2
    return store, handle


def test_truncated_status_reads_as_absent(drained):
    store, handle = drained
    expected = handle.result()
    _truncate(store.shard_dir("damaged", 0) / "status.json")
    assert drain_once(store, workers=1, progress=QUIET).executed == 0
    result = handle.result()
    assert [t.decoys.rmsds().tobytes() for t in result] == [
        t.decoys.rmsds().tobytes() for t in expected
    ]


def test_truncated_decoys_raise_run_store_error(drained):
    store, handle = drained
    _truncate(store.shard_dir("damaged", 1) / "decoys.npz")
    with pytest.raises(RunStoreError, match="decoys.npz"):
        handle.result()
