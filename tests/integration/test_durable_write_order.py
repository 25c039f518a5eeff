"""Durable writes land blobs first, then summaries, then the marker.

Every multi-file artefact in the store follows one recovery protocol:
write the bulk payloads, then the JSON summaries that describe them, and
only then the *marker* whose presence tells a reader "everything here is
complete".  A crash between two steps leaves an artefact readers ignore;
reverse two steps and a crash leaves a trusted marker next to missing
payloads.

The test records every commit (the ``os.replace`` of
:func:`repro.io.atomic_write`, which ``write_json_atomic``,
``write_bytes_atomic`` and ``write_npz_atomic`` all go through) during a
real drain with island migration, a cache publish and a cache fill, and
checks each directory's commits against the protocol table below.
``create_json_exclusive`` is not recorded: it writes only lease claims,
which are transient.
"""

from __future__ import annotations

import re
from collections import defaultdict
from pathlib import Path

import pytest

import repro.io
from repro.api import MigrationPolicy, Session, campaign, drain_once
from repro.config import SamplingConfig
from repro.runtime import RunStore
from repro.serve.cache import ResultCache

#: Each artefact's files in commit order: blobs, then summaries, then the
#: marker a reader trusts.  ``N`` stands for any run of digits.
PROTOCOL = {
    "run manifest": ("manifest.json",),
    "checkpoint": ("checkpoint.npz", "checkpoint.json"),
    "cell result": ("decoys.npz", "result.json"),
    "cache entry": ("decoys.npz", "result.json", "entry.json"),
    "migration epoch": ("epoch-N.npz", "epoch-N.json"),
}

#: Status-channel files: rewritten freely, they promise nothing durable.
TRANSIENT = {"status.json", "lease.json", "cancelled.json", "heartbeat.json", "trace.json"}

CONFIG = SamplingConfig(population_size=16, n_complexes=4, iterations=4)
QUIET = lambda _line: None  # noqa: E731


@pytest.fixture()
def commits(monkeypatch):
    """Paths committed through :func:`repro.io.atomic_write`, in order."""
    log = []
    original = repro.io.atomic_write

    def recording(path, write_fn):
        original(path, write_fn)
        log.append(Path(path))

    monkeypatch.setattr(repro.io, "atomic_write", recording)
    return log


def _grid(campaign_id, **extra):
    return campaign(
        campaign_id,
        "1cex(40:51)",
        {"tiny": CONFIG},
        seeds=2,
        backends="gpu",
        base_seed=7,
        checkpoint_every=2,
        workers=1,
        **extra,
    )


def _protocol_breaches(commits):
    """Protocol breaches of each directory's commit sequence, and the
    artefacts seen."""
    by_directory = defaultdict(list)
    for path in commits:
        if path.name not in TRANSIENT:
            by_directory[path.parent].append(re.sub(r"\d+", "N", path.name))
    known = {name for files in PROTOCOL.values() for name in files}
    breaches, seen = [], set()
    for directory, names in by_directory.items():
        breaches += [f"{directory}: unclassified durable file {name}"
                     for name in sorted(set(names) - known)]
        for artefact, files in PROTOCOL.items():
            if files[-1] not in names:
                continue
            seen.add(artefact)
            # The artefact's files, in commit order, must be whole
            # repetitions of its protocol.
            ordered = [name for name in names if name in files]
            for start in range(0, len(ordered), len(files)):
                chunk = tuple(ordered[start : start + len(files)])
                if chunk != files:
                    breaches.append(
                        f"{directory}: {artefact} committed as {chunk}, "
                        f"expected {files}"
                    )
    return breaches, seen


def test_blobs_then_summaries_then_markers(tmp_path, commits):
    store = RunStore(str(tmp_path / "store"))
    cache = ResultCache(tmp_path / "cache")
    session = Session(store)

    # Island cells: checkpoints, migration packets and events, results.
    session.submit(
        _grid("islands", migration=MigrationPolicy(topology="ring", cadence=1, elite_k=2))
    )
    while drain_once(store, workers=1, cache=cache, progress=QUIET).executed:
        pass
    # Plain cells publish to the cache; the same workload again fills.
    session.submit(_grid("publish"))
    assert drain_once(store, workers=1, cache=cache, progress=QUIET).executed == 2
    session.submit(_grid("fill"))
    assert drain_once(store, workers=1, cache=cache, progress=QUIET).cache_hits == 2

    breaches, seen = _protocol_breaches(commits)
    assert breaches == []
    assert seen == set(PROTOCOL)
