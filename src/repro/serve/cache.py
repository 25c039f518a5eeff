"""Content-addressed cache of finished cell results.

A campaign cell's output is a pure function of its *workload identity*:
the target, the sampling configuration, the derived RNG seed and the
backend implementation.  Nothing else reaches the trajectory — not the
campaign id, not the flat cell index, not the checkpoint cadence (resume
is bit-identical), not which daemon executed it.  :func:`cell_cache_key`
hashes a canonical JSON rendering of exactly those four coordinates, so
identical cells across *different users' campaigns* collapse onto one
cache entry: the first submission executes, every overlapping submission
afterwards fills from the cache in O(ms).

Entry layout (under one cache root, shardable across campaigns/stores)::

    <root>/<key[:2]>/<key>/
      decoys.npz      # the cell's harvested decoy arrays, byte-identical
      result.json     # the cell summary, minus per-campaign identity
      entry.json      # terminal marker: key coordinates + content hashes

``entry.json`` is written *last* (atomically), so a cache entry either
fully exists or does not exist at all; its recorded ``npz_sha256`` lets
:meth:`ResultCache.fill` verify the payload before trusting it.  A
poisoned entry — truncated arrays, corrupt JSON, hash mismatch — is
treated as a miss (and evicted best-effort), never an error: the cell
simply executes, which is always correct.

Cells carrying an island-migration plan are **not cacheable**: their
trajectories depend on the whole archipelago, not on their own
coordinates alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.api.registry import BACKENDS
from repro.io import write_bytes_atomic, write_json_atomic
from repro.obs.metrics import REGISTRY
from repro.runtime.spec import CellSpec
from repro.runtime.store import RunStore

__all__ = [
    "CACHE_FORMAT_VERSION",
    "ResultCache",
    "cell_cache_key",
    "is_cacheable",
]

#: Version stamp mixed into every cache key; bump to invalidate the cache
#: wholesale when the result layout (or the sampler's semantics) changes.
CACHE_FORMAT_VERSION: int = 1

# Cache telemetry (see repro.obs.metrics): process-wide counters behind
# GET /v1/metrics, mirrored per-instance in ResultCache.stats for the
# daemon's end-of-drain summary and heartbeats.
_REQUESTS = REGISTRY.counter(
    "repro_cache_requests_total", "Cache fill lookups, by outcome (hit/miss)."
)
_EVICTIONS = REGISTRY.counter(
    "repro_cache_evictions_total", "Cache entries evicted (poisoned or pruned)."
)
_PUBLISHES = REGISTRY.counter(
    "repro_cache_publishes_total", "Cell results published into the cache."
)

#: Summary fields that name *where* a result ran rather than *what* it
#: computed.  They are stripped before a summary enters the cache and
#: re-derived from the destination cell when an entry fills one, so a hit
#: is indistinguishable from a local execution of that cell.
_IDENTITY_FIELDS = ("run_id", "shard", "config_name", "seed_index")
#: Summary fields that measure one execution: its wall time and timing
#: ledgers.  They stay out of the cache too, so every publisher of a cell
#: writes the same entry bytes; a fill reports ``wall_seconds`` as 0.0
#: and no ledger records (nothing was executed).
_RUN_FIELDS = ("wall_seconds", "host_ledger", "kernel_ledger")


def is_cacheable(cell: CellSpec) -> bool:
    """Whether a cell's result is a pure function of its own coordinates."""
    return cell.migration is None


def cell_cache_key(cell: CellSpec) -> str:
    """Canonical content-address of one cell's result (sha256 hex).

    The key hashes the workload coordinates only:

    * ``target`` — the benchmark target name;
    * ``config`` — every :class:`~repro.config.SamplingConfig` field
      *except* ``seed`` (the trajectory runs under the cell's derived
      seed; the config's own seed field is inert in campaign execution);
    * ``seed`` — the derived cell seed, which already encodes the
      campaign's ``base_seed`` and the cell's workload coordinates
      (axis-order invariantly, via
      :func:`~repro.runtime.spec.campaign_cell_seed`);
    * ``backend`` — the *canonical* registry name, so alias spellings
      (``gpu`` vs ``cpu-gpu``) share one entry.

    Deliberately excluded: campaign id, flat index, ``config_name`` and
    ``seed_index`` labels (two campaigns may label the same workload
    differently), ``checkpoint_every`` (checkpoint cadence never changes
    results — resume is bit-identical), and worker counts.  JSON is
    rendered with sorted keys, so dict insertion order cannot perturb the
    hash.
    """
    config = dataclasses.asdict(cell.config)
    config.pop("seed", None)
    document = {
        "format_version": CACHE_FORMAT_VERSION,
        "target": cell.target,
        "config": config,
        "seed": int(cell.seed),
        "backend": BACKENDS.canonical(cell.backend),
    }
    blob = json.dumps(document, sort_keys=True).encode("utf8")
    return hashlib.sha256(blob).hexdigest()


class ResultCache:
    """File-system backed, content-addressed store of finished cells."""

    ENTRY_NAME = "entry.json"
    RESULT_NAME = "result.json"
    DECOYS_NAME = "decoys.npz"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        #: Per-instance lifetime counters (telemetry — the daemon prints
        #: them in its end-of-drain summary and ships them in heartbeats).
        self.stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "publishes": 0,
        }

    def entry_dir(self, key: str) -> Path:
        """Directory of one cache entry (two-level fan-out by key prefix)."""
        return self.root / key[:2] / key

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------

    def has(self, key: str) -> bool:
        """Whether a (terminally written) entry exists for ``key``."""
        return (self.entry_dir(key) / self.ENTRY_NAME).is_file()

    def publish(
        self, store: RunStore, cell: CellSpec, key: Optional[str] = None
    ) -> bool:
        """Copy a completed cell's result into the cache.

        Returns ``True`` if this call created the entry, ``False`` when
        the entry already existed (the common case under overlapping
        campaigns — first writer wins, and every writer would write the
        identical bytes anyway), the cell is not cacheable, or its result
        files are not on disk yet.
        """
        if not is_cacheable(cell):
            return False
        if not store.has_shard_result(cell.run_id, cell.index):
            return False
        key = key if key is not None else cell_cache_key(cell)
        entry = self.entry_dir(key)
        if (entry / self.ENTRY_NAME).is_file():
            return False
        shard_dir = store.shard_dir(cell.run_id, cell.index)
        try:
            blob = (shard_dir / self.DECOYS_NAME).read_bytes()
            summary = json.loads((shard_dir / self.RESULT_NAME).read_text())
        except (OSError, ValueError):
            return False
        for field in _IDENTITY_FIELDS + _RUN_FIELDS:
            summary.pop(field, None)
        write_bytes_atomic(entry / self.DECOYS_NAME, blob)
        write_json_atomic(entry / self.RESULT_NAME, summary)
        # Terminal marker last: an entry is only visible once its payload
        # is fully on disk, and the recorded hash lets fills verify it.
        write_json_atomic(
            entry / self.ENTRY_NAME,
            {
                "format_version": CACHE_FORMAT_VERSION,
                "key": key,
                "target": cell.target,
                "backend": cell.backend,
                "seed": int(cell.seed),
                "npz_sha256": hashlib.sha256(blob).hexdigest(),
                "n_decoys": int(summary.get("n_decoys", 0)),
            },
        )
        self.stats["publishes"] += 1
        _PUBLISHES.inc()
        return True

    # ------------------------------------------------------------------
    # Fills
    # ------------------------------------------------------------------

    def _load_verified(self, key: str) -> Optional[Dict[str, Any]]:
        """Entry payload ``{summary, blob}`` if intact, else ``None``."""
        entry = self.entry_dir(key)
        try:
            marker = json.loads((entry / self.ENTRY_NAME).read_text())
            blob = (entry / self.DECOYS_NAME).read_bytes()
            summary = json.loads((entry / self.RESULT_NAME).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(marker, dict) or not isinstance(summary, dict):
            return None
        if hashlib.sha256(blob).hexdigest() != marker.get("npz_sha256"):
            return None
        if "distinctness_threshold" not in summary:
            return None
        return {"summary": summary, "blob": blob}

    def _evict(self, key: str) -> None:
        """Best-effort removal of a poisoned entry (marker first)."""
        entry = self.entry_dir(key)
        for name in (self.ENTRY_NAME, self.RESULT_NAME, self.DECOYS_NAME):
            try:
                (entry / name).unlink()
            except OSError:
                pass
        # Counted here (not in _remove_entry, which delegates to this
        # method) so poisoned-entry and prune evictions tally exactly once.
        self.stats["evictions"] += 1
        _EVICTIONS.inc()

    # ------------------------------------------------------------------
    # Pruning
    # ------------------------------------------------------------------

    def _remove_entry(self, key: str) -> None:
        """Remove one entry completely (marker first), best-effort.

        The marker goes first so a concurrent reader sees a clean miss
        (which falls back to execution — always correct) rather than a
        poisoned entry.  Leftover files (interrupted writers' temp files)
        and the emptied fan-out directories are swept afterwards.
        """
        entry = self.entry_dir(key)
        self._evict(key)
        try:
            for leftover in sorted(entry.iterdir()):
                leftover.unlink()
            entry.rmdir()
            entry.parent.rmdir()  # only succeeds once the shard is empty
        except OSError:
            pass

    def prune(
        self,
        max_age_days: Optional[float] = None,
        max_entries: Optional[int] = None,
        now: Optional[float] = None,
    ) -> int:
        """Evict cache entries by age and count; returns how many went.

        Recency is the mtime of an entry's terminal marker
        (``entry.json``, written last and atomically):

        * ``max_age_days`` — entries whose marker is older are removed;
        * ``max_entries`` — the newest N complete entries survive, the
          rest are removed (LRU by marker mtime, ties broken by key so
          the outcome is deterministic).

        Directories *without* a marker are half-written entries: either a
        publisher is mid-write right now or one crashed.  They are never
        counted against ``max_entries`` and are removed only by the age
        criterion (judged by their newest file), so an in-flight publish
        is never swept out from under its writer.  ``now`` overrides the
        wall clock for tests.  Both limits ``None`` is a no-op.
        """
        if max_age_days is None and max_entries is None:
            return 0
        if now is None:
            import time

            now = time.time()
        if not self.root.is_dir():
            return 0

        complete = []  # (marker_mtime, key)
        doomed = set()
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                if not entry.is_dir():
                    continue
                try:
                    mtime = (entry / self.ENTRY_NAME).stat().st_mtime
                except OSError:
                    if max_age_days is not None:
                        try:
                            newest = max(
                                (f.stat().st_mtime for f in entry.iterdir()),
                                default=0.0,
                            )
                        except OSError:
                            continue
                        if now - newest > max_age_days * 86400.0:
                            doomed.add(entry.name)
                    continue
                complete.append((mtime, entry.name))

        if max_age_days is not None:
            cutoff = now - max_age_days * 86400.0
            doomed.update(key for mtime, key in complete if mtime < cutoff)
        if max_entries is not None:
            survivors = sorted(
                (item for item in complete if item[1] not in doomed),
                key=lambda item: (-item[0], item[1]),
            )
            doomed.update(key for _, key in survivors[max_entries:])

        for key in sorted(doomed):
            self._remove_entry(key)
        return len(doomed)

    def fill(
        self, store: RunStore, cell: CellSpec, key: Optional[str] = None
    ) -> Optional[Dict[str, Any]]:
        """Materialise a cached result as the cell's own, if cached.

        On a hit the cell's shard directory receives the decoy arrays and
        a summary re-identified with the cell's coordinates, its status
        document flips to ``done`` (tagged ``cache_hit``), and the
        standard ``cell-done`` journal record is appended — byte-for-byte
        the record an execution would have appended, so canonical-journal
        equality holds across cached and uncached drains.  Returns the
        summary, or ``None`` on a miss (including a poisoned entry, which
        is evicted and falls back to execution).
        """
        if not is_cacheable(cell):
            return None
        if store.has_shard_result(cell.run_id, cell.index):
            return store.load_shard_summary(cell.run_id, cell.index)
        key = key if key is not None else cell_cache_key(cell)
        if not self.has(key):
            self.stats["misses"] += 1
            _REQUESTS.inc(outcome="miss")
            return None
        payload = self._load_verified(key)
        if payload is None:
            self._evict(key)
            self.stats["misses"] += 1
            _REQUESTS.inc(outcome="miss")
            return None
        self.stats["hits"] += 1
        _REQUESTS.inc(outcome="hit")
        summary = dict(payload["summary"])
        summary["run_id"] = cell.run_id
        summary["shard"] = cell.index
        summary["config_name"] = cell.config_name
        summary["seed_index"] = cell.seed_index
        summary["wall_seconds"] = 0.0
        shard_dir = store.shard_dir(cell.run_id, cell.index)
        write_bytes_atomic(shard_dir / self.DECOYS_NAME, payload["blob"])
        write_json_atomic(shard_dir / self.RESULT_NAME, summary)
        n_decoys = int(summary.get("n_decoys", 0))
        store.write_shard_status(
            cell.run_id,
            cell.index,
            state="done",
            iteration=cell.config.iterations,
            iterations=cell.config.iterations,
            target=cell.target,
            backend=cell.backend,
            seed=cell.seed,
            n_decoys=n_decoys,
            cache_hit=True,
            cache_key=key,
        )
        store.append_journal(
            cell.run_id,
            {
                "type": "cell-done",
                "shard": cell.index,
                "target": cell.target,
                "n_decoys": n_decoys,
            },
        )
        return summary
