"""Lease-based cell claiming: many daemons, one store, no new IPC.

Every daemon that drains a shared :class:`~repro.runtime.store.RunStore`
races for pending cells through *lease files* — one ``lease.json`` next
to each cell's status document.  The protocol needs exactly three
filesystem guarantees, all of which hold on local filesystems and NFS:

1. **Claim** — ``O_CREAT | O_EXCL`` creation
   (:func:`repro.io.create_json_exclusive`): of N daemons racing for a
   cell, exactly one creates the lease and owns the cell.
2. **Renewal** — the owner periodically rewrites its lease atomically
   (heartbeat timestamp + TTL).  Renewal happens from the drain loop's
   tick callback — fired while a cell runs, inline cells included — so a
   live daemon's leases never age past the TTL, however long its cells.
3. **Takeover** — a lease whose heartbeat is older than its TTL belongs
   to a dead (or wedged) daemon.  Takeover renames the *specific stale
   file* to a per-daemon tombstone — ``os.replace`` fails with
   ``FileNotFoundError`` if another daemon renamed it first, so exactly
   one racer wins the right to re-claim; the winner then goes back
   through the exclusive create (and may legitimately lose *that* race
   to a third daemon — there is still never more than one live lease).

Correctness never rests on the leases.  Cell execution is idempotent,
checkpointed and deterministic, and every durable artefact is written
atomically with byte-identical content — so the worst case of a daemon
stalling past its TTL (both it and the usurper execute the cell) is
wasted compute, not corruption.  Leases exist to make N-daemon drains
*efficient* (cells execute once), not to make them *correct*; that is
why the kill-and-redrain equality tests pass whatever the daemon count.

Lease files are transient coordination metadata, like status documents:
they carry wall-clock heartbeats and are never replay-compared, never
journaled, and deleted on release.  Nothing a lease contains can reach a
journal payload, a ledger or a checkpoint (lint rule REP004 patrols this
package too).
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.io import create_json_exclusive, write_json_atomic
from repro.obs.fleet import default_daemon_id
from repro.obs.metrics import REGISTRY
from repro.runtime.store import RunStore

__all__ = ["DEFAULT_TTL_SECONDS", "Lease", "LeaseManager", "default_daemon_id"]

#: Lease document layout version.
LEASE_FORMAT_VERSION: int = 1

# Lease telemetry (see repro.obs.metrics): claim races, stale takeovers
# and releases, rendered at GET /v1/metrics on repro-serve.
_CLAIMS = REGISTRY.counter(
    "repro_lease_claims_total", "Lease claim attempts, by outcome (won/lost)."
)
_TAKEOVERS = REGISTRY.counter(
    "repro_lease_takeovers_total", "Stale leases taken over from dead daemons."
)
_RELEASES = REGISTRY.counter(
    "repro_lease_releases_total", "Held leases released."
)

#: Default seconds a lease stays valid without a heartbeat renewal.  Must
#: comfortably exceed the renewal cadence (the drain loop renews at TTL/3)
#: but stay small enough that a crashed daemon's cells are re-claimable
#: within one polling generation.
DEFAULT_TTL_SECONDS: float = 30.0


# default_daemon_id is re-exported from repro.obs.fleet so leases and
# heartbeats name the same daemon.  Uniqueness is best-effort — lease
# safety comes from the exclusive create, not from the identity; a
# pid-reuse collision at worst makes a daemon renew a namesake's lease,
# which (execution being idempotent and writes atomic) costs duplicate
# compute, never correctness.


@dataclasses.dataclass(frozen=True)
class Lease:
    """One parsed lease file."""

    run_id: str
    index: int
    daemon: str
    heartbeat: float
    ttl: float

    def stale(self, now: float) -> bool:
        """Whether the lease's heartbeat has aged past its TTL."""
        return (now - self.heartbeat) >= self.ttl


class LeaseManager:
    """Claims, renews and releases the cell leases of one daemon.

    One manager per daemon process.  The manager tracks which leases it
    holds; :meth:`renew_all` is wired into the executor's tick callback
    so heartbeats advance while cells execute, and :meth:`release` /
    :meth:`release_all` delete the files the moment the cells finish (or
    park), so waiting islands become claimable by whichever daemon drains
    their sources.
    """

    def __init__(
        self,
        store: RunStore,
        daemon_id: Optional[str] = None,
        ttl_seconds: float = DEFAULT_TTL_SECONDS,
    ) -> None:
        if ttl_seconds <= 0.0:
            raise ValueError("lease ttl_seconds must be positive")
        self.store = store
        self.daemon_id = daemon_id if daemon_id else default_daemon_id()
        self.ttl_seconds = float(ttl_seconds)
        self._held: Dict[Tuple[str, int], Path] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def held(self) -> List[Tuple[str, int]]:
        """The ``(run_id, index)`` pairs this manager currently holds."""
        return sorted(self._held)

    def holds(self, run_id: str, index: int) -> bool:
        """Whether this manager holds the lease of one cell."""
        return (run_id, int(index)) in self._held

    def read(self, run_id: str, index: int) -> Optional[Lease]:
        """Parse the lease of a cell, or ``None`` if absent/corrupt.

        A corrupt lease (a reader racing the single-write create, or a
        daemon killed between create and write) is aged by file mtime: it
        still blocks claiming until the TTL passes, then is taken over
        like any stale lease.
        """
        path = self.store.lease_path(run_id, index)
        doc = self._read_document(path)
        if doc is None:
            return None
        return Lease(
            run_id=run_id,
            index=int(index),
            daemon=str(doc.get("daemon", "")),
            heartbeat=float(doc["heartbeat"]),
            ttl=float(doc.get("ttl", self.ttl_seconds)),
        )

    def _read_document(self, path: Path) -> Optional[Dict[str, Any]]:
        import json

        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError:
            return None
        try:
            doc = dict(json.loads(text))
            float(doc["heartbeat"])
            return doc
        except (ValueError, TypeError, KeyError):
            # Torn or empty lease: synthesise a document aged by mtime so
            # staleness handling is uniform.
            try:
                mtime = path.stat().st_mtime
            except OSError:
                return None
            return {"daemon": "", "heartbeat": mtime, "ttl": self.ttl_seconds}

    # ------------------------------------------------------------------
    # The protocol
    # ------------------------------------------------------------------

    def _payload(self) -> Dict[str, Any]:
        now = time.time()
        return {
            "format_version": LEASE_FORMAT_VERSION,
            "daemon": self.daemon_id,
            "pid": os.getpid(),
            "heartbeat": now,
            "ttl": self.ttl_seconds,
        }

    def claim(self, run_id: str, index: int) -> bool:
        """Try to claim one cell; returns ``True`` on ownership.

        Exactly one of N concurrent claimants succeeds.  A lease held by
        a daemon whose heartbeat aged past its TTL is taken over (single
        winner via the tombstone rename); a live foreign lease — or a
        lost race at any step — returns ``False`` and the cell is simply
        somebody else's this pass.
        """
        index = int(index)
        key = (run_id, index)
        path = self.store.lease_path(run_id, index)
        if key in self._held:
            self.renew(run_id, index)
            return True
        for _attempt in (0, 1):
            if create_json_exclusive(path, self._payload()):
                self._held[key] = path
                _CLAIMS.inc(outcome="won")
                return True
            doc = self._read_document(path)
            if doc is None:
                # Deleted between our create attempt and read: retry once.
                continue
            now = time.time()
            heartbeat = float(doc["heartbeat"])
            ttl = float(doc.get("ttl", self.ttl_seconds))
            if (now - heartbeat) < ttl:
                _CLAIMS.inc(outcome="lost")
                return False
            if not self._remove_stale(path):
                _CLAIMS.inc(outcome="lost")
                return False
        _CLAIMS.inc(outcome="lost")
        return False

    def _remove_stale(self, path: Path) -> bool:
        """Rename a stale lease away; ``True`` iff this daemon won the race."""
        tombstone = path.with_name(f"{path.name}.stale-{self.daemon_id}")
        try:
            os.replace(path, tombstone)
        except FileNotFoundError:
            return False
        except OSError:
            return False
        try:
            tombstone.unlink()
        except OSError:  # pragma: no cover - cleanup is best-effort
            pass
        _TAKEOVERS.inc()
        return True

    def renew(self, run_id: str, index: int) -> None:
        """Refresh the heartbeat of one held lease (atomic rewrite)."""
        key = (run_id, int(index))
        path = self._held.get(key)
        if path is None:
            return
        payload = self._payload()
        write_json_atomic(path, payload)

    def renew_all(self) -> None:
        """Refresh every held lease — the drain loop's tick callback."""
        for run_id, index in self.held:
            self.renew(run_id, index)

    def release(self, run_id: str, index: int) -> None:
        """Drop one lease: delete the file if still ours, forget it anyway.

        If the lease was usurped while we stalled (TTL elapsed), the file
        now names another daemon and is left alone.  The read-then-unlink
        window is unsynchronised, but deleting a live lease only makes the
        cell momentarily claimable again — idempotent execution absorbs
        the duplicate work.
        """
        key = (run_id, int(index))
        path = self._held.pop(key, None)
        if path is None:
            return
        _RELEASES.inc()
        doc = self._read_document(path)
        if doc is not None and doc.get("daemon") == self.daemon_id:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - already gone
                pass

    def release_all(self) -> None:
        """Drop every held lease (end of a drain pass, daemon shutdown)."""
        for run_id, index in self.held:
            self.release(run_id, index)
