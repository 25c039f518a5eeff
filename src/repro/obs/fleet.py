"""Daemon heartbeats and the aggregated fleet view.

Every ``repro-daemon`` writes one small heartbeat document after each
drain pass, under the store it drains::

    <store root>/.fleet/<daemon slug>/heartbeat.json

The store stays the only coordination substrate — no new sockets, no
registry service: point N daemons and one ``repro-serve`` at a directory
and ``GET /v1/fleet`` (or ``repro-top``) sees the whole fleet.

Heartbeats are pure telemetry on the status channel: they carry
wall-clock stamps, pids and per-daemon metric snapshots, and are
rewritten freely (atomic whole-document replace, like ``status.json``).
They are never replay-compared, never journaled and never part of a
cache key; a vanished or stale heartbeat means "daemon gone", nothing
more.  The wall-clock payload is built outside the write call
(:func:`_heartbeat_payload`), keeping REP004's payload-writer rule
trivially satisfied, exactly like the lease heartbeats.

The store parameter is duck-typed (anything with a ``root`` path —
a :class:`~repro.runtime.store.RunStore` in practice) so this module
stays in the bottom layering band and every layer above may import it.
"""

from __future__ import annotations

import os
import re
import socket
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro.io import write_json_atomic

if TYPE_CHECKING:
    from repro.runtime.store import RunStore

__all__ = [
    "FLEET_DIR_NAME",
    "HEARTBEAT_FORMAT_VERSION",
    "HEARTBEAT_NAME",
    "DEFAULT_STALE_SECONDS",
    "default_daemon_id",
    "fleet_snapshot",
    "heartbeat_path",
    "host_slots",
    "read_heartbeats",
    "write_heartbeat",
]

#: Heartbeat document layout version.
HEARTBEAT_FORMAT_VERSION: int = 1

#: Directory (under the store root) holding one subdirectory per daemon.
FLEET_DIR_NAME: str = ".fleet"

#: The heartbeat filename; a transient status-channel file, listed with
#: status.json and lease.json in the durable write-order test.
HEARTBEAT_NAME: str = "heartbeat.json"

#: Seconds after which a daemon without a fresh heartbeat counts as gone.
#: Generous: a daemon mid-pass writes only *between* passes, so the
#: threshold must cover a long pass plus the poll interval.
DEFAULT_STALE_SECONDS: float = 120.0


def default_daemon_id() -> str:
    """A daemon identity derived from host and pid (best-effort unique)."""
    return f"{socket.gethostname()}.{os.getpid()}"


def _slug(daemon_id: str) -> str:
    """A filesystem-safe directory name for one daemon identity."""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", daemon_id).strip("-") or "daemon"


def _store_root(store: Union["RunStore", str, Path]) -> Path:
    # Paths and strings pass through; anything else is store-like and
    # names its directory via `.root`.  (Path objects must not take the
    # getattr branch: `Path.root` is the filesystem anchor `"/"`.)
    if isinstance(store, (str, Path)):
        return Path(store)
    return Path(store.root)


def heartbeat_path(
    store: Union["RunStore", str, Path], daemon_id: str
) -> Path:
    """Where one daemon's heartbeat lives under the store."""
    return _store_root(store) / FLEET_DIR_NAME / _slug(daemon_id) / HEARTBEAT_NAME


def _heartbeat_payload(
    daemon_id: str,
    workers: Optional[int],
    cycle: int,
    report: Optional[Dict[str, Any]],
    cache_stats: Optional[Dict[str, int]],
    metrics: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    """The heartbeat document, wall-clock stamp included.

    Built outside any write call on purpose: wall-clock readings stay
    lexically clear of payload-writer arguments (lint rule REP004 — the
    same shape the lease manager uses for its heartbeats).
    """
    payload: Dict[str, Any] = {
        "format_version": HEARTBEAT_FORMAT_VERSION,
        "daemon": daemon_id,
        "host": socket.gethostname(),
        "pid": os.getpid(),
        "heartbeat": time.time(),
        "workers": workers,
        "cycle": int(cycle),
    }
    if report is not None:
        payload["report"] = dict(report)
    if cache_stats is not None:
        payload["cache"] = dict(cache_stats)
    if metrics is not None:
        payload["metrics"] = dict(metrics)
    return payload


def write_heartbeat(
    store: Union["RunStore", str, Path],
    daemon_id: str,
    workers: Optional[int] = None,
    cycle: int = 0,
    report: Optional[Dict[str, Any]] = None,
    cache_stats: Optional[Dict[str, int]] = None,
    metrics: Optional[Dict[str, Any]] = None,
) -> Path:
    """Atomically (re)write one daemon's heartbeat; returns its path.

    ``report`` is a drain-report summary (counts per outcome),
    ``cache_stats`` the result cache's hit/miss/eviction counters and
    ``metrics`` a flat metrics snapshot
    (:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`) — all optional,
    all telemetry.
    """
    path = heartbeat_path(store, daemon_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = _heartbeat_payload(
        daemon_id, workers, cycle, report, cache_stats, metrics
    )
    write_json_atomic(path, payload)
    return path


def read_heartbeats(
    store: Union["RunStore", str, Path]
) -> List[Dict[str, Any]]:
    """Every parseable heartbeat under the store, sorted by daemon slug.

    Unreadable or torn documents are skipped — a heartbeat promises
    nothing; the daemon will rewrite it after its next pass.
    """
    import json

    fleet_dir = _store_root(store) / FLEET_DIR_NAME
    if not fleet_dir.is_dir():
        return []
    heartbeats: List[Dict[str, Any]] = []
    for entry in sorted(fleet_dir.iterdir()):
        path = entry / HEARTBEAT_NAME
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(document, dict) and "heartbeat" in document:
            heartbeats.append(document)
    return heartbeats


def host_slots(store: Union["RunStore", str, Path], workers: int) -> int:
    """Cells running at once on this host: this process's ``workers``
    plus the ``workers`` of every live sibling heartbeat from the same
    host (this process's own heartbeat is the ``workers`` term).  The
    member-thread share of a leased daemon's cells is cut from this."""
    now, host, pid = time.time(), socket.gethostname(), os.getpid()
    slots = int(workers)
    for document in read_heartbeats(store):
        if document.get("host") != host or document.get("pid") == pid:
            continue
        if now - float(document.get("heartbeat", 0.0)) < DEFAULT_STALE_SECONDS:
            slots += int(document.get("workers") or 0)
    return slots


def _sum_counts(totals: Dict[str, float], series: Dict[str, Any]) -> None:
    for key, value in series.items():
        if isinstance(value, (int, float)):
            totals[key] = totals.get(key, 0.0) + float(value)


def fleet_snapshot(
    store: Union["RunStore", str, Path],
    stale_seconds: float = DEFAULT_STALE_SECONDS,
    now: Optional[float] = None,
) -> Dict[str, Any]:
    """Aggregate every daemon heartbeat into one fleet document.

    Each daemon entry gains ``age_seconds`` and ``alive`` (heartbeat
    younger than ``stale_seconds``); ``totals`` sums the numeric drain
    and cache counters across *live* daemons.  ``now`` overrides the
    wall clock for tests.
    """
    if now is None:
        now = time.time()
    daemons: List[Dict[str, Any]] = []
    workers = 0
    report_totals: Dict[str, float] = {}
    cache_totals: Dict[str, float] = {}
    for document in read_heartbeats(store):
        age = max(0.0, now - float(document.get("heartbeat", 0.0)))
        alive = age < stale_seconds
        entry = dict(document)
        entry["age_seconds"] = age
        entry["alive"] = alive
        daemons.append(entry)
        if not alive:
            continue
        workers += int(document.get("workers") or 0)
        _sum_counts(report_totals, document.get("report", {}))
        _sum_counts(cache_totals, document.get("cache", {}))
    return {
        "n_daemons": len(daemons),
        "n_alive": sum(1 for d in daemons if d["alive"]),
        "workers": workers,
        "daemons": daemons,
        "totals": {"report": report_totals, "cache": cache_totals},
    }
