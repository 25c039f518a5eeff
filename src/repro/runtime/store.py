"""Persistent on-disk run store.

Directory layout (everything under one *store root*)::

    <root>/
      <run_id>/
        manifest.json                  # CampaignManifest (spec + cell table)
        journal.jsonl                  # append-only cell/migration events
        shards/
          shard-0000/
            status.json                # {"state", "iteration", ...}
            checkpoint.npz / .json     # latest sampler checkpoint
            decoys.npz                 # harvested decoy set (on completion)
            result.json                # shard summary + timing ledgers
          shard-0001/ ...

Shard files are only ever written by the worker that owns the shard and
every JSON write is temp-file + atomic rename, so concurrent workers never
interleave partial writes.  The store is intentionally dumb — all policy
(scheduling, resuming, aggregating) lives in the executor and the API.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.io import write_json_atomic, write_npz_atomic
from repro.moscem.decoys import Decoy, DecoySet
from repro.runtime.spec import (
    CAMPAIGN_FORMAT_VERSION,
    Campaign,
    CampaignManifest,
    shard_name,
)
from repro.utils.timing import TimingLedger

__all__ = ["RunStore", "RunStoreError"]

#: ``format_version`` of the retired single-target manifests, still
#: recognised so that loading one fails with a migration hint.
_SINGLE_TARGET_FORMAT_VERSION = 1


class RunStoreError(RuntimeError):
    """A run store operation failed (missing run, clashing run id, ...)."""


def _read_json(path: Path) -> Dict[str, Any]:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise
    except (ValueError, OSError) as exc:
        raise RunStoreError(f"unreadable store file {path}: {exc}") from exc


class RunStore:
    """File-system backed store of runs, shards, checkpoints and results."""

    MANIFEST_NAME = "manifest.json"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def run_dir(self, run_id: str) -> Path:
        """Directory of one run."""
        return self.root / run_id

    def shard_dir(self, run_id: str, index: int) -> Path:
        """Directory of one shard of a run."""
        return self.run_dir(run_id) / "shards" / shard_name(index)

    def lease_path(self, run_id: str, index: int) -> Path:
        """The claim-lease file of one cell (see :mod:`repro.serve.leases`).

        The store only names the path; the lease protocol (exclusive
        create, heartbeat renewal, stale takeover) lives entirely in the
        serve layer.  Leases are transient coordination metadata — like
        status documents, they carry wall-clock heartbeats and are never
        replay-compared.
        """
        return self.shard_dir(run_id, index) / "lease.json"

    # ------------------------------------------------------------------
    # Runs and manifests
    # ------------------------------------------------------------------

    def list_runs(self) -> List[str]:
        """Identifiers of every run in the store, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if (entry / self.MANIFEST_NAME).is_file()
        )

    def create_run(
        self, spec: Campaign, exist_ok: bool = False
    ) -> CampaignManifest:
        """Register a campaign: write its manifest and cell directories."""
        manifest = spec.manifest()
        manifest_path = self.run_dir(spec.run_id) / self.MANIFEST_NAME
        if manifest_path.exists():
            if not exist_ok:
                raise RunStoreError(
                    f"run {spec.run_id!r} already exists in {self.root}"
                )
            existing = self.load_manifest(spec.run_id)
            if existing.spec != spec:
                raise RunStoreError(
                    f"run {spec.run_id!r} exists with a different spec; "
                    "choose a new run id"
                )
            return existing
        for cell in spec.cells():
            self.shard_dir(spec.run_id, cell.index).mkdir(
                parents=True, exist_ok=True
            )
        write_json_atomic(manifest_path, manifest.to_dict())
        return manifest

    def load_manifest(self, run_id: str) -> CampaignManifest:
        """Load the manifest of ``run_id`` (raises if absent or invalid).

        Only campaign manifests (``format_version`` 2) are readable.  A
        version-1 manifest comes from the retired single-target batch CLI;
        it raises with instructions instead of loading, so the daemon skips
        the run and keeps draining the rest of the store.
        """
        path = self.run_dir(run_id) / self.MANIFEST_NAME
        try:
            payload = _read_json(path)
        except FileNotFoundError:
            raise RunStoreError(
                f"unknown run {run_id!r} in store {self.root} "
                f"(available: {self.list_runs()})"
            ) from None
        version = int(payload.get("format_version", -1))
        if version == _SINGLE_TARGET_FORMAT_VERSION:
            raise RunStoreError(
                f"run {run_id!r} uses the single-target batch manifest format "
                "(format_version 1), which is no longer supported; re-submit "
                "it as a one-target campaign (repro-campaign submit)"
            )
        try:
            if version == CAMPAIGN_FORMAT_VERSION:
                return CampaignManifest.from_dict(payload)
            raise ValueError(f"unsupported manifest format_version {version}")
        except (KeyError, TypeError, ValueError) as exc:
            raise RunStoreError(f"invalid manifest for run {run_id!r}: {exc}") from exc

    # ------------------------------------------------------------------
    # Event journal
    # ------------------------------------------------------------------

    JOURNAL_NAME = "journal.jsonl"

    def journal_path(self, run_id: str) -> Path:
        """The append-only event journal of a run."""
        return self.run_dir(run_id) / self.JOURNAL_NAME

    def append_journal(self, run_id: str, record: Dict[str, Any]) -> None:
        """Append one event record to the run's journal.

        The journal is the *subscription* surface: workers append
        ``cell-done`` / ``cell-failed`` / ``migration`` events as they
        happen, and :meth:`CampaignHandle.watch` tails it instead of
        re-reading every cell's status document per poll tick.  Each
        record is one JSON line written in a single ``write`` call —
        well under ``PIPE_BUF``, so concurrent workers never interleave
        partial lines on POSIX.  The journal is an event *stream*, not
        the ledger: retried cells may append duplicate events, and a
        worker killed at the wrong instant may never append at all, so
        consumers must treat it as a hint and fall back to the store's
        ground truth (result files, migration event records).
        """
        path = self.journal_path(run_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True) + "\n"
        with open(path, "a", encoding="utf8") as handle:
            handle.write(line)

    def read_journal(
        self, run_id: str, offset: int = 0
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Events appended at or after byte ``offset``; returns a new offset.

        Only complete lines are consumed — a line still being appended is
        left for the next call, so tailing the journal never sees a torn
        record.  Feed the returned offset back in to resume the tail.
        """
        path = self.journal_path(run_id)
        if not path.is_file():
            return [], offset
        with open(path, "rb") as handle:
            handle.seek(offset)
            data = handle.read()
        records: List[Dict[str, Any]] = []
        consumed = 0
        for raw in data.splitlines(keepends=True):
            if not raw.endswith(b"\n"):
                break
            consumed += len(raw)
            text = raw.strip()
            if not text:
                continue
            try:
                records.append(json.loads(text.decode("utf8")))
            except (ValueError, UnicodeDecodeError) as exc:
                raise RunStoreError(
                    f"corrupt journal line in {path} at offset "
                    f"{offset + consumed - len(raw)}: {exc}"
                ) from exc
        return records, offset + consumed

    def canonical_journal(self, run_id: str) -> bytes:
        """The replay-invariant view of a run's journal: sorted unique lines.

        The raw journal is a *stream*: event order depends on worker
        scheduling, and a cell killed after its event but before its
        result (or one re-reaching a migration boundary on resume) can
        append the same record twice.  Every record's *content* is
        deterministic — journal payloads are wall-clock-free and carry no
        worker identity (lint rule REP004) — so sorting the lines and
        dropping duplicates yields bytes that are a pure function of the
        campaign spec.  This is the equality surface the N-daemon
        kill-and-redrain tests compare: one daemon or ten, killed or not,
        the canonical journal is byte-identical.
        """
        path = self.journal_path(run_id)
        if not path.is_file():
            return b""
        with open(path, "rb") as handle:
            data = handle.read()
        lines = {raw for raw in data.split(b"\n") if raw.strip()}
        return b"\n".join(sorted(lines)) + b"\n" if lines else b""

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------

    CANCEL_NAME = "cancelled.json"

    def mark_cancelled(self, run_id: str) -> None:
        """Flag a run so the daemon stops scheduling its pending cells.

        Cells already executing finish their current trajectory; cancelling
        is a scheduling decision, not a kill signal.
        """
        if not (self.run_dir(run_id) / self.MANIFEST_NAME).is_file():
            raise RunStoreError(
                f"unknown run {run_id!r} in store {self.root} "
                f"(available: {self.list_runs()})"
            )
        write_json_atomic(
            self.run_dir(run_id) / self.CANCEL_NAME, {"cancelled": True}
        )

    def is_cancelled(self, run_id: str) -> bool:
        """Whether a run has been flagged as cancelled."""
        return (self.run_dir(run_id) / self.CANCEL_NAME).is_file()

    # ------------------------------------------------------------------
    # Shard status
    # ------------------------------------------------------------------

    def write_shard_status(self, run_id: str, index: int, **fields: Any) -> None:
        """Atomically replace the status document of a shard."""
        write_json_atomic(
            self.shard_dir(run_id, index) / "status.json", dict(fields)
        )

    def read_shard_status(self, run_id: str, index: int) -> Dict[str, Any]:
        """Status document of a shard (``{"state": "pending"}`` if unwritten).

        Status is a status-channel file that promises nothing durable, so
        an unreadable one (truncated, not JSON) reads as absent too.
        """
        try:
            return _read_json(self.shard_dir(run_id, index) / "status.json")
        except (FileNotFoundError, RunStoreError):
            return {"state": "pending"}

    # ------------------------------------------------------------------
    # Shard traces (telemetry — status channel, never replay-compared)
    # ------------------------------------------------------------------

    def trace_path(self, run_id: str, index: int) -> Path:
        """The per-cell span-trace document (see :mod:`repro.obs.trace`).

        Like ``status.json``, a trace is transient telemetry: absent
        unless the cell was drained with tracing on, freely overwritten
        on re-drains, and never part of the replay-compared surface.
        """
        return self.shard_dir(run_id, index) / "trace.json"

    def save_shard_trace(
        self, run_id: str, index: int, document: Dict[str, Any]
    ) -> None:
        """Atomically replace the trace document of a shard."""
        path = self.trace_path(run_id, index)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_json_atomic(path, document)

    def has_shard_trace(self, run_id: str, index: int) -> bool:
        """Whether a shard has persisted a span trace."""
        return self.trace_path(run_id, index).is_file()

    def load_shard_trace(self, run_id: str, index: int) -> Dict[str, Any]:
        """The trace document of a shard (raises if never traced)."""
        try:
            return _read_json(self.trace_path(run_id, index))
        except FileNotFoundError:
            raise RunStoreError(
                f"shard {index} of run {run_id!r} has no trace "
                "(drain with tracing enabled)"
            ) from None

    # ------------------------------------------------------------------
    # Shard results
    # ------------------------------------------------------------------

    def save_shard_result(
        self,
        run_id: str,
        index: int,
        decoys: DecoySet,
        summary: Dict[str, Any],
        host_ledger: Optional[TimingLedger] = None,
        kernel_ledger: Optional[TimingLedger] = None,
    ) -> None:
        """Persist a completed shard: decoy arrays, summary and ledgers."""
        shard_dir = self.shard_dir(run_id, index)
        shard_dir.mkdir(parents=True, exist_ok=True)
        self._save_decoys(shard_dir / "decoys.npz", decoys)
        payload = dict(summary)
        payload["n_decoys"] = len(decoys)
        payload["distinctness_threshold"] = float(decoys.distinctness_threshold)
        payload["host_ledger"] = (host_ledger or TimingLedger()).to_dict()
        payload["kernel_ledger"] = (kernel_ledger or TimingLedger()).to_dict()
        write_json_atomic(shard_dir / "result.json", payload)

    def has_shard_result(self, run_id: str, index: int) -> bool:
        """Whether a shard has written its result files."""
        shard_dir = self.shard_dir(run_id, index)
        return (shard_dir / "result.json").is_file() and (
            shard_dir / "decoys.npz"
        ).is_file()

    def load_shard_summary(self, run_id: str, index: int) -> Dict[str, Any]:
        """The ``result.json`` document of a completed shard."""
        try:
            return _read_json(self.shard_dir(run_id, index) / "result.json")
        except FileNotFoundError:
            raise RunStoreError(
                f"shard {index} of run {run_id!r} has no result yet"
            ) from None

    def load_shard_result(
        self, run_id: str, index: int
    ) -> Tuple[Dict[str, Any], DecoySet, Dict[str, TimingLedger]]:
        """Summary, decoy set and timing ledgers of a completed shard.

        One ``result.json`` read serves all three views — bulk consumers
        (campaign results) should prefer this over the individual accessors.
        """
        summary = self.load_shard_summary(run_id, index)
        decoys = self._load_decoys(
            self.shard_dir(run_id, index) / "decoys.npz",
            float(summary["distinctness_threshold"]),
        )
        ledgers = {
            "host": TimingLedger.from_dict(summary.get("host_ledger", {})),
            "kernel": TimingLedger.from_dict(summary.get("kernel_ledger", {})),
        }
        return summary, decoys, ledgers

    def load_shard_decoys(self, run_id: str, index: int) -> DecoySet:
        """The decoy set a completed shard harvested."""
        return self.load_shard_result(run_id, index)[1]

    def load_shard_ledgers(
        self, run_id: str, index: int
    ) -> Dict[str, TimingLedger]:
        """Host and kernel timing ledgers of a completed shard."""
        return self.load_shard_result(run_id, index)[2]

    # ------------------------------------------------------------------
    # Decoy array round trip
    # ------------------------------------------------------------------

    @staticmethod
    def _save_decoys(path: Path, decoys: DecoySet) -> None:
        if len(decoys):
            arrays = {
                "torsions": np.stack([d.torsions for d in decoys]),
                "coords": np.stack([d.coords for d in decoys]),
                "scores": np.stack([d.scores for d in decoys]),
                "rmsd": np.array([d.rmsd for d in decoys], dtype=np.float64),
                "trajectory": np.array(
                    [d.trajectory for d in decoys], dtype=np.int64
                ),
            }
        else:
            arrays = {
                "torsions": np.zeros((0, 0)),
                "coords": np.zeros((0, 0, 4, 3)),
                "scores": np.zeros((0, 0)),
                "rmsd": np.zeros(0),
                "trajectory": np.zeros(0, dtype=np.int64),
            }
        write_npz_atomic(path, arrays)

    @staticmethod
    def _load_decoys(path: Path, distinctness_threshold: float) -> DecoySet:
        """The decoy set of ``path``; each array is read from the archive
        once, and every decoy gets its own row copies."""
        try:
            with np.load(path) as data:
                torsions, coords, scores, rmsd, trajectory = (
                    data[name]
                    for name in ("torsions", "coords", "scores", "rmsd", "trajectory")
                )
        except (zipfile.BadZipFile, KeyError, ValueError, OSError) as exc:
            raise RunStoreError(f"unreadable decoy file {path}: {exc}") from exc
        decoys = DecoySet(distinctness_threshold=distinctness_threshold)
        for i in range(rmsd.shape[0]):
            decoys.absorb(
                Decoy(
                    torsions=np.array(torsions[i], dtype=np.float64),
                    coords=np.array(coords[i], dtype=np.float64),
                    scores=np.array(scores[i], dtype=np.float64),
                    rmsd=float(rmsd[i]),
                    trajectory=int(trajectory[i]),
                )
            )
        return decoys
