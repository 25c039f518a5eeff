"""Sessions and campaign handles: the API's execution surface.

A :class:`Session` binds a run store and turns declarative
:class:`~repro.runtime.spec.Campaign` grids into results two ways:

* :meth:`Session.submit` — asynchronous: persist the manifest and return
  a :class:`CampaignHandle` immediately.  A ``repro-daemon`` process (or
  :func:`repro.api.daemon.drain_once`) executes the pending cells; the
  handle polls the store for :meth:`~CampaignHandle.status`,
  :meth:`~CampaignHandle.result` and :meth:`~CampaignHandle.cancel`;
* :meth:`Session.run` — synchronous: the same submission followed by
  in-process :func:`~repro.api.daemon.drain_once` passes over this one
  campaign until every cell has a result (checkpointed cells resume),
  returning a typed :class:`~repro.api.results.CampaignResult`.

Both reach cells through the one drain path, and submission and execution
share the store as their only coupling, so the submitting process, the
daemon and any number of status watchers can live in different processes
(or outlive each other) without coordination.
"""

from __future__ import annotations

import numbers
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.api import daemon
from repro.config import RuntimeConfig
from repro.runtime.executor import ShardFailure
from repro.runtime.spec import Campaign, shard_name
from repro.runtime.store import RunStore
from repro.api.results import CampaignResult, TrajectoryResult
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # runtime import stays lazy — repro.api must not pull
    from repro.serve.cache import ResultCache  # the serve stack eagerly

__all__ = [
    "Session",
    "CampaignHandle",
    "CampaignStatus",
    "CellStatus",
    "CampaignError",
    "CampaignIncomplete",
    "CampaignTooLarge",
]

_DEFAULTS = RuntimeConfig()

_LOGGER = get_logger("api.session")

#: Peak bytes of a running cell per byte of its population arrays (2n
#: float64 torsions plus 4n x 3 float64 backbone coordinates per member).
#: Measured with ``tracemalloc`` on 1cex(40:51) (n = 12): 5.9x at
#: population 16,384 and 6.1x at 4,096, whatever the complex count.
_PEAK_COPIES = 8

#: Share of physical memory a single cell may plan to use.
_MEMORY_SHARE = 0.5


class CampaignError(RuntimeError):
    """A campaign operation failed."""


class CampaignIncomplete(CampaignError):
    """A result was requested before every cell completed."""


class CampaignTooLarge(CampaignError):
    """A cell's estimated peak memory exceeds this host's budget."""


def cell_peak_bytes(population_size: int, n_residues: int) -> int:
    """Estimated peak bytes of one cell from its population array shapes."""
    per_member = (2 * n_residues + 4 * n_residues * 3) * 8
    return _PEAK_COPIES * int(population_size) * per_member


def _memory_budget() -> Optional[int]:
    """Per-cell byte budget: half of physical memory (None if unknown)."""
    try:
        total = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None
    return int(total * _MEMORY_SHARE) if total > 0 else None


@dataclass(frozen=True)
class CellStatus:
    """Live state of one campaign cell, read from the store."""

    index: int
    target: str
    config_name: str
    seed_index: int
    backend: str
    state: str
    iteration: int
    iterations: int
    n_decoys: Optional[int] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class CampaignStatus:
    """Point-in-time view of a campaign's progress."""

    campaign_id: str
    cells: Tuple[CellStatus, ...]
    cancelled: bool = False

    @property
    def counts(self) -> Dict[str, int]:
        """Number of cells per state (``pending``/``running``/``done``/...)."""
        counts: Dict[str, int] = {}
        for cell in self.cells:
            counts[cell.state] = counts.get(cell.state, 0) + 1
        return counts

    @property
    def n_cells(self) -> int:
        """Total number of cells in the campaign."""
        return len(self.cells)

    @property
    def n_done(self) -> int:
        """Number of cells with results on disk."""
        return sum(1 for cell in self.cells if cell.state == "done")

    @property
    def complete(self) -> bool:
        """Whether every cell has a result."""
        return self.n_done == self.n_cells

    @property
    def failed(self) -> Tuple[CellStatus, ...]:
        """Cells whose last attempt errored (they stay drainable)."""
        return tuple(cell for cell in self.cells if cell.state == "failed")

    def render(self) -> str:
        """Plain-text table for the command-line ``status`` views."""
        lines = [
            f"campaign {self.campaign_id}: {self.n_done}/{self.n_cells} cells done"
            + (" (CANCELLED)" if self.cancelled else "")
        ]
        header = (
            f"{'cell':<12}{'target':<16}{'config':<12}{'seed':>4}  "
            f"{'backend':<14}{'state':<10}{'iteration':>10}{'decoys':>8}"
        )
        lines.append(header)
        for cell in self.cells:
            decoys = "" if cell.n_decoys is None else cell.n_decoys
            lines.append(
                f"{shard_name(cell.index):<12}{cell.target:<16}{cell.config_name:<12}"
                f"{cell.seed_index:>4}  {cell.backend:<14}{cell.state:<10}"
                f"{cell.iteration:>6}/{cell.iterations:<4}{decoys!s:>7}"
            )
        return "\n".join(lines)


class CampaignHandle:
    """A lightweight, store-backed reference to a submitted campaign.

    Handles hold no execution state: every method re-reads the store, so a
    handle constructed in a different process (or after a restart) behaves
    identically to the one ``submit`` returned.
    """

    def __init__(self, store: RunStore, campaign_id: str) -> None:
        self.store = store
        self.campaign_id = campaign_id
        self._spec: Optional[Campaign] = None

    @property
    def spec(self) -> Campaign:
        """The submitted spec, loaded (once) from the store manifest."""
        if self._spec is None:
            self._spec = self.store.load_manifest(self.campaign_id).spec
        return self._spec

    def status(self) -> CampaignStatus:
        """Poll the store for the live per-cell state."""
        cells: List[CellStatus] = []
        for cell in self.spec.cells():
            status = self.store.read_shard_status(self.campaign_id, cell.index)
            state = str(status.get("state", "pending"))
            iteration = int(status.get("iteration", 0) or 0)
            n_decoys = status.get("n_decoys")
            if self.store.has_shard_result(self.campaign_id, cell.index):
                # Result files are the ground truth; a worker killed between
                # writing them and its final status update still shows done.
                state = "done"
                iteration = cell.config.iterations
                if n_decoys is None:
                    n_decoys = self.store.load_shard_summary(
                        self.campaign_id, cell.index
                    ).get("n_decoys")
            cells.append(
                CellStatus(
                    index=cell.index,
                    target=cell.target,
                    config_name=cell.config_name,
                    seed_index=cell.seed_index,
                    backend=cell.backend,
                    state=state,
                    iteration=iteration,
                    iterations=cell.config.iterations,
                    n_decoys=None if n_decoys is None else int(n_decoys),
                    error=status.get("error"),
                )
            )
        return CampaignStatus(
            campaign_id=self.campaign_id,
            cells=tuple(cells),
            cancelled=self.store.is_cancelled(self.campaign_id),
        )

    def watch(
        self, timeout: Optional[float] = None, poll_seconds: float = 0.25
    ) -> Iterator[Dict[str, Any]]:
        """Yield store-journal events as workers append them.

        The subscription surface for long-running clients: instead of
        polling :meth:`result` (which re-reads every cell's status
        document per tick), ``watch`` tails the campaign's append-only
        journal and yields each ``cell-done`` / ``cell-failed`` /
        ``migration`` record once.  The generator terminates when every
        cell has completed, the campaign is cancelled, or the timeout
        elapses.  The journal is a stream, not the ledger — a worker
        killed at the wrong instant may never append its event — so a
        cheap status fall-back runs on quiet stretches to guarantee
        termination.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        n_cells = self.spec.n_trajectories
        done = set()
        offset = 0
        quiet = 0
        while True:
            records, offset = self.store.read_journal(self.campaign_id, offset)
            for record in records:
                if record.get("type") == "cell-done":
                    done.add(int(record.get("shard", -1)))
                yield record
            if len(done) >= n_cells:
                return
            # The deadline binds even while events keep flowing — a busy
            # campaign must not extend the caller's timeout.
            if deadline is not None and time.monotonic() >= deadline:
                return
            if records:
                quiet = 0
                continue
            quiet += 1
            # First quiet tick, then every eighth: ground-truth check for
            # completions whose journal append was lost to a kill.
            if quiet == 1 or quiet % 8 == 0:
                status = self.status()
                if status.complete or status.cancelled:
                    return
            time.sleep(poll_seconds)

    def wait(
        self, timeout: Optional[float] = None, poll_seconds: float = 0.25
    ) -> CampaignStatus:
        """Block until the campaign completes (or the timeout elapses).

        Subscribes through :meth:`watch` — one journal tail instead of a
        full per-cell status scan per tick — and returns the final status.
        """
        for _record in self.watch(timeout=timeout, poll_seconds=poll_seconds):
            pass
        return self.status()

    def result(
        self, timeout: Optional[float] = None, poll_seconds: float = 0.25
    ) -> CampaignResult:
        """The typed campaign result; raises if cells are still pending.

        With a ``timeout`` the handle polls the store until every cell
        completes (or raises :class:`CampaignIncomplete` at the deadline);
        without one it requires the campaign to be complete already.
        """
        status = (
            self.status() if timeout is None else self.wait(timeout, poll_seconds)
        )
        if not status.complete:
            raise CampaignIncomplete(
                f"campaign {self.campaign_id!r} has "
                f"{status.n_cells - status.n_done} unfinished cell(s) "
                f"(states: {status.counts})"
            )
        cells = self.spec.cells()
        # Only archipelagos pay the ledger scan: independent campaigns
        # (no cell carries an island plan) have a trivially empty ledger.
        if any(cell.migration is not None for cell in cells):
            from repro.islands.broker import MigrationBroker

            ledger = MigrationBroker(self.store, self.campaign_id).ledger()
        else:
            ledger = []
        return CampaignResult(
            campaign_id=self.campaign_id,
            trajectories=[
                TrajectoryResult.from_store(self.store, cell) for cell in cells
            ],
            migration_ledger=ledger,
        )

    def cancel(self) -> None:
        """Stop the daemon from scheduling this campaign's pending cells."""
        self.store.mark_cancelled(self.campaign_id)

    @property
    def cancelled(self) -> bool:
        """Whether the campaign has been cancelled."""
        return self.store.is_cancelled(self.campaign_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CampaignHandle({self.campaign_id!r}, store={self.store.root})"


class Session:
    """The front door: bind a store, then run or submit campaigns.

    Parameters
    ----------
    store:
        A :class:`RunStore`, a path, or ``None`` for the default store root
        (:attr:`repro.config.RuntimeConfig.store_root`).
    workers:
        Worker-process override applied to synchronous :meth:`run` calls
        (``None`` defers to each campaign's own ``workers`` field).
    progress:
        Optional callback receiving one line per scheduling event
        (:meth:`run` logs them at INFO without one).
    cache:
        A :class:`~repro.serve.cache.ResultCache` (or a path to one, or
        ``None`` to disable).  With a cache bound, :meth:`submit` and
        :meth:`run` fill already-known cells from it the moment the
        manifest lands — a resubmitted identical campaign completes
        without a single cell execution, before any daemon even polls.
    trace:
        Record a span trace per executed cell (see :mod:`repro.obs.trace`).
        Telemetry only: traced and untraced runs produce byte-identical
        journals, results and cache keys.
    """

    def __init__(
        self,
        store: Union[RunStore, str, None] = None,
        workers: Optional[int] = None,
        progress=None,
        cache: Union["ResultCache", str, Path, None] = None,
        trace: bool = False,
    ) -> None:
        if isinstance(store, RunStore):
            self.store = store
        else:
            self.store = RunStore(store if store is not None else _DEFAULTS.store_root)
        self.workers = workers
        self.progress = progress
        if cache is None or hasattr(cache, "fill"):
            self.cache: Optional["ResultCache"] = cache
        else:
            from repro.serve.cache import ResultCache as _ResultCache

            self.cache = _ResultCache(cache)
        self.trace = bool(trace)
        self._tempdir: Optional[str] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def ephemeral(cls, workers: Optional[int] = 1, progress=None) -> "Session":
        """A session over a throwaway store (removed by ``close``).

        Used by callers that want campaign semantics without persistence —
        the experiment drivers express their grids this way.  Usable as a
        context manager.
        """
        tempdir = tempfile.mkdtemp(prefix="repro-campaign-")
        session = cls(store=tempdir, workers=workers, progress=progress)
        session._tempdir = tempdir
        return session

    def close(self) -> None:
        """Remove the backing store if this session owns a throwaway one."""
        if self._tempdir is not None:
            shutil.rmtree(self._tempdir, ignore_errors=True)
            self._tempdir = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    @staticmethod
    def _validate(campaign: Campaign) -> None:
        """Fail fast on what a worker would only reject (or crash on) at run
        time: unknown names, non-positive or non-integer sizes, and cells
        whose estimated peak memory exceeds half of physical memory."""
        from repro.api.registry import BACKENDS
        from repro.loops.targets import get_target

        # get_target raises KeyError on unknown targets.
        targets = [get_target(target) for target in campaign.targets]
        for backend in campaign.backends:
            if backend not in BACKENDS:
                raise CampaignError(
                    f"unknown backend {backend!r}; available: {BACKENDS.names()}"
                )
        budget = _memory_budget()
        for name, config in campaign.configs:
            for field_name in ("population_size", "n_complexes", "iterations"):
                value = getattr(config, field_name)
                if (
                    isinstance(value, bool)
                    or not isinstance(value, numbers.Integral)
                    or value <= 0
                ):
                    raise CampaignError(
                        f"config {name!r}: {field_name} must be a positive "
                        f"integer, got {value!r}"
                    )
            if budget is None:
                continue
            for target in targets:
                peak = cell_peak_bytes(config.population_size, target.n_residues)
                if peak > budget:
                    raise CampaignTooLarge(
                        f"config {name!r} on {target.name}: a cell needs an "
                        f"estimated {peak / 2**30:.1f} GiB, over this host's "
                        f"per-cell budget of {budget / 2**30:.1f} GiB (half "
                        "of physical memory)"
                    )

    def submit(self, campaign: Campaign) -> CampaignHandle:
        """Persist the campaign manifest and return immediately.

        Nothing executes in this process: pending cells wait in the store
        for a daemon (``repro-daemon``) or an explicit
        :func:`repro.api.daemon.drain_once`.  Re-submitting an identical
        campaign is idempotent; reusing an id with a different grid raises.
        With a session ``cache``, cells whose content address is already
        cached are filled right here — the fast path that makes identical
        resubmissions (even across stores and users) return in
        milliseconds with zero executions.
        """
        self._validate(campaign)
        self.store.create_run(campaign, exist_ok=True)
        if self.cache is not None:
            daemon.fill_from_cache(
                self.store, self.cache, campaign.cells(), self.progress
            )
        return CampaignHandle(self.store, campaign.run_id)

    def run(self, campaign: Campaign) -> CampaignResult:
        """Execute the campaign synchronously and return its typed result.

        ``submit`` followed by in-process drain passes over this campaign
        alone (other campaigns in the store stay pending): cells that
        already have results are skipped and checkpointed cells resume, so
        ``run`` doubles as "finish this campaign now".  Failed cells are
        retried on every call, never parked; any failure in a pass raises
        :class:`~repro.runtime.executor.ShardFailure`.  A cancelled
        campaign raises :class:`CampaignError` without executing a cell.
        A session ``cache`` short-circuits known cells and receives the
        freshly executed ones.
        """
        self._validate(campaign)
        self.store.create_run(campaign, exist_ok=True)
        handle = CampaignHandle(self.store, campaign.run_id)
        workers = self.workers if self.workers is not None else campaign.workers
        progress = self.progress if self.progress is not None else _LOGGER.info
        previous = None
        status = handle.status()
        while not status.complete:
            if status.cancelled:
                raise CampaignError(
                    f"campaign {campaign.run_id!r} is cancelled; "
                    f"{status.n_cells - status.n_done} cell(s) left unrun"
                )
            if status == previous:
                # Every dispatched cell completes, fails or parks at a later
                # boundary, so an unchanged status means nothing could run.
                raise ShardFailure(
                    f"campaign {campaign.run_id!r} cannot make progress "
                    f"(states: {status.counts})"
                )
            report = daemon.drain_once(
                self.store,
                workers=workers,
                progress=progress,
                max_attempts=None,
                cache=self.cache,
                trace=self.trace,
                campaign_id=campaign.run_id,
            )
            if report.errors:
                raise ShardFailure(
                    f"{len(report.errors)} cell(s) of campaign "
                    f"{campaign.run_id!r} failed: "
                    + "; ".join(
                        f"{name}: {error}" for name, error in report.errors.items()
                    )
                )
            previous, status = status, handle.status()
        return handle.result()

    def handle(self, campaign_id: str) -> CampaignHandle:
        """A handle to a previously submitted campaign."""
        handle = CampaignHandle(self.store, campaign_id)
        handle.spec  # fail fast on unknown ids
        return handle

    def campaigns(self) -> List[str]:
        """Identifiers of every campaign in the session's store."""
        return self.store.list_runs()
