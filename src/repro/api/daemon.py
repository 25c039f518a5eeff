"""The store-draining daemon: the one path from pending cells to results.

:func:`drain_once` scans the store for cells without results (skipping
cancelled campaigns), dispatches them — across every pending campaign, or
only one when a ``campaign_id`` scopes the pass — through one worker pool
as its slots free, and returns a report.  Every execution goes through
it: ``repro-daemon`` and ``repro-serve`` fleets drain the whole store,
and :meth:`~repro.api.session.Session.run` is a submit followed by
in-process passes over its own campaign.  Batching across campaigns
matters: workers keep process-level caches of targets, knowledge bases
and assembled scoring stacks (see :mod:`repro.runtime.executor`), so
draining ten campaigns over the same benchmark in one pool builds each
target's tables once, not ten times.
:func:`serve` holds one :class:`~repro.runtime.executor.PersistentPool`
for its whole lifetime, so those worker caches survive *across* drain
passes too — the pool is built once per daemon, not once per pass.

:func:`serve` wraps ``drain_once`` in a poll loop for the ``repro-daemon``
entry point (``--drain-once`` is one cycle of it).  Because cell
execution is idempotent and checkpointed, a daemon killed mid-drain loses
nothing: the next drain re-schedules only the unfinished cells, each
resuming from its latest checkpoint.  Cells of a migrating archipelago
(see :mod:`repro.islands`) may finish a pass in the *waiting* state —
parked at a migration boundary until their source islands emit; they stay
pending, a pass dispatches them only once their source packets are on
disk, so an island campaign drains to completion over a handful of passes
with no daemon-side coordination.

Scale-out (see :mod:`repro.serve`) plugs in through two optional
collaborators, both riding the store rather than any new IPC:

* ``leases`` — a :class:`~repro.serve.leases.LeaseManager`.  The pass
  *claims on dispatch*: a cell's atomic exclusive-create lease file is
  claimed only when a worker slot frees for it, so a daemon never holds
  more claims than it has free slots and its siblings find the rest of
  the queue unclaimed.  Cells claimed by other daemons are skipped this
  pass, a cell a sibling finished since the scan is released unexecuted,
  heartbeats renew from the worker pool's tick callback (during an
  inline cell too), and leases release the moment their cells finish or
  park.  N daemons pointed at one store thus partition the work instead
  of duplicating it
  — and because execution stays idempotent and deterministic, even a
  botched partition (a daemon stalled past its lease TTL) costs duplicate
  compute, never different bytes.
* ``cache`` — a :class:`~repro.serve.cache.ResultCache`.  Cells whose
  content address is already cached are *filled* (O(ms)) instead of
  executed, and freshly executed cells are published for future
  campaigns.

Each dispatched cell carries its member-thread count (see
:func:`~repro.runtime.executor.cell_payload`): the host's cores divided
by the cells that run on the host at once.  Without leases that is the
pass's own concurrency; a leased daemon adds the ``workers`` of every
live sibling heartbeat from its host (:func:`~repro.obs.fleet.host_slots`),
recomputed each pass, so two one-worker daemons on two cores run one
thread each.  A sibling counts from its first heartbeat, written after
its first pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from concurrent.futures.process import BrokenProcessPool

from repro.config import RuntimeConfig
from repro.islands.broker import ready_to_resume
from repro.obs.fleet import default_daemon_id, host_slots, write_heartbeat
from repro.obs.metrics import REGISTRY
from repro.runtime.executor import (
    PersistentPool,
    _cell_task,
    cell_payload,
    parallel_map,
)
from repro.runtime.spec import CellSpec
from repro.runtime.store import RunStore, RunStoreError

if TYPE_CHECKING:  # imported lazily at runtime: repro.api must not pull
    from repro.serve.cache import ResultCache  # the serve HTTP stack in
    from repro.serve.leases import LeaseManager  # (circular-import hygiene)

__all__ = ["DrainReport", "drain_once", "fill_from_cache", "serve"]

_DEFAULTS = RuntimeConfig()

ProgressFn = Callable[[str], None]


#: Default per-cell attempt cap of a drain pass; cells that failed this
#: many times are parked rather than retried (see :func:`drain_once`).
DEFAULT_MAX_ATTEMPTS = 3


# Drain-loop telemetry (see repro.obs.metrics): counted alongside the
# DrainReport fields and rendered at GET /v1/metrics on repro-serve.
_CELLS = REGISTRY.counter(
    "repro_drain_cells_total", "Cells handled by drain passes, by outcome."
)
_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_drain_queue_depth", "Drainable cells found by the latest pass."
)
_PASS_SECONDS = REGISTRY.histogram(
    "repro_drain_pass_seconds", "Wall seconds per drain pass (monotonic clock)."
)
_UTILIZATION = REGISTRY.gauge(
    "repro_drain_worker_utilization",
    "Busy fraction of the worker pool over the latest executing pass.",
)


@dataclass
class DrainReport:
    """Outcome of one drain pass over the store."""

    executed: int = 0
    failed: int = 0
    waiting: int = 0
    cache_hits: int = 0
    skipped_cancelled: int = 0
    skipped_exhausted: int = 0
    skipped_leased: int = 0
    campaigns: List[str] = field(default_factory=list)
    errors: Dict[str, str] = field(default_factory=dict)

    @property
    def idle(self) -> bool:
        """Whether the pass found nothing left worth attempting.

        A pass that attempted cells — even unsuccessfully, or one that
        merely advanced waiting islands to their next migration boundary,
        filled cells from the result cache, or found cells leased to
        other daemons — is not idle; clients polling on ``idle`` would
        otherwise quiesce while retryable or resumable work remains (or
        while a sibling daemon is still mid-cell).
        """
        return (
            self.executed == 0
            and self.failed == 0
            and self.waiting == 0
            and self.cache_hits == 0
            and self.skipped_cancelled == 0
            and self.skipped_leased == 0
        )

    def counts(self) -> Dict[str, int]:
        """The numeric outcome fields as a flat dict (heartbeat payloads)."""
        return {
            "executed": self.executed,
            "failed": self.failed,
            "waiting": self.waiting,
            "cache_hits": self.cache_hits,
            "skipped_cancelled": self.skipped_cancelled,
            "skipped_exhausted": self.skipped_exhausted,
            "skipped_leased": self.skipped_leased,
        }


def _pending_cells(
    store: RunStore,
    progress: Optional[ProgressFn],
    max_attempts: Optional[int],
    campaign_id: Optional[str] = None,
) -> tuple:
    """Drainable cells, the cancelled- and exhausted-cell counts, the
    campaigns they come from, and the status document read for each
    drainable cell, keyed ``(run_id, index)``.

    ``campaign_id`` scopes the scan to one run; ``None`` scans the store.
    """
    pending: List[CellSpec] = []
    drainable_statuses: Dict[tuple, Dict] = {}
    skipped = 0
    exhausted = 0
    campaigns: List[str] = []
    run_ids = store.list_runs() if campaign_id is None else [campaign_id]
    for run_id in run_ids:
        try:
            spec = store.load_manifest(run_id).spec
        except RunStoreError as exc:
            # A corrupt manifest must not wedge the whole daemon.
            if progress is not None:
                progress(f"{run_id}: skipping unreadable manifest ({exc})")
            continue
        unfinished = [
            cell
            for cell in spec.cells()
            if not store.has_shard_result(run_id, cell.index)
        ]
        if not unfinished:
            continue
        if store.is_cancelled(run_id):
            skipped += len(unfinished)
            continue
        statuses = {
            cell.index: store.read_shard_status(run_id, cell.index)
            for cell in unfinished
        }
        parked = {
            index
            for index, status in statuses.items()
            if max_attempts is not None
            and int(status.get("attempts", 0)) >= max_attempts
        }
        # Transitive parking of dead archipelago branches: a cell waiting
        # on a parked, unfinished source can never receive that packet
        # (packets are immutable and only the source emits them), so it is
        # parked too — otherwise serve() would rebuild and re-park it on
        # every pass forever.  The fixpoint propagates through chains
        # (A parked -> B waits on A -> C waits on B).
        unfinished_indices = set(statuses)
        starved: set = set()
        broker = None
        changed = bool(parked)
        while changed:
            changed = False
            for cell in unfinished:
                index = cell.index
                status = statuses[index]
                if index in parked or index in starved:
                    continue
                if status.get("state") != "waiting":
                    continue
                epoch = int(status.get("migration_epoch", 0))
                dead = set()
                for source in status.get("waiting_on", ()):
                    source = int(source)
                    if source not in (parked | starved):
                        continue
                    if source not in unfinished_indices:
                        continue
                    if epoch > 0:
                        if broker is None:
                            from repro.islands.broker import MigrationBroker

                            broker = MigrationBroker(store, run_id)
                        if broker.has_packet(source, epoch):
                            # The packet landed before the source died;
                            # the waiter can still absorb and resume.
                            continue
                    dead.add(source)
                if dead:
                    starved.add(index)
                    changed = True
                    if progress is not None:
                        progress(
                            f"{run_id}/{cell.name}: parked — waiting on "
                            f"shard(s) {sorted(dead)} that will never emit "
                            "(exhausted after repeated failures)"
                        )
        drainable = []
        for cell in unfinished:
            if cell.index in starved:
                exhausted += 1
                continue
            if cell.index in parked:
                exhausted += 1
                if progress is not None:
                    progress(
                        f"{run_id}/{cell.name}: parked after "
                        f"{statuses[cell.index].get('attempts', 0)} failed "
                        "attempt(s); re-drain with a higher --max-attempts to retry"
                    )
            else:
                drainable.append(cell)
                drainable_statuses[run_id, cell.index] = statuses[cell.index]
        # Migration-aware ordering: cells of one island group drain
        # consecutively (groups sorted by name, then shard index), so a
        # group's packet producers are scheduled alongside — not an entire
        # batch ahead of — their consumers.  Under leases this also makes
        # a claiming daemon sweep whole archipelagos instead of striping
        # across them, which minimises cells parking on packets a *sibling
        # daemon* has yet to produce.  Independent cells sort with an
        # empty group key, preserving their index order.
        drainable.sort(
            key=lambda cell: (
                cell.migration.group if cell.migration is not None else "",
                cell.index,
            )
        )
        if drainable:
            campaigns.append(run_id)
            pending.extend(drainable)
    return pending, skipped, exhausted, campaigns, drainable_statuses


def fill_from_cache(
    store: RunStore,
    cache: "ResultCache",
    cells: List[CellSpec],
    progress: Optional[ProgressFn],
) -> List[CellSpec]:
    """Fill resultless ``cells`` from ``cache``; returns those still to run."""
    remaining: List[CellSpec] = []
    for cell in cells:
        if store.has_shard_result(cell.run_id, cell.index):
            continue
        if cache.fill(store, cell) is None:
            remaining.append(cell)
        elif progress is not None:
            progress(f"{cell.run_id}/{cell.name}: filled from cache")
    return remaining


def drain_once(
    store: RunStore,
    workers: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    max_attempts: Optional[int] = DEFAULT_MAX_ATTEMPTS,
    pool: Optional[PersistentPool] = None,
    leases: Optional["LeaseManager"] = None,
    cache: Optional["ResultCache"] = None,
    trace: bool = False,
    campaign_id: Optional[str] = None,
) -> DrainReport:
    """Execute the drainable cells of the store through one worker pool.

    Cell failures are recorded in the report (and in the cells' status
    documents) rather than raised — a daemon must outlive a bad campaign.
    Failed cells stay pending and are retried by later passes up to
    ``max_attempts`` times (counted in their status documents), after
    which they are parked so a deterministically broken cell cannot turn
    :func:`serve` into a hot retry loop.  ``max_attempts=None`` retries
    without bound.  Cells that park themselves *waiting* at a migration
    boundary are neither failures nor completions: they count into
    ``report.waiting`` and stay drainable; a waiting island whose source
    packets are not on disk when a worker slot frees for it is not
    dispatched at all (it would only re-park) and counts into
    ``report.waiting`` too, while one whose sources emitted earlier in the
    same pass runs in it.  ``pool`` reuses a
    persistent worker pool across passes (see :func:`serve`).
    ``campaign_id`` limits the pass to one campaign (``None``: every run
    in the store).

    With a ``cache``, cells whose content address is already cached are
    filled in-process before any scheduling (``report.cache_hits``), and
    freshly completed cells are published back.  With ``leases``, the
    remaining cells are claimed on dispatch: in drain order, each cell's
    lease is claimed only when a worker slot frees for it (so at most
    ``workers`` claims are held at once) and released the moment the cell
    finishes or parks.  Cells held by live sibling daemons count into
    ``report.skipped_leased``; a cell whose result appeared since the scan
    (a sibling finished it) is released and skipped; waiting islands whose
    source packets are not on disk at dispatch are left unclaimed for
    whichever daemon completes the sources.

    ``trace`` asks each executed cell to record a span trace (telemetry
    only — see :func:`repro.runtime.executor.run_cell`).
    """
    pending, skipped, exhausted, campaigns, statuses = _pending_cells(
        store, progress, max_attempts, campaign_id
    )
    report = DrainReport(
        skipped_cancelled=skipped,
        skipped_exhausted=exhausted,
        campaigns=campaigns,
    )
    _QUEUE_DEPTH.set(len(pending))
    if not pending:
        if progress is not None and skipped == 0:
            progress(f"store {store.root}: nothing to drain")
        return report

    if cache is not None:
        remaining = fill_from_cache(store, cache, pending, progress)
        report.cache_hits = len(pending) - len(remaining)
        if report.cache_hits:
            _CELLS.inc(report.cache_hits, outcome="cache_hit")
        pending = remaining

    if not pending:
        return report

    if progress is not None:
        progress(
            f"store {store.root}: {len(pending)} cell(s) to drain from "
            f"{len(campaigns)} campaign(s)"
            + (", claimed on dispatch" if leases is not None else "")
        )
    effective_workers = workers if workers is not None else _DEFAULTS.workers
    # The cells of this pass share the host's cores with those of every
    # live sibling daemon on it (their heartbeats name host and workers).
    slots = min(effective_workers, len(pending))
    if leases is not None:
        slots = host_slots(store, slots)
    payloads = [cell_payload(store, cell, trace, slots) for cell in pending]
    busy = {"seconds": 0.0}

    def _admit(pos: int) -> bool:
        """Dispatch a cell as a worker slot frees for it, if it can make
        progress now; under leases, claim it there (claim on dispatch)."""
        cell = pending[pos]
        # The scan's status read: one read per unfinished cell per pass.
        # Packets emitted earlier in this pass count.
        if not ready_to_resume(store, cell.run_id, statuses[cell.run_id, cell.index]):
            # A waiting island without its packets would execute only to
            # re-park; leave it for a later pass and stay non-idle.
            report.waiting += 1
            _CELLS.inc(outcome="waiting")
            return False
        if leases is None:
            return True
        if not leases.claim(cell.run_id, cell.index):
            report.skipped_leased += 1
            _CELLS.inc(outcome="skipped_leased")
            return False
        if store.has_shard_result(cell.run_id, cell.index):
            # A sibling finished the cell since the scan.
            leases.release(cell.run_id, cell.index)
            return False
        return True

    def _report(pos: int, summary: Dict) -> None:
        cell = pending[pos]
        if leases is not None:
            # Finished or parked either way — release immediately so
            # sibling daemons can pick up dependants without waiting for
            # the whole pass (waiting islands especially: their sources
            # may be another daemon's next claim).
            leases.release(cell.run_id, cell.index)
        if "error" in summary:
            report.failed += 1
            report.errors[f"{cell.run_id}/{cell.name}"] = summary["error"]
            _CELLS.inc(outcome="failed")
            if progress is not None:
                progress(f"{cell.run_id}/{cell.name}: FAILED {summary['error']}")
        elif summary.get("waiting"):
            report.waiting += 1
            _CELLS.inc(outcome="waiting")
            if progress is not None:
                progress(
                    f"{cell.run_id}/{cell.name}: waiting at migration epoch "
                    f"{summary.get('migration_epoch')} for shard(s) "
                    f"{summary.get('waiting_on')}"
                )
        else:
            report.executed += 1
            _CELLS.inc(outcome="executed")
            busy["seconds"] += float(summary.get("wall_seconds", 0.0) or 0.0)
            if cache is not None:
                cache.publish(store, cell)
            if progress is not None:
                progress(
                    f"{cell.run_id}/{cell.name}: done in "
                    f"{summary.get('wall_seconds', 0.0):.2f}s, "
                    f"{summary.get('n_decoys', 0)} decoys"
                )

    tick = leases.renew_all if leases is not None else None
    tick_seconds = leases.ttl_seconds / 3.0 if leases is not None else 5.0
    pass_started = time.perf_counter()
    try:
        parallel_map(
            _cell_task,
            payloads,
            effective_workers,
            on_result=_report,
            pool=pool,
            on_tick=tick,
            tick_seconds=tick_seconds,
            admit=_admit,
        )
    finally:
        if leases is not None:
            leases.release_all()
        pass_seconds = time.perf_counter() - pass_started
        _PASS_SECONDS.observe(pass_seconds)
        if pass_seconds > 0.0:
            _UTILIZATION.set(
                min(
                    1.0,
                    busy["seconds"] / (max(effective_workers, 1) * pass_seconds),
                )
            )
    return report


def serve(
    store: RunStore,
    workers: Optional[int] = None,
    poll_seconds: float = _DEFAULTS.poll_seconds,
    max_cycles: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    max_attempts: Optional[int] = DEFAULT_MAX_ATTEMPTS,
    leases: Optional["LeaseManager"] = None,
    cache: Optional["ResultCache"] = None,
    cache_max_entries: Optional[int] = None,
    cache_max_age_days: Optional[float] = None,
    trace: bool = False,
    daemon_id: Optional[str] = None,
) -> DrainReport:
    """Drain the store in a loop, sleeping ``poll_seconds`` between passes.

    ``max_cycles`` bounds the number of passes (``None`` serves forever);
    the report of the final pass is returned.  One persistent worker pool
    spans every pass, so the workers' component caches (targets, knowledge
    bases, scoring stacks) live as long as the daemon; a crash that breaks
    the pool is logged and the next pass rebuilds it.  The loop also exits
    on ``KeyboardInterrupt`` — killing the daemon is the intended
    shutdown, and loses no work: held leases are released on the way out
    (and would expire by TTL even on a hard kill).  ``leases`` and
    ``cache`` turn the daemon into one member of a scale-out fleet — see
    :func:`drain_once` and :mod:`repro.serve`.  ``cache_max_entries`` /
    ``cache_max_age_days`` bound the result cache: after every pass the
    daemon prunes it LRU-by-mtime (see
    :meth:`~repro.serve.cache.ResultCache.prune`), so a long-lived fleet
    cannot grow the shared cache without bound.

    After every pass the daemon rewrites its heartbeat under
    ``<store>/.fleet/`` (pass counts, cache stats, a metrics snapshot) —
    the feed behind ``GET /v1/fleet`` and ``repro-top``.  ``daemon_id``
    defaults to the lease manager's identity (or host.pid without leases)
    so the fleet view and the lease files name the same daemon.
    """
    report = DrainReport()
    cycle = 0
    effective_workers = workers if workers is not None else _DEFAULTS.workers
    pool = PersistentPool(effective_workers) if effective_workers > 1 else None
    if daemon_id is None:
        daemon_id = (
            leases.daemon_id if leases is not None else default_daemon_id()
        )

    def _heartbeat() -> None:
        try:
            write_heartbeat(
                store,
                daemon_id,
                workers=effective_workers,
                cycle=cycle,
                report=report.counts(),
                cache_stats=cache.stats if cache is not None else None,
                metrics=REGISTRY.snapshot(),
            )
        except OSError:  # pragma: no cover - full disk etc.
            pass  # a heartbeat is telemetry; never kill the daemon for it

    try:
        while max_cycles is None or cycle < max_cycles:
            try:
                report = drain_once(
                    store,
                    workers=workers,
                    progress=progress,
                    max_attempts=max_attempts,
                    pool=pool,
                    leases=leases,
                    cache=cache,
                    trace=trace,
                )
            except BrokenProcessPool as exc:  # pragma: no cover - worker crash
                if progress is not None:
                    progress(f"worker pool broke ({exc}); rebuilding next pass")
            if cache is not None and (
                cache_max_entries is not None or cache_max_age_days is not None
            ):
                pruned = cache.prune(
                    max_age_days=cache_max_age_days,
                    max_entries=cache_max_entries,
                )
                if pruned and progress is not None:
                    progress(f"pruned {pruned} cache entries")
            cycle += 1
            _heartbeat()
            if max_cycles is not None and cycle >= max_cycles:
                break
            time.sleep(poll_seconds)
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        if progress is not None:
            progress("daemon interrupted; pending cells remain drainable")
    finally:
        if leases is not None:
            leases.release_all()
        if pool is not None:
            pool.close()
    return report
