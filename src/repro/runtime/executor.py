"""Cell execution and the worker-pool fan-out beneath every drain.

:func:`run_cell` executes one cell of a :class:`~repro.runtime.spec.Campaign`
and :func:`parallel_map` fans many out across worker processes; the
campaign drain (:func:`repro.api.daemon.drain_once`, behind
``Session.run`` and every daemon) is their one caller.  Each worker is
self-sufficient: it rebuilds the target from its registry name,
constructs its own backend through :func:`repro.backends.make_backend`,
and talks to the run store only through the file system — the only data
crossing the process boundary are small picklable dicts (cell payloads
in, cell summaries out), so a drain scales to decoy sets far larger than
a pipe buffer.  Workers keep a process-level cache of assembled scoring
stacks keyed by target name (targets and knowledge bases are
already cached underneath), so a worker that executes many cells — or
drains many campaigns in one daemon batch — pays the table-building cost
once per target rather than once per trajectory.  A
:class:`PersistentPool` keeps the same worker processes alive across
*calls*, which is how the daemon extends those caches from one drain pass
to its whole lifetime.

Execution of one cell:

1. if the cell already has a result on disk, return its summary (idempotent
   re-submits and resumes);
2. if a checkpoint exists, restore the :class:`SamplerState` from it —
   resumed trajectories are bit-identical to uninterrupted ones;
3. run the sampler, checkpointing every ``checkpoint_every`` iterations and
   updating the cell's status document (the live progress
   ``repro-campaign status`` reads);
4. for cells of a migrating archipelago (see :mod:`repro.islands`), at
   every migration boundary the cell emits its emigrant packet and absorbs
   its neighbours'; if a neighbour has not emitted yet, the cell
   checkpoints and returns a *waiting* summary — it stays pending in the
   store, and a later pass resumes it at the boundary.  Nothing about this
   is new IPC: packets, events and checkpoints all ride the run store;
5. harvest the structurally distinct non-dominated decoys and write the
   cell result (appending a ``cell-done`` event to the store journal).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    TypeVar,
)

from repro.islands.broker import MigrationBroker, WaitingForPackets
from repro.obs.trace import Tracer
from repro.runtime.checkpoint import (
    has_checkpoint,
    load_checkpoint,
    load_checkpoint_extra,
    save_checkpoint,
)
from repro.runtime.spec import CellSpec
from repro.runtime.store import RunStore
from repro.scoring.pairwise import member_thread_count, using_member_threads
from repro.utils.timing import TimingLedger

if TYPE_CHECKING:  # heavy sampler imports stay lazy in worker processes
    from repro.moscem.sampler import MOSCEMSampler, SamplerState

__all__ = [
    "PersistentPool",
    "ShardFailure",
    "cell_payload",
    "parallel_map",
    "run_cell",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


class ShardFailure(RuntimeError):
    """One or more cells of a synchronously run campaign failed."""


class _MigrationWait(Exception):
    """A cell reached a migration boundary whose source packets are missing.

    Internal control flow of :func:`run_cell`: raised out of the sampler's
    ``on_iteration`` hook after the cell has checkpointed at the boundary,
    and converted into a ``waiting`` summary (the cell keeps no process
    state — a later pass resumes it from the boundary checkpoint).
    """

    def __init__(self, epoch: int, missing: Sequence[int], iteration: int) -> None:
        self.epoch = int(epoch)
        self.missing = tuple(int(m) for m in missing)
        self.iteration = int(iteration)
        super().__init__(f"waiting for epoch {epoch} packets from {missing}")


class PersistentPool:
    """A process pool surviving across :func:`parallel_map` calls.

    Passing one of these as ``pool=`` makes consecutive maps reuse the
    same worker processes, so the per-worker caches (targets, knowledge
    bases, assembled scoring stacks) accumulate across calls — the daemon
    holds one for its whole lifetime instead of rebuilding the pool every
    drain pass.  The underlying executor is created lazily and rebuilt on
    the next use after :meth:`reset` (e.g. when a worker crash broke it).
    """

    def __init__(self, workers: int) -> None:
        if workers <= 1:
            raise ValueError("a persistent pool needs workers > 1")
        self.workers = int(workers)
        self._executor: Optional[ProcessPoolExecutor] = None

    def executor(self) -> ProcessPoolExecutor:
        """The live pool, created on first use."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def reset(self) -> None:
        """Discard the pool (broken or not); the next use builds a fresh one."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        """Shut the pool down, waiting for in-flight work."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _call_ticking(
    fn: Callable[[_T], _R],
    item: _T,
    on_tick: Optional[Callable[[], None]],
    tick_seconds: float,
) -> _R:
    """``fn(item)`` in this thread, with ``on_tick`` fired every
    ``tick_seconds`` from a helper thread until it returns.

    The ticker lives exactly as long as the call, so the callback never
    overlaps the caller's own ``admit`` / ``on_result`` callbacks.
    """
    if on_tick is None:
        return fn(item)
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(tick_seconds):
            on_tick()

    ticker = threading.Thread(target=_beat, name="parallel-map-tick", daemon=True)
    ticker.start()
    try:
        return fn(item)
    finally:
        stop.set()
        ticker.join()


def _submit_and_wait(
    executor: ProcessPoolExecutor,
    fn: Callable[[_T], _R],
    items: List[_T],
    admitted: Iterator[int],
    slots: int,
    results: List[Any],
    on_result: Optional[Callable[[int, _R], None]],
    on_tick: Optional[Callable[[], None]],
    tick_seconds: float,
) -> None:
    in_flight: Dict[Any, int] = {}

    def _fill() -> None:
        for index in itertools.islice(admitted, slots - len(in_flight)):
            in_flight[executor.submit(fn, items[index])] = index

    _fill()
    timeout = tick_seconds if on_tick is not None else None
    while in_flight:
        done, _ = wait(in_flight, timeout=timeout, return_when=FIRST_COMPLETED)
        if on_tick is not None:
            on_tick()
        for future in done:
            index = in_flight.pop(future)
            results[index] = future.result()
            if on_result is not None:
                on_result(index, results[index])
        _fill()


def parallel_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    workers: int,
    on_result: Optional[Callable[[int, _R], None]] = None,
    pool: Optional[PersistentPool] = None,
    on_tick: Optional[Callable[[], None]] = None,
    tick_seconds: float = 5.0,
    admit: Optional[Callable[[int], bool]] = None,
) -> List[Optional[_R]]:
    """Map ``fn`` over ``items`` across worker processes, in input order.

    ``fn`` and every item must be picklable.  With ``workers <= 1`` (or a
    single item) the map runs inline in the calling process, which keeps
    tracebacks direct and avoids pool start-up for trivial batches.
    ``on_result`` is called as ``(index, result)`` the moment an item
    finishes — out of order — which is what streams per-shard progress.
    ``pool`` supplies a :class:`PersistentPool` to reuse across calls; by
    default a throwaway pool is built and torn down per call.

    At most ``workers`` items are in flight at once, and items are
    dispatched in input order as slots free.  ``admit`` is called as
    ``admit(index)`` right before item ``index`` would be dispatched — on
    the inline path and the pool path alike — and an item it refuses is
    skipped: ``on_result`` never sees it and its result slot stays
    ``None``.  The scale-out daemon claims a cell's lease here, so it
    holds no more claims than it has free worker slots.

    ``on_tick`` is invoked at least every ``tick_seconds`` while items are
    in flight: from the submitting thread on the pool path, and from a
    helper thread that lives only as long as each inline call on the
    inline path.  The scale-out daemon renews its lease heartbeats here,
    so a cell of any length keeps its claim alive.  The callback must be
    cheap, must not raise, and must tolerate running alongside ``fn``.
    """
    items = list(items)
    results: List[Any] = [None] * len(items)
    admitted = (
        index
        for index in range(len(items))
        if admit is None or admit(index)
    )
    if not items:
        return results
    if workers <= 1 or len(items) == 1:
        for index in admitted:
            results[index] = _call_ticking(fn, items[index], on_tick, tick_seconds)
            if on_result is not None:
                on_result(index, results[index])
        return results

    if pool is not None:
        try:
            _submit_and_wait(
                pool.executor(), fn, items, admitted, workers, results,
                on_result, on_tick, tick_seconds,
            )
        except BrokenProcessPool:
            # A dead worker poisons the whole executor; drop it so the
            # caller's next map builds a healthy pool.
            pool.reset()
            raise
        return results

    max_workers = min(workers, len(items))
    with ProcessPoolExecutor(max_workers=max_workers) as executor:
        _submit_and_wait(
            executor, fn, items, admitted, max_workers, results,
            on_result, on_tick, tick_seconds,
        )
    return results


# ---------------------------------------------------------------------------
# Shard execution (runs inside worker processes)
# ---------------------------------------------------------------------------


#: Per-worker cache of assembled scoring stacks keyed by target name.
#: Scoring functions are bound to a target and hold only precomputed lookup
#: tables, so sharing one stack across the cells a worker executes — within
#: a campaign and across campaigns drained in one batch — is safe and skips
#: the repeated knowledge-table assembly.
_MULTI_SCORE_CACHE: Dict[Any, Any] = {}


def _cached_multi_score(target_name: str) -> Any:
    from repro.loops.targets import get_target
    from repro.scoring import default_multi_score

    if target_name not in _MULTI_SCORE_CACHE:
        _MULTI_SCORE_CACHE[target_name] = default_multi_score(get_target(target_name))
    return _MULTI_SCORE_CACHE[target_name]


def _build_sampler(cell: CellSpec) -> "MOSCEMSampler":
    """Construct the target, backend and sampler for one cell.

    The target and scoring stack come from the per-worker caches; the
    backend is always fresh because it accumulates per-run kernel ledgers.
    """
    from repro.backends import make_backend
    from repro.loops.targets import get_target
    from repro.moscem.sampler import MOSCEMSampler

    target = get_target(cell.target)
    config = cell.config
    multi_score = _cached_multi_score(cell.target)
    backend = make_backend(cell.backend, target, multi_score, config)
    return MOSCEMSampler(
        target, config=config, multi_score=multi_score, backend=backend
    )


def run_cell(
    store: RunStore, cell: CellSpec, trace: bool = False
) -> Dict[str, Any]:
    """Execute (or resume) one cell; returns its summary.

    Runs inside a worker process, but is equally callable inline — a
    drain with ``workers=1`` and the tests use the same code path.
    Cells of a migrating archipelago may return a ``waiting`` summary
    instead of completing: the cell checkpointed at a migration boundary
    whose source packets are not on disk yet, and a later pass resumes it.

    With ``trace`` on, the cell records a span tree — a *setup* span
    (sampler build, checkpoint load), then one *epoch* span per checkpoint
    segment holding a leaf per kernel launch and host section, handed over
    by the kernel and host ledgers on its real start — persisted as the
    shard's ``trace.json``.  Tracing is pure telemetry on the status
    channel: nothing it records feeds the result, the journal, the ledgers
    or the checkpoints, so traced and untraced drains produce
    byte-identical replay surfaces.
    """
    index = cell.index
    shard_dir = store.shard_dir(cell.run_id, index)

    if store.has_shard_result(cell.run_id, index):
        return store.load_shard_summary(cell.run_id, index)

    tracer = Tracer(enabled=trace)
    cell_span = tracer.begin(
        f"cell {cell.name}",
        "cell",
        target=cell.target,
        backend=cell.backend,
        seed=cell.seed,
        run_id=cell.run_id,
    )
    epochs_traced = 0

    def _next_epoch(iteration: int) -> None:
        """Close the open epoch span (if any) and open the next one."""
        nonlocal epochs_traced
        if epochs_traced:
            tracer.end()
        tracer.begin(f"epoch {epochs_traced}", "epoch", start_iteration=iteration)
        epochs_traced += 1

    plan = cell.migration
    migrating = (
        plan is not None
        and plan.period(cell.checkpoint_every) > 0
        and plan.n_epochs(cell.checkpoint_every, cell.config.iterations) > 0
        and bool(plan.source_shards())
    )
    broker = MigrationBroker(store, cell.run_id) if migrating else None
    period = plan.period(cell.checkpoint_every) if migrating else 0
    n_epochs = (
        plan.n_epochs(cell.checkpoint_every, cell.config.iterations)
        if migrating
        else 0
    )

    state = None
    resumed_from = None
    epochs_absorbed = 0
    with tracer.span("setup", "setup"):
        sampler = _build_sampler(cell)
        if has_checkpoint(shard_dir):
            state = load_checkpoint(shard_dir, sampler)
            resumed_from = state.iteration
            if migrating:
                epochs_absorbed = int(
                    load_checkpoint_extra(shard_dir).get("migration_epochs", 0)
                )
    host_ledger = TimingLedger()
    if cell_span is not None:
        cell_span.args["resumed_from"] = resumed_from
        # Every section the ledgers time from here on lands as a leaf span.
        sampler.backend.ledger.attach(tracer, "kernel")
        host_ledger.attach(tracer, "host")

    # Status writes replace the whole document, so the failure-attempt
    # counter must be carried through every rewrite — otherwise a cell
    # that fails *after* this first write would reset its count each try
    # and the daemon's max-attempts parking could never trigger.
    attempts = int(
        store.read_shard_status(cell.run_id, index).get("attempts", 0)
    )

    def _status_fields(**fields: Any) -> Dict[str, Any]:
        base = {
            "pid": os.getpid(),
            "iterations": cell.config.iterations,
            "target": cell.target,
            "backend": cell.backend,
            "seed": cell.seed,
            "resumed_from": resumed_from,
            "attempts": attempts,
        }
        if migrating:
            base["migration_epochs"] = epochs_absorbed
        base.update(fields)
        return base

    def _checkpoint_extra() -> Dict[str, Any]:
        extra = {"run_id": cell.run_id, "shard": index, "target": cell.target}
        if migrating:
            extra["migration_epochs"] = epochs_absorbed
        return extra

    store.write_shard_status(
        cell.run_id,
        index,
        state="running",
        **_status_fields(iteration=0 if state is None else state.iteration),
    )

    def _maybe_migrate(live_state: "SamplerState") -> bool:
        """Run the migration boundary at the live iteration, if one is due.

        Returns True when a (post-absorption) checkpoint was written, so
        the caller skips the plain periodic checkpoint for this iteration.
        Raises :class:`_MigrationWait` after checkpointing when source
        packets are missing.
        """
        nonlocal epochs_absorbed
        if not migrating or epochs_absorbed >= n_epochs:
            return False
        boundary = (epochs_absorbed + 1) * period
        if live_state.iteration < boundary:
            return False
        if live_state.iteration > boundary:
            raise RuntimeError(
                f"{cell.run_id}/{cell.name}: iteration {live_state.iteration} "
                f"passed migration boundary {boundary} without absorbing "
                "(corrupt checkpoint metadata?)"
            )
        epoch = epochs_absorbed + 1
        try:
            broker.migrate(live_state, plan, epoch)
        except WaitingForPackets as blocked:
            # Park the cell: checkpoint the pre-absorption state at the
            # boundary (the packet it emitted is already on disk) and
            # bubble a wait out of the sampler loop.
            save_checkpoint(shard_dir, live_state, extra=_checkpoint_extra())
            store.write_shard_status(
                cell.run_id,
                index,
                state="waiting",
                **_status_fields(
                    iteration=live_state.iteration,
                    migration_epoch=epoch,
                    waiting_on=list(blocked.missing),
                ),
            )
            raise _MigrationWait(epoch, blocked.missing, live_state.iteration)
        epochs_absorbed = epoch
        save_checkpoint(shard_dir, live_state, extra=_checkpoint_extra())
        store.write_shard_status(
            cell.run_id,
            index,
            state="running",
            **_status_fields(
                iteration=live_state.iteration,
                checkpoint_iteration=live_state.iteration,
            ),
        )
        return True

    def _on_iteration(live_state: "SamplerState") -> None:
        checkpointed = _maybe_migrate(live_state)
        if (
            not checkpointed
            and cell.checkpoint_every > 0
            and live_state.iteration % cell.checkpoint_every == 0
            and live_state.iteration < cell.config.iterations
        ):
            save_checkpoint(shard_dir, live_state, extra=_checkpoint_extra())
            store.write_shard_status(
                cell.run_id,
                index,
                state="running",
                **_status_fields(
                    iteration=live_state.iteration,
                    checkpoint_iteration=live_state.iteration,
                ),
            )
            checkpointed = True
        if checkpointed:
            # Checkpoint boundaries delimit the trace's epoch spans.
            _next_epoch(live_state.iteration)

    _next_epoch(0 if state is None else state.iteration)
    try:
        if state is not None:
            # A cell parked at a boundary resumes *on* it: absorb (or wait
            # again) before stepping further.
            _maybe_migrate(state)
        result = sampler.run(
            seed=cell.seed,
            state=state,
            on_iteration=_on_iteration,
            host_ledger=host_ledger,
        )
    except _MigrationWait as blocked:
        return {
            "run_id": cell.run_id,
            "shard": index,
            "target": cell.target,
            "waiting": True,
            "iteration": blocked.iteration,
            "migration_epoch": blocked.epoch,
            "waiting_on": list(blocked.missing),
        }
    tracer.end()  # the last epoch
    decoys = result.distinct_non_dominated(trajectory=index)

    summary = {
        "run_id": cell.run_id,
        "shard": index,
        "target": cell.target,
        "config_name": cell.config_name,
        "seed_index": cell.seed_index,
        "backend": result.backend_name,
        "backend_kind": cell.backend,
        "seed": cell.seed,
        "iterations": cell.config.iterations,
        "resumed_from": resumed_from,
        "migration_epochs": epochs_absorbed,
        # For resumed cells this covers only the final segment (the time
        # before the interruption died with the interrupted process).
        "wall_seconds": result.wall_seconds,
        "best_rmsd": result.best_rmsd,
        "best_front_rmsd": result.best_non_dominated_rmsd,
        "n_non_dominated": result.n_non_dominated(),
        "final_acceptance": (
            result.acceptance_history[-1] if result.acceptance_history else None
        ),
    }
    store.save_shard_result(
        cell.run_id,
        index,
        decoys,
        summary,
        host_ledger=result.host_ledger,
        kernel_ledger=result.kernel_ledger,
    )
    if trace:
        store.save_shard_trace(cell.run_id, index, tracer.to_dict())
    # Wall-clock stamps live in the status document — the mutable,
    # non-replayed metadata channel (it already carries the pid) — never
    # in journal payloads, which kill-and-redrain replays must reproduce
    # byte-identically (enforced by lint rule REP004).
    store.write_shard_status(
        cell.run_id,
        index,
        state="done",
        **_status_fields(
            iteration=cell.config.iterations,
            n_decoys=len(decoys),
            finished_at=time.time(),
        ),
    )
    store.append_journal(
        cell.run_id,
        {
            "type": "cell-done",
            "shard": index,
            "target": cell.target,
            "n_decoys": len(decoys),
        },
    )
    summary["n_decoys"] = len(decoys)
    return summary


def cell_payload(
    store: RunStore, cell: CellSpec, trace: bool, slots: int
) -> Dict[str, Any]:
    """The picklable work item of one cell, as :func:`_cell_task` takes it.

    ``slots`` is the number of cells running at once on the host; the
    item carries the cell's member threads, its share of the host's
    cores (:func:`~repro.scoring.pairwise.member_thread_count`).  The
    count lives only here: it changes no output bit, so it is never part
    of a cell spec, a journal or a stored result.
    """
    return {
        "store_root": str(store.root),
        "cell": cell.to_dict(),
        "trace": bool(trace),
        "threads": member_thread_count(slots),
    }


def _cell_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Picklable worker entry point: run one cell, never raise.

    Exceptions are folded into an ``{"error": ...}`` summary (and the
    cell's status document) so one bad cell cannot poison the pool.  The
    cell's kernels run on the payload's ``threads`` member threads (see
    :func:`cell_payload`).
    """
    store = RunStore(payload["store_root"])
    cell = CellSpec.from_dict(payload["cell"])
    try:
        with using_member_threads(payload["threads"]):
            return run_cell(store, cell, trace=payload["trace"])
    except Exception as exc:  # noqa: BLE001 - reported via the summary
        detail = traceback.format_exc(limit=20)
        try:
            # The attempt counter is what lets the daemon park cells that
            # fail deterministically instead of retrying them forever.
            attempts = int(
                store.read_shard_status(cell.run_id, cell.index).get("attempts", 0)
            )
            store.write_shard_status(
                cell.run_id,
                cell.index,
                state="failed",
                error=str(exc),
                detail=detail,
                attempts=attempts + 1,
                failed_at=time.time(),
            )
            store.append_journal(
                cell.run_id,
                {
                    "type": "cell-failed",
                    "shard": cell.index,
                    "target": cell.target,
                    "error": f"{type(exc).__name__}: {exc}",
                },
            )
        except OSError:
            pass
        return {
            "run_id": cell.run_id,
            "shard": cell.index,
            "target": cell.target,
            "error": f"{type(exc).__name__}: {exc}",
            "detail": detail,
        }
