"""Command-line interface: thin wrappers over :mod:`repro.api`.

The entry points exposed (see ``setup.py``):

``repro-campaign``
    The front door.  Declare a grid (targets x configs x seeds x
    backends; a batch over one target is a one-target grid) in a TOML/JSON
    file, then submit it asynchronously (returns immediately; a daemon
    drains it), run it synchronously — re-running resumes it — watch it,
    fetch its typed results, or cancel it::

        repro-campaign submit examples/table_iv.toml
        repro-campaign status table-iv
        repro-campaign result table-iv
        repro-campaign run examples/table_iv.toml   # synchronous
        repro-campaign cancel table-iv

``repro-daemon``
    Drain pending campaign cells from the run store through a worker pool,
    once or in a poll loop.  Killing the daemon loses no work — cells are
    checkpointed and a later drain resumes them.  With ``--leases`` any
    number of daemons share one store (claiming cells through lease files
    — see :mod:`repro.serve`); ``--cache`` fills and feeds a
    content-addressed result cache::

        repro-daemon --drain-once
        repro-daemon --workers 4 --interval 5
        repro-daemon --leases --daemon-id box-a --cache /var/repro-cache

``repro-serve``
    The HTTP front door of a daemon fleet: submit, watch and fetch
    campaigns remotely over a tiny JSON API (stdlib ``http.server``)::

        repro-serve --store /var/repro-store --port 8080
        curl -X POST http://localhost:8080/v1/campaigns -d @campaign.json
        curl http://localhost:8080/v1/metrics          # Prometheus text
        curl http://localhost:8080/v1/fleet            # daemon heartbeats

``repro-top``
    A read-only live view of one store: daemon fleet (from heartbeats),
    per-campaign progress bars, and journal tails — ``top`` for a
    campaign fleet::

        repro-top --store /var/repro-store --interval 2

``repro-experiments``
    Run one, several or all experiment drivers at a chosen scale and print
    their result tables, e.g.::

        repro-experiments --scale smoke fig1 table3
        repro-experiments --scale default --all --workers 4 --markdown > results.md

``repro-sample``
    Run one trajectory on one benchmark target — a one-cell campaign on a
    throwaway store, its seed derived from ``--seed`` and the cell
    coordinates like any campaign cell's — and print a summary of the run,
    optionally writing the best decoy as a PDB file, e.g.::

        repro-sample 1cex"(40:51)" --population 256 --iterations 20 \\
            --backend gpu --pdb best.pdb

Every entry point that runs trajectories does so through
:class:`repro.api.Session`; only the Fig. 5 driver, which snapshots the
front inside a trajectory, still steps a sampler directly.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.config import RuntimeConfig, SamplingConfig
from repro.experiments import list_experiments, run_experiments
from repro.experiments.runner import PAPER_EXPERIMENTS
from repro.loops.targets import benchmark_registry, get_target
from repro.protein.pdb import loop_to_pdb
from repro.utils.logging import configure_logging

__all__ = [
    "experiments_main",
    "sample_main",
    "campaign_main",
    "daemon_main",
    "serve_main",
    "top_main",
]

_DEFAULT_RUNTIME = RuntimeConfig()


def _experiments_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Run the paper-reproduction experiment drivers.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"experiment ids to run (available: {', '.join(list_experiments())}); "
        "defaults to every table/figure of the paper",
    )
    parser.add_argument(
        "--scale",
        choices=("smoke", "default", "paper"),
        default="smoke",
        help="scale preset (smoke: seconds, default: minutes, paper: hours)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--all", action="store_true", help="run every registered experiment, ablations included"
    )
    parser.add_argument(
        "--markdown", action="store_true", help="emit Markdown instead of plain text"
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids and exit")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes experiments fan out across (default: 1, sequential)",
    )
    return parser


def experiments_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro-experiments``."""
    configure_logging()
    args = _experiments_parser().parse_args(argv)
    if args.list:
        for experiment_id in list_experiments():
            print(experiment_id)
        return 0
    if args.all:
        ids: List[str] = list_experiments()
    elif args.experiments:
        ids = list(args.experiments)
    else:
        ids = list(PAPER_EXPERIMENTS)
    report = run_experiments(ids, scale=args.scale, seed=args.seed, workers=args.workers)
    print(report.render_markdown() if args.markdown else report.render())
    return 0


def _sample_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sample",
        description="Run one MOSCEM multi-scoring trajectory (a one-cell "
        "campaign) on one benchmark target.",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default="1cex(40:51)",
        help='target name, e.g. "1cex(40:51)" (default) or a bare PDB id',
    )
    parser.add_argument("--population", type=int, default=256, help="population size")
    parser.add_argument("--complexes", type=int, default=8, help="number of complexes")
    parser.add_argument("--iterations", type=int, default=20, help="MOSCEM iterations")
    parser.add_argument(
        "--seed", type=int, default=0, help="campaign base seed the cell seed derives from"
    )
    parser.add_argument(
        "--backend",
        default="gpu",
        help="execution backend: any registered name or alias "
        '("cpu", "gpu", "xp", "jax", ...); see '
        "repro.api.registry",
    )
    parser.add_argument(
        "--pdb", default=None, help="write the best decoy to this PDB file"
    )
    parser.add_argument(
        "--list-targets", action="store_true", help="list benchmark targets and exit"
    )
    return parser


def sample_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro-sample``."""
    configure_logging()
    args = _sample_parser().parse_args(argv)
    if args.list_targets:
        for entry in benchmark_registry():
            print(f"{entry.name}  ({entry.length} residues"
                  f"{', buried' if entry.buried else ''})")
        return 0

    from repro.api import Session, campaign

    target = get_target(args.target)
    config = SamplingConfig(
        population_size=args.population,
        n_complexes=args.complexes,
        iterations=args.iterations,
    )
    grid = campaign(
        "repro-sample",
        targets=args.target,
        configs=config,
        backends=args.backend,
        base_seed=args.seed,
        checkpoint_every=0,
        workers=1,
    )
    with Session.ephemeral() as session:
        (result,) = session.run(grid)
    decoys = result.decoys

    print(f"target              : {target.describe()}")
    print(f"backend             : {result.backend_name}")
    print(f"population x iters  : {config.population_size} x {config.iterations}")
    print(f"wall time           : {result.wall_seconds:.2f} s")
    print(f"non-dominated       : {result.n_non_dominated}")
    print(f"distinct decoys     : {len(decoys)}")
    print(f"best RMSD           : {result.best_rmsd:.2f} A")
    print(f"best front RMSD     : {result.best_front_rmsd:.2f} A")
    if result.final_acceptance is not None:
        print(f"final acceptance    : {result.final_acceptance:.2f}")

    if args.pdb and len(decoys):
        best = min(decoys, key=lambda d: d.rmsd)
        loop_to_pdb(best.coords, target.sequence, args.pdb)
        print(f"best decoy written  : {args.pdb}")
    return 0


# ---------------------------------------------------------------------------
# repro-campaign / repro-daemon: the declarative multi-target API surface
# ---------------------------------------------------------------------------


def _campaign_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Declare, submit, run, inspect and cancel multi-target "
        "campaigns (targets x configs x seeds x backends).",
    )
    parser.add_argument(
        "--store",
        default=_DEFAULT_RUNTIME.store_root,
        help=f"run-store directory (default: {_DEFAULT_RUNTIME.store_root})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_migration_flags(sub_parser) -> None:
        """Island-migration overrides shared by ``submit`` and ``run``.

        ``--migration TOPOLOGY`` replaces the campaign file's ``[migration]``
        block entirely (``none`` switches migration off); the sub-flags
        refine the chosen topology.
        """
        from repro.islands.policy import SELECTIONS, TOPOLOGIES

        sub_parser.add_argument(
            "--migration", choices=TOPOLOGIES, default=None,
            help="override the campaign's migration topology "
            "(none disables migration)",
        )
        sub_parser.add_argument(
            "--migration-cadence", type=int, default=1,
            help="checkpoint epochs between exchanges (default: 1; "
            "only with --migration)",
        )
        sub_parser.add_argument(
            "--migration-elite", type=int, default=2,
            help="emigrants offered per exchange (default: 2; "
            "only with --migration)",
        )
        sub_parser.add_argument(
            "--migration-selection", choices=SELECTIONS, default="crowding",
            help="emigrant selection rule (default: crowding; "
            "only with --migration)",
        )

    submit = sub.add_parser(
        "submit",
        help="persist a campaign manifest and return immediately "
        "(a repro-daemon drains it)",
    )
    submit.add_argument("file", help="campaign document (.toml or .json)")
    _add_migration_flags(submit)

    run = sub.add_parser("run", help="execute a campaign synchronously")
    run.add_argument("file", help="campaign document (.toml or .json)")
    run.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: the campaign's)",
    )
    run.add_argument(
        "--trace", action="store_true",
        help="record a span trace per cell (export with: repro-campaign trace)",
    )
    _add_migration_flags(run)

    status = sub.add_parser("status", help="show per-cell progress")
    status.add_argument("campaign_id", nargs="?", default=None,
                        help="campaign id (omit to list the store)")

    result = sub.add_parser("result", help="print the typed campaign result")
    result.add_argument("campaign_id", help="campaign id")
    result.add_argument(
        "--timeout", type=float, default=None,
        help="seconds to wait for completion (default: fail if incomplete)",
    )

    cancel = sub.add_parser(
        "cancel", help="stop the daemon from scheduling a campaign's pending cells"
    )
    cancel.add_argument("campaign_id", help="campaign id")

    trace = sub.add_parser(
        "trace",
        help="export a campaign's per-cell span traces as one Chrome "
        "trace-event JSON file (loadable in Perfetto / chrome://tracing)",
    )
    trace.add_argument("campaign_id", help="campaign id")
    trace.add_argument(
        "--out", default=None,
        help="output path (default: <campaign_id>-trace.json)",
    )
    return parser


def _print_campaign_result(result) -> None:
    from repro.simt.profiler import KernelProfiler

    print(result.to_table().render())
    # Kernel ledgers of gpu cells also hold modelled memcpy records.
    kernels = KernelProfiler(ledger=result.merged_ledgers()["kernel"])
    print(f"total sampler time  : {result.wall_seconds():.2f} s")
    print(f"total kernel time   : {kernels.total_kernel_seconds():.2f} s")
    if result.migration_ledger:
        accepted = sum(
            len(event.get("accepted", ())) for event in result.migration_ledger
        )
        print(f"migration events    : {len(result.migration_ledger)} "
              f"({accepted} immigrants absorbed)")


def _apply_migration_flags(grid, args):
    """Overlay the ``--migration*`` flags onto a loaded campaign."""
    if getattr(args, "migration", None) is None:
        return grid
    import dataclasses as _dataclasses

    from repro.islands.policy import MigrationPolicy

    policy = MigrationPolicy(
        topology=args.migration,
        cadence=args.migration_cadence,
        elite_k=args.migration_elite,
        selection=args.migration_selection,
    )
    return _dataclasses.replace(grid, migration=policy)


def campaign_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro-campaign``."""
    configure_logging()
    args = _campaign_parser().parse_args(argv)
    from repro.api import CampaignIncomplete, Session, load_campaign

    session = Session(args.store, progress=print)
    if args.command == "submit":
        handle = session.submit(_apply_migration_flags(load_campaign(args.file), args))
        status = handle.status()
        print(f"submitted {handle.campaign_id}: {status.n_cells} cell(s) "
              f"({status.n_done} already complete)")
        print("drain with: repro-daemon --store "
              f"{args.store} --drain-once")
        return 0
    if args.command == "run":
        session.workers = args.workers
        session.trace = bool(args.trace)
        result = session.run(_apply_migration_flags(load_campaign(args.file), args))
        _print_campaign_result(result)
        return 0
    if args.command == "status":
        if args.campaign_id is None:
            runs = session.campaigns()
            if not runs:
                print(f"no campaigns in store {args.store}")
            for run_id in runs:
                print(run_id)
            return 0
        print(session.handle(args.campaign_id).status().render())
        return 0
    if args.command == "result":
        try:
            result = session.handle(args.campaign_id).result(timeout=args.timeout)
        except CampaignIncomplete as exc:
            print(f"not ready: {exc}")
            return 1
        _print_campaign_result(result)
        return 0
    if args.command == "cancel":
        session.handle(args.campaign_id).cancel()
        print(f"cancelled {args.campaign_id}: pending cells will not be "
              "scheduled (running cells finish their trajectory)")
        return 0
    if args.command == "trace":
        return _campaign_trace(session, args)
    raise AssertionError(f"unhandled command {args.command!r}")


def _campaign_trace(session, args) -> int:
    """Merge a campaign's per-cell traces into one Chrome trace file."""
    from repro.io import write_json_atomic
    from repro.obs.trace import chrome_trace

    handle = session.handle(args.campaign_id)
    store = session.store
    cell_traces = []
    for cell in handle.spec.cells():
        if store.has_shard_trace(handle.campaign_id, cell.index):
            cell_traces.append(
                (cell.name, store.load_shard_trace(handle.campaign_id, cell.index))
            )
    if not cell_traces:
        print(f"no traces recorded for {args.campaign_id}: drain with "
              "repro-daemon --trace (or repro-campaign run --trace)")
        return 1
    document = chrome_trace(args.campaign_id, cell_traces)
    out = args.out or f"{args.campaign_id}-trace.json"
    write_json_atomic(out, document)
    print(f"wrote {len(cell_traces)} cell trace(s) to {out} "
          "(open in Perfetto or chrome://tracing)")
    return 0


def _daemon_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-daemon",
        description="Drain pending campaign cells from the run store "
        "through a worker pool.",
    )
    parser.add_argument(
        "--store",
        default=_DEFAULT_RUNTIME.store_root,
        help=f"run-store directory (default: {_DEFAULT_RUNTIME.store_root})",
    )
    parser.add_argument(
        "--workers", type=int, default=_DEFAULT_RUNTIME.workers,
        help=f"worker processes (default: {_DEFAULT_RUNTIME.workers})",
    )
    parser.add_argument(
        "--drain-once", action="store_true",
        help="run one cycle of the serve loop (a drain pass, the cache "
        "prune and a heartbeat) and exit; same as --max-cycles 1 "
        "(default: poll forever)",
    )
    parser.add_argument(
        "--interval", type=float, default=_DEFAULT_RUNTIME.poll_seconds,
        help="seconds between drain passes "
        f"(default: {_DEFAULT_RUNTIME.poll_seconds})",
    )
    parser.add_argument(
        "--max-cycles", type=int, default=None,
        help="stop after this many drain passes (default: unbounded)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=None,
        help="park a cell after this many failed attempts (default: "
        "3; 0 retries without bound)",
    )
    parser.add_argument(
        "--leases", action="store_true",
        help="claim cells through lease files, so several daemons can "
        "drain one store without duplicating work (see repro.serve)",
    )
    parser.add_argument(
        "--daemon-id", default=None,
        help="lease identity of this daemon (implies --leases; "
        "default: <hostname>.<pid>)",
    )
    parser.add_argument(
        "--lease-ttl", type=float, default=None,
        help="seconds before an unrenewed lease is considered stale and "
        "taken over (implies --leases; default: 30)",
    )
    parser.add_argument(
        "--cache", default=None,
        help="content-addressed result-cache directory: known cells fill "
        "from it instead of executing, fresh results are published to it",
    )
    parser.add_argument(
        "--cache-max-entries", type=int, default=None,
        help="prune the result cache after each drain pass, keeping only "
        "the newest N complete entries (LRU by entry mtime)",
    )
    parser.add_argument(
        "--cache-max-age-days", type=float, default=None,
        help="prune result-cache entries older than this many days "
        "after each drain pass",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="record a span trace per executed cell (telemetry only; "
        "export with: repro-campaign trace <id>)",
    )
    return parser


def daemon_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro-daemon``."""
    configure_logging()
    args = _daemon_parser().parse_args(argv)
    from repro.api import DEFAULT_MAX_ATTEMPTS, serve
    from repro.runtime import RunStore

    if args.max_attempts is None:
        max_attempts = DEFAULT_MAX_ATTEMPTS
    else:
        max_attempts = None if args.max_attempts <= 0 else args.max_attempts
    store = RunStore(args.store)
    leases = None
    if args.leases or args.daemon_id is not None or args.lease_ttl is not None:
        from repro.serve.leases import DEFAULT_TTL_SECONDS, LeaseManager

        leases = LeaseManager(
            store,
            daemon_id=args.daemon_id,
            ttl_seconds=(
                args.lease_ttl if args.lease_ttl is not None else DEFAULT_TTL_SECONDS
            ),
        )
        print(f"leasing as daemon {leases.daemon_id} (ttl {leases.ttl_seconds:g}s)")
    cache = None
    if args.cache is not None:
        from repro.serve.cache import ResultCache

        cache = ResultCache(args.cache)
    report = serve(
        store,
        workers=args.workers,
        poll_seconds=args.interval,
        max_cycles=1 if args.drain_once else args.max_cycles,
        progress=print,
        max_attempts=max_attempts,
        leases=leases,
        cache=cache,
        cache_max_entries=args.cache_max_entries,
        cache_max_age_days=args.cache_max_age_days,
        trace=args.trace,
        daemon_id=args.daemon_id,
    )
    print(f"drained {report.executed} cell(s), {report.failed} failure(s), "
          f"{report.waiting} waiting on migration, "
          f"{report.cache_hits} filled from cache, "
          f"{report.skipped_leased} leased to other daemons, "
          f"{report.skipped_cancelled} cancelled-pending skipped, "
          f"{report.skipped_exhausted} parked after repeated failures")
    if cache is not None:
        stats = cache.stats
        print(f"cache: {stats['hits']} hit(s), {stats['misses']} miss(es), "
              f"{stats['publishes']} publish(es), "
              f"{stats['evictions']} eviction(s)")
    return 1 if report.failed else 0


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="HTTP front end over a run store: submit, watch and "
        "fetch campaigns remotely (execution stays with repro-daemon).",
    )
    parser.add_argument(
        "--store",
        default=_DEFAULT_RUNTIME.store_root,
        help=f"run-store directory (default: {_DEFAULT_RUNTIME.store_root})",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=8080,
        help="port to bind; 0 picks a free one (default: 8080)",
    )
    parser.add_argument(
        "--cache", default=None,
        help="result-cache directory: submissions fill already-known "
        "cells immediately, before any daemon polls",
    )
    return parser


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro-serve``."""
    configure_logging()
    args = _serve_parser().parse_args(argv)
    from repro.serve.http import serve_forever

    serve_forever(
        args.store,
        host=args.host,
        port=args.port,
        cache=args.cache,
        progress=print,
    )
    return 0


def _top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-top",
        description="Live fleet and campaign status of one run store "
        "(read-only; renders heartbeats, cell states and journal tails).",
    )
    parser.add_argument(
        "--store",
        default=_DEFAULT_RUNTIME.store_root,
        help=f"run-store directory (default: {_DEFAULT_RUNTIME.store_root})",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes (default: 2)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="render one frame (no screen clearing) and exit",
    )
    parser.add_argument(
        "--iterations", type=int, default=None,
        help="stop after this many frames (default: run until interrupted)",
    )
    parser.add_argument(
        "--stale-seconds", type=float, default=120.0,
        help="heartbeats older than this count the daemon as gone "
        "(default: 120)",
    )
    return parser


def top_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro-top``."""
    import time as _time

    configure_logging()
    args = _top_parser().parse_args(argv)
    from repro.obs.top import render_screen
    from repro.runtime import RunStore

    store = RunStore(args.store)
    frames = 1 if args.once else args.iterations
    rendered = 0
    try:
        while True:
            screen = render_screen(store, stale_seconds=args.stale_seconds)
            if not args.once:
                print("\x1b[2J\x1b[H", end="")  # clear + home, like top(1)
            print(screen)
            rendered += 1
            if frames is not None and rendered >= frames:
                break
            _time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(experiments_main())
