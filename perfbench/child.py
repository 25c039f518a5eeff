"""Processes under test, started by ``run.py`` as fresh interpreters.

Usage::

    python3 perfbench/child.py setup      --target NAME [--spans OUT] [--pace OUT]
    python3 perfbench/child.py trajectory --doc DOC --store DIR [--spans OUT] [--pace OUT]
    python3 perfbench/child.py daemon     [--spans OUT] [--pace OUT] -- <repro-daemon argv>
    python3 perfbench/child.py serve      [--spans OUT] [--pace OUT] -- <repro-serve argv>

Every role first imports the public entry points and times that.  With
``--spans`` the layer wrappers of ``spans.py`` are installed before any
work and the recorded spans are written to OUT when the role ends; with
``--pace`` a host-speed probe (``pace.py``) samples the process from before
the import on, and its samples are written the same way.
``daemon`` and ``serve`` then hand over to ``repro.cli.daemon_main`` /
``serve_main`` unchanged, and stop on SIGINT like the console scripts.
``setup`` and ``trajectory`` print one ``READY {json}`` line once the
target, loop library and knowledge base are built, and ``trajectory`` ends
with one ``RESULT {json}`` line.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time
from pathlib import Path

_START = time.perf_counter()
import pace  # noqa: E402

# The probe starts before the program is imported, so short-lived starts
# get samples too.
_PROBE = pace.Pace() if "--pace" in sys.argv else None
if _PROBE is not None:
    _PROBE.start()

import repro.api  # noqa: E402
import repro.cli  # noqa: E402

_IMPORTED = time.perf_counter()

import spans  # noqa: E402
from quality import arrays_digest, npz_digest, pair_hypervolume  # noqa: E402


def _emit(tag: str, payload) -> None:
    print(f"{tag} {json.dumps(payload, sort_keys=True)}", flush=True)


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _setup(target: str) -> dict:
    """Build what every cell needs before its first kernel, timing each part."""
    from repro.loops.library import default_library
    from repro.loops.targets import get_target
    from repro.scoring.knowledge import default_knowledge_base

    # The knowledge base builds its library through this lru_cache'd call;
    # making the identical call first splits the two without extra work.
    defaults = inspect.signature(default_knowledge_base).parameters
    library_args = {name: defaults[name].default for name in ("seed", "n_loops")}
    target_s = _timed(get_target, target)
    library_s = _timed(lambda: default_library(**library_args))
    knowledge_base_s = _timed(default_knowledge_base)
    return {
        "import_s": _IMPORTED - _START,
        "target_s": target_s,
        "library_s": library_s,
        "knowledge_base_s": knowledge_base_s,
        "ready_at": time.time(),
    }


def _trajectory(args) -> int:
    import numpy as np

    from repro.api.campaign import campaign_from_dict
    from repro.moscem.sampler import SamplingResult

    document = json.loads(Path(args.doc).read_text())
    grid = campaign_from_dict(document)
    _emit("READY", _setup(grid.targets[0]))
    # The final population lives only in the sampler's result; the cell
    # harvests its decoys from it, so keep a reference when it does.
    finals = []
    harvest = SamplingResult.distinct_non_dominated

    def keep_final(self, *args, **kwargs):
        finals.append(self)
        return harvest(self, *args, **kwargs)

    SamplingResult.distinct_non_dominated = keep_final
    session = repro.api.Session(args.store, workers=1)
    window = [time.time()]
    start = time.perf_counter()
    result = session.run(grid)
    trajectory_s = time.perf_counter() - start
    window.append(time.time())

    cell = result.trajectories[0]
    decoys = cell.decoys
    scores = decoys.scores_matrix() if len(decoys) else np.zeros((0, 3))
    problems = []
    if len(decoys) == 0 or cell.n_non_dominated == 0:
        problems.append("empty front")
    if not (np.isfinite(scores).all() and np.isfinite(decoys.rmsds()).all()):
        problems.append("non-finite decoy score or RMSD")
    if not (math.isfinite(cell.best_rmsd) and math.isfinite(cell.best_front_rmsd)):
        problems.append("non-finite best RMSD")
    shard_dir = session.store.shard_dir(grid.run_id, 0)
    digests = {"decoys": npz_digest(shard_dir / "decoys.npz")}
    if len(finals) == 1:
        final = finals[0]
        population = final.population
        digests["population"] = arrays_digest({
            "torsions": population.torsions,
            "scores": population.scores,
            "closure": population.closure,
            "rmsd": final.rmsd,
            "non_dominated": final.non_dominated,
        })
    else:
        problems.append(f"{len(finals)} final populations, expected 1")
    ledger = session.store.load_shard_ledgers(grid.run_id, 0)["kernel"]
    _emit(
        "RESULT",
        {
            "trajectory_s": trajectory_s,
            "window": window,
            "front_hypervolume": pair_hypervolume(scores),
            "best_front_rmsd_A": decoys.best_rmsd(),
            "n_decoys": len(decoys),
            "problems": problems,
            "digests": digests,
            "ledger": {
                name: record.total_seconds for name, record in ledger.records.items()
            },
        },
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    parser.add_argument("role", choices=("setup", "trajectory", "daemon", "serve"))
    parser.add_argument("--spans", default=None)
    parser.add_argument("--pace", default=None)
    parser.add_argument("--target")
    parser.add_argument("--doc")
    parser.add_argument("--store")
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args, rest = parser.parse_args(argv[:split]), argv[split + 1:]
    tracer = None
    if args.spans:
        tracer = spans.Tracer()
        tracer.record("repro.import", _START, _IMPORTED)
        spans.install(tracer)
    try:
        if args.role == "setup":
            _emit("READY", _setup(args.target))
            code = 0
        elif args.role == "trajectory":
            code = _trajectory(args)
        elif args.role == "daemon":
            code = repro.cli.daemon_main(rest)
        else:
            code = repro.cli.serve_main(rest)
    finally:
        if _PROBE is not None:
            _PROBE.stop()
            _PROBE.dump(args.pace)
        if tracer is not None:
            tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
