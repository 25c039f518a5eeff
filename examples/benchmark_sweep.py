#!/usr/bin/env python
"""Benchmark sweep: decoy quality across a slice of the 53-target benchmark.

This example mirrors the paper's Table IV protocol at laptop scale: for a
selection of benchmark targets of different lengths (plus the named easy and
hard cases), run one campaign whose seeds axis holds each target's
trajectories, merge every target's decoy sets up to the decoy budget, then
report per-target and aggregate quality.

Run with::

    python examples/benchmark_sweep.py            # 8 targets, a few minutes
    python examples/benchmark_sweep.py --all      # all 53 targets (long)
"""

from __future__ import annotations

import argparse
from typing import List

from repro import SamplingConfig, Session, campaign
from repro.analysis.aggregation import merge_decoy_sets
from repro.analysis.decoys import DecoyQualityReport, evaluate_decoy_set
from repro.loops.targets import BenchmarkTarget, benchmark_registry


def select_targets(run_all: bool, count: int) -> List[BenchmarkTarget]:
    """A length-balanced selection that always contains the named cases."""
    registry = benchmark_registry()
    if run_all:
        return registry
    by_name = {t.name: t for t in registry}
    picked = [
        by_name["3pte(91:101)"],   # the paper's best case (0.42 A)
        by_name["1xyz(813:824)"],  # the paper's failure case (2.15 A, buried)
        by_name["1cex(40:51)"],    # the profiling/speedup workhorse
        by_name["5pti(7:17)"],     # the front-evolution case study
    ]
    for entry in registry:
        if len(picked) >= count:
            break
        if entry not in picked:
            picked.append(entry)
    return picked[:count]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--all", action="store_true", help="run all 53 targets")
    parser.add_argument("--targets", type=int, default=8, help="number of targets")
    parser.add_argument("--population", type=int, default=192, help="population size")
    parser.add_argument("--iterations", type=int, default=12, help="MOSCEM iterations")
    parser.add_argument("--decoys", type=int, default=30, help="decoys per target")
    parser.add_argument("--trajectories", type=int, default=3, help="trajectories per target")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = SamplingConfig(
        population_size=args.population,
        n_complexes=8,
        iterations=args.iterations,
    )
    report = DecoyQualityReport(thresholds=(1.0, 1.5, 2.5, 3.5))
    targets = select_targets(args.all, args.targets)
    print(f"Running {len(targets)} targets "
          f"(population {args.population}, {args.iterations} iterations, "
          f"{args.trajectories} trajectories and up to {args.decoys} decoys "
          f"per target)\n")

    grid = campaign(
        "benchmark-sweep",
        targets=[entry.name for entry in targets],
        configs=config,
        seeds=args.trajectories,
        base_seed=args.seed,
        checkpoint_every=0,
        workers=1,
    )
    with Session.ephemeral() as session:
        result = session.run(grid)

    for entry in targets:
        decoys = merge_decoy_sets(
            [cell.decoys for cell in result.select(target=entry.name)],
            distinct_only=True,
            max_size=args.decoys,
        )
        quality = evaluate_decoy_set(
            decoys, entry.name, entry.length, thresholds=report.thresholds
        )
        report.add(quality)
        print(
            f"  {entry.name:<16} {entry.length:>2} residues  "
            f"{quality.n_decoys:>4} decoys  best {quality.best_rmsd:5.2f} A  "
            f"mean {quality.mean_rmsd:5.2f} A"
            f"{'   (buried)' if entry.buried else ''}"
        )

    print()
    print(report.render("Aggregate decoy quality (Table IV layout)"))
    worst = report.worst_target()
    if worst is not None:
        print(f"\nHardest target: {worst.target_name} "
              f"(best decoy {worst.best_rmsd:.2f} A)")


if __name__ == "__main__":
    main()
