#!/usr/bin/env python
"""Quickstart: sample loop conformations for one benchmark target.

This is the smallest complete use of the library:

1. look up a benchmark loop target (a synthetic stand-in for the Jacobson
   benchmark loop 1cex(40:51) used throughout the paper),
2. run one MOSCEM multi-scoring-functions sampling trajectory on the
   population-batched ("GPU") backend,
3. harvest the structurally distinct non-dominated conformations as decoys,
4. report their quality and write the best decoy to a PDB file.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import MOSCEMSampler, SamplingConfig, get_target
from repro.analysis.decoys import evaluate_decoy_set
from repro.protein.pdb import loop_to_pdb
from repro.simt import KernelProfiler


def main() -> None:
    # 1. The loop-modelling problem: rebuild the 12-residue loop 1cex(40:51)
    #    between its fixed anchors, avoiding clashes with the rest of the
    #    protein (the "environment" point cloud).
    target = get_target("1cex(40:51)")
    print(f"Target: {target.describe()}")

    # 2. One sampling trajectory.  The paper uses population 15,360 and 100
    #    iterations; this example uses a laptop-scale configuration.
    config = SamplingConfig(
        population_size=256,
        n_complexes=8,
        iterations=15,
        seed=42,
    )
    sampler = MOSCEMSampler(target, config=config, backend_kind="gpu")
    result = sampler.run()
    print(
        f"Sampled population {config.population_size} for {config.iterations} "
        f"iterations in {result.wall_seconds:.1f} s on the {result.backend_name!r} backend"
    )
    print(f"Non-dominated conformations in the final population: {result.n_non_dominated()}")

    # 3. Structurally distinct non-dominated conformations (the paper's
    #    30-degree distinctness rule) form the decoy set.
    decoys = result.distinct_non_dominated()
    quality = evaluate_decoy_set(decoys, target.name, target.n_residues)
    print(f"Distinct decoys harvested: {quality.n_decoys}")
    print(f"Best decoy RMSD to native: {quality.best_rmsd:.2f} A")
    print(f"Mean decoy RMSD to native: {quality.mean_rmsd:.2f} A")

    # 4. Write the best decoy (and the native, for comparison) as PDB files.
    if len(decoys):
        best = min(decoys, key=lambda d: d.rmsd)
        loop_to_pdb(best.coords, target.sequence, "quickstart_best_decoy.pdb")
        loop_to_pdb(target.native_coords, target.sequence, "quickstart_native.pdb")
        print("Wrote quickstart_best_decoy.pdb and quickstart_native.pdb")

    # The kernel ledger (kernel sections plus modelled memcpy records)
    # reproduces the paper's Table II profiling view.
    print()
    print(KernelProfiler(ledger=result.kernel_ledger).render())


if __name__ == "__main__":
    main()
