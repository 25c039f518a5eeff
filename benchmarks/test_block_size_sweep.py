"""Kernel-block-size sweep at the paper-scale population (15,360 members).

``SamplingConfig.kernel_block_size`` controls how many population members
each batched scoring kernel processes per chunk.  On the generic numpy
kernels (the route of the ``xp`` backend's numpy bundle, and of every
caller when no C compiler works) the chunk size decides whether the
per-pair temporaries (squared distances, penalties, bin indices) stay
cache-resident.  The compiled passes of :mod:`repro.native`, the default
route, keep no per-pair temporaries, so there the block size only sets
the member-thread granularity.  This sweep times the two pair-heavy
engine kernels — the soft-sphere penalty reduction (EvalVDW's inner loop)
and the binned table sum (EvalDIST's) — on the generic kernels through
the numpy bundle, across block sizes at the paper's 15,360 member
population, and asserts the measured shape:

* timings are flat through the small-block regime (the tuned default of
  128, the paper's threads per block, sits here);
* a *cache cliff* appears as blocks grow — at >= 2,048 members the pair
  temporaries spill out of cache and the same arithmetic runs ~1.5x
  slower or worse.

The tuned default is asserted to be on the good side of the cliff, so a
regression in the chunking (or an over-eager "bigger blocks are better"
change) fails this benchmark rather than silently slowing paper-scale
runs.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Sequence

import numpy as np

from repro.config import SamplingConfig
from repro.scoring.pairwise import (
    binned_table_sum,
    indexed_penalty_sum,
    squared_bin_edges,
)
from repro.xp import numpy_kernels

#: Paper-scale population (120 complexes x 128 members).
PAPER_POPULATION = 15360

#: Loop length (residues) of the paper's hardest benchmark class.
LOOP_RESIDUES = 12

#: Swept block sizes: the flat regime, the default, and past the cliff.
BLOCK_SIZES: Sequence[int] = (32, 64, 128, 256, 512, 2048, PAPER_POPULATION)


def _median_of(fn: Callable[[], object], repeats: int = 3) -> float:
    """Median of ``repeats`` timed calls, after one untimed warmup.

    The median (not the min) is deliberate: transient turbo/cache effects
    produce one-off *fast* outliers that a min would keep, and the
    assertions below compare block sizes against each other.
    """
    fn()  # warmup: first-touch allocations and frequency ramp
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def _sweep() -> Dict[int, float]:
    rng = np.random.default_rng(0)
    atoms = LOOP_RESIDUES * 4
    coords = rng.normal(scale=6.0, size=(PAPER_POPULATION, atoms, 3))
    first, second = np.triu_indices(atoms, k=4)
    sq_contacts = np.full(first.size, 9.0)
    sq_edges = squared_bin_edges(15.0, 30)
    tables = rng.normal(size=(first.size, sq_edges.shape[0]))
    kernels = numpy_kernels()

    totals: Dict[int, float] = {}
    for block in BLOCK_SIZES:
        vdw = _median_of(
            lambda: indexed_penalty_sum(
                coords, coords, first, second, sq_contacts, block_size=block,
                kernels=kernels,
            )
        )
        dist = _median_of(
            lambda: binned_table_sum(
                coords, first, second, tables, sq_edges, block_size=block,
                kernels=kernels,
            )
        )
        totals[block] = vdw + dist
    return totals


def test_block_size_cache_cliff():
    totals = _sweep()

    print()
    print(f"pair-kernel time vs block size at population {PAPER_POPULATION}:")
    for block, seconds in totals.items():
        marker = " <- tuned default" if block == SamplingConfig().kernel_block_size else ""
        print(f"  block {block:>6}: {seconds:8.3f} s{marker}")

    default = SamplingConfig().kernel_block_size
    assert default in totals, "the tuned default must be part of the sweep"

    best = min(totals.values())
    # The tuned default sits in the flat regime.  Unloaded, it is within a
    # few percent of the sweep's best point; the margin absorbs shared-CI
    # noise while still catching a default moved onto the cliff (where the
    # slowdown is 1.5x+).
    assert totals[default] <= best * 1.5, (
        f"default block {default} is off the flat regime: "
        f"{totals[default]:.3f}s vs best {best:.3f}s"
    )
    # The cache cliff is real: the monolithic whole-population chunk runs
    # the same arithmetic ~1.6-2x slower than the tuned default (2,048 is
    # already past the knee; the table above records the full shape).
    assert totals[PAPER_POPULATION] >= totals[default] * 1.35, (
        f"expected a cache cliff at the monolithic block: "
        f"{totals[PAPER_POPULATION]:.3f}s vs default {totals[default]:.3f}s"
    )
