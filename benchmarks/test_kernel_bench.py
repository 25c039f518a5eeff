"""Paper-scale kernel benchmark across the xp facade's backend tiers.

Times the hot kernels ported onto the :mod:`repro.xp` facade — the
soft-sphere penalty reduction (EvalVDW's inner loop), the binned table
gather (EvalDIST's), the strength-fitness dominance pass ([FitAssg]
within the population) and its complex-wise form (``fitness_against``
once per complex of 128, with ~170 queries: the members and the
proposals a step scores), batched NeRF backbone construction and
batched CCD closure — at the paper's 15,360-member population (120
complexes x 128 members), through three routes:

* **numpy** — the public wrappers' direct path, the repo's determinism
  baseline (for CCD, the two pair reductions and the two dominance
  passes the compiled passes of :mod:`repro.native`);
* **numpy bundle** — the generic kernels routed through a numpy-bound
  :class:`~repro.xp.dispatch.KernelBundle`, measuring the facade's
  dispatch overhead (it must be negligible).  Where the direct route is
  compiled (CCD and the ``COMPILED`` kernels) the two routes are
  different implementations, so the bundle's overhead is measured
  against the same generic kernels with the bundle bypassed
  (``compiled``, which also records how much faster the compiled route
  is; ``ccd_masked`` for the masked CCD sweep);
* **jax jit** — the kernels bound to the JAX namespace and jit-compiled,
  timed after a compile warmup with ``block_until_ready``.  Recorded as
  ``null`` when the jax wheel is not installed (the committed baseline
  file comes from a CPU-only environment), so diffs of this file on a
  JAX-capable runner fill the column in rather than changing shape.

The numpy and bundle routes run on one member thread.  The kernels that
split their members across member threads (the two pair reductions and
CCD) are also timed on the numpy route at one thread and at the count an
inline cell gets on this host, back to back per kernel
(``member_threads``, next to ``cores``).  CCD is timed there in a second
shape too, ``ccd_close_batch_step``: a MOSCEM step's call, mutation
proposals with their start indices, so most pivots move a column prefix
of the members.  So are the whole EvalVDW and EvalDIST scorers
(``vdw_scorer``, ``dist_scorer``: every term, the environment included)
on the population's built chains.

Results land in ``BENCH_kernels.json`` at the repo root (committed, so
facade-overhead, jit-speedup and member-thread claims can be diffed
against the tree).

Run with ``pytest -m benchmarks benchmarks/test_kernel_bench.py -s``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Callable, Dict, Optional

import numpy as np

from repro.closure.ccd import _ccd_sweep, ccd_close_batch
from repro.geometry.nerf import build_backbone_batch
from repro.loops.targets import make_target
from repro.moscem.dominance import _dominance_columns, fitness_against, strength_fitness
from repro.moscem.mutation import mutate_population
from repro.scoring.distance import DistanceScore
from repro.scoring.pairwise import (
    _binned_gather_sum,
    _indexed_penalty_block,
    binned_table_sum,
    indexed_penalty_sum,
    member_thread_count,
    squared_bin_edges,
    using_member_threads,
)
from repro.scoring.vdw import SoftSphereVDW
from repro.xp import bind_kernels, block_until_ready, has_jax, numpy_kernels
from repro.xp.xp import numpy_namespace

from conftest import bench_scale

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUTPUT = REPO_ROOT / "BENCH_kernels.json"

#: Paper-scale population (120 complexes x 128 members) — fixed across
#: scale presets: the point of this file is the paper-scale comparison.
PAPER_POPULATION = 15360

#: Loop length (residues) of the paper's hardest benchmark class.
LOOP_RESIDUES = 12

#: The kernels that split their members across member threads (CCD in
#: the initial-population and the step shape) and the two whole scorers
#: built on the pair reductions.
THREADED = (
    "binned_table_sum",
    "ccd_close_batch",
    "ccd_close_batch_step",
    "dist_scorer",
    "soft_sphere_penalty",
    "vdw_scorer",
)

#: The scoring and dominance kernels whose direct route is compiled.
COMPILED = (
    "binned_table_sum", "fitness_against", "soft_sphere_penalty", "strength_fitness",
)

#: Proposals a step scores per complex next to its 128 members (the
#: closure gate admits about a third).
COMPLEX_PROPOSALS = 42

#: Timed repeats per kernel (median taken), by scale preset.
_REPEATS = {"smoke": 3, "default": 5, "paper": 9}


def _median_of(fn: Callable[[], object], repeats: int) -> float:
    """Median of ``repeats`` timed calls after one untimed warmup."""
    fn()  # warmup: first-touch allocations, jit compilation, ramp
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def _problem():
    """One paper-scale input set shared by every kernel timing."""
    rng = np.random.default_rng(0)
    atoms = LOOP_RESIDUES * 4
    coords = rng.normal(scale=6.0, size=(PAPER_POPULATION, atoms, 3))
    first, second = np.triu_indices(atoms, k=4)
    sq_contacts = np.full(first.size, 9.0)
    sq_edges = squared_bin_edges(15.0, 30)
    tables = rng.normal(size=(first.size, sq_edges.shape[0]))
    scores = rng.normal(size=(PAPER_POPULATION, 3))
    proposal_scores = rng.normal(size=(PAPER_POPULATION, 3))
    complexes = []
    for rows in np.array_split(np.arange(PAPER_POPULATION), 120):
        proposed = proposal_scores[rows[:COMPLEX_PROPOSALS]]
        complexes.append((scores[rows], np.concatenate([scores[rows], proposed])))
    target = make_target("bench", 1, LOOP_RESIDUES, seed=5)
    torsions = rng.uniform(-np.pi, np.pi, size=(PAPER_POPULATION, 2 * LOOP_RESIDUES))
    proposals, starts = mutate_population(torsions, target.sequence, rng)
    return {
        "coords": coords,
        "first": first,
        "second": second,
        "sq_contacts": sq_contacts,
        "sq_edges": sq_edges,
        "tables": tables,
        "scores": scores,
        "complexes": complexes,
        "target": target,
        "torsions": torsions,
        "proposals": proposals,
        "starts": starts,
    }


class _Unbundled:
    """The generic kernels called as plain functions on the numpy
    namespace: the numpy bundle's routes minus the bundle."""

    namespace = numpy_namespace()

    def ccd_sweep(self, *args):
        return _ccd_sweep(self.namespace, *args)

    def indexed_penalty_block(self, *args):
        return _indexed_penalty_block(self.namespace, *args)

    def binned_gather_sum(self, *args):
        return _binned_gather_sum(self.namespace, *args)

    def dominance_columns(self, *args):
        return _dominance_columns(self.namespace, *args)

    def to_numpy(self, array):
        return array


def _kernel_suite(p, kernels) -> Dict[str, Callable[[], object]]:
    """The timed calls, identical work through whichever bundle."""
    return {
        "soft_sphere_penalty": lambda: indexed_penalty_sum(
            p["coords"], p["coords"], p["first"], p["second"], p["sq_contacts"],
            kernels=kernels,
        ),
        "binned_table_sum": lambda: binned_table_sum(
            p["coords"], p["first"], p["second"], p["tables"], p["sq_edges"],
            kernels=kernels,
        ),
        "strength_fitness": lambda: strength_fitness(
            p["scores"], kernels=kernels
        ),
        "fitness_against": lambda: [
            fitness_against(ref, queries, kernels=kernels)
            for ref, queries in p["complexes"]
        ],
        "ccd_close_batch": lambda: ccd_close_batch(
            p["torsions"], p["target"], max_iterations=2, tolerance=0.25,
            kernels=kernels,
        ),
    }


def _time_suite(p, kernels, repeats: int) -> Dict[str, float]:
    return {
        name: round(_median_of(fn, repeats), 4)
        for name, fn in sorted(_kernel_suite(p, kernels).items())
    }


def _time_jax(p, repeats: int) -> Optional[Dict[str, float]]:
    """Jit-tier timings, or ``None`` without the wheel."""
    if not has_jax():
        return None
    kernels = bind_kernels("jax")
    timings = _time_suite(p, kernels, repeats)
    # NeRF chain build is jit-only (no kernels= route on the wrapper):
    # time the bound kernel directly, synchronised on its outputs.
    target = p["target"]
    timings["build_backbone_chain"] = round(
        _median_of(
            lambda: block_until_ready(
                kernels.build_backbone_chain(
                    p["torsions"], target.n_anchor, target.end_phi
                )
            ),
            repeats,
        ),
        4,
    )
    return timings


def test_kernel_tiers_paper_scale():
    repeats = _REPEATS.get(bench_scale(), 3)
    p = _problem()

    numpy_direct = _time_suite(p, None, repeats)
    numpy_bundle = _time_suite(p, numpy_kernels(), repeats)
    numpy_direct["build_backbone_chain"] = round(
        _median_of(
            lambda: build_backbone_batch(
                p["torsions"], p["target"].n_anchor, p["target"].end_phi
            ),
            repeats,
        ),
        4,
    )
    unbundled = {
        name: round(_median_of(fn, repeats), 4)
        for name, fn in sorted(_kernel_suite(p, _Unbundled()).items())
        if name in COMPILED + ("ccd_close_batch",)
    }
    jax_jit = _time_jax(p, repeats)
    # Each kernel at one thread and at an inline cell's share of the host,
    # back to back, so both columns see the same host speed.
    threads = member_thread_count(1)
    suite = _kernel_suite(p, None)
    suite["ccd_close_batch_step"] = lambda: ccd_close_batch(
        p["proposals"], p["target"], start_indices=p["starts"],
        max_iterations=2, tolerance=0.25,
    )
    chains, _ = p["target"].build_batch(p["torsions"])
    vdw, dist = SoftSphereVDW(p["target"]), DistanceScore(p["target"])
    suite["vdw_scorer"] = lambda: vdw.evaluate_batch(chains, None)
    suite["dist_scorer"] = lambda: dist.evaluate_batch(chains, None)
    one_thread, threaded = {}, {}
    for name in THREADED:
        for count, column in ((1, one_thread), (threads, threaded)):
            with using_member_threads(count):
                column[name] = round(_median_of(suite[name], repeats), 4)

    report = {
        "scale": bench_scale(),
        "config": {
            "population": PAPER_POPULATION,
            "loop_residues": LOOP_RESIDUES,
            "repeats": repeats,
        },
        "jax_available": has_jax(),
        "numpy_seconds": numpy_direct,
        "numpy_bundle_seconds": numpy_bundle,
        "ccd_masked": {
            "bundle_seconds": numpy_bundle["ccd_close_batch"],
            "unbundled_seconds": unbundled["ccd_close_batch"],
            # Informational: how much faster the compiled sweep (the
            # direct route) is than the masked one.
            "masked_over_compiled": round(
                numpy_bundle["ccd_close_batch"] / numpy_direct["ccd_close_batch"], 2
            ),
        },
        "compiled": {
            name: {
                "bundle_seconds": numpy_bundle[name],
                "unbundled_seconds": unbundled[name],
                # Informational: how much faster the compiled pass (the
                # direct route) is than the generic numpy kernel.
                "numpy_over_compiled": round(unbundled[name] / numpy_direct[name], 2),
            }
            for name in COMPILED
        },
        "jax_jit_seconds": jax_jit,
        "cores": (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        ),
        "member_threads": {
            "threads": threads,
            "one_thread_seconds": one_thread,
            "seconds": threaded,
        },
    }
    OUTPUT.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print()
    print(f"kernel timings at population {PAPER_POPULATION} ({repeats} repeats):")
    for name in sorted(set(numpy_direct) | set(numpy_bundle)):
        direct = numpy_direct.get(name)
        bundle = numpy_bundle.get(name)
        jit = (jax_jit or {}).get(name)
        row = f"  {name:>22}: numpy {direct:8.4f}s"
        if bundle is not None:
            row += f"  bundle {bundle:8.4f}s"
        row += f"  jit {jit:8.4f}s" if jit is not None else "  jit      n/a"
        print(row)
    for name in THREADED:
        print(
            f"  {name:>22}: 1 thread {one_thread[name]:8.4f}s  "
            f"{threads} threads {threaded[name]:8.4f}s"
        )
    for name in COMPILED + ("ccd_close_batch",):
        print(
            f"  {name + ' generic':>22}: bundle {numpy_bundle[name]:8.4f}s  "
            f"unbundled {unbundled[name]:8.4f}s"
        )
    print(f"wrote {OUTPUT.name}")

    # The facade's dispatch layer must be invisible at paper scale: the
    # bundle route re-runs the identical numpy kernels, so anything past
    # a modest margin is overhead the facade itself introduced.  Where
    # the direct route is compiled (the pair reductions, the dominance
    # passes, and CCD's atom-major sweep against the masked member-major
    # one, the jit-compatible shape), the bundle is held against the same
    # generic kernels with the bundle bypassed.
    allowance = 1.6
    for name, direct in numpy_direct.items():
        bundle = numpy_bundle.get(name)
        if bundle is None:
            continue
        direct = unbundled.get(name, direct)
        assert bundle <= max(direct * allowance, direct + 0.05), (
            f"{name}: bundle route {bundle:.4f}s vs direct {direct:.4f}s "
            f"exceeds the {allowance:.1f}x facade-overhead allowance"
        )

    if jax_jit is not None:
        # On a jit tier every kernel must at least stay in the same
        # ballpark as eager numpy (compile time is excluded by warmup).
        # Where the direct route is compiled, the jit tier (which runs the
        # generic kernels) is held against the same kernels unbundled, as
        # the facade gate is.
        for name, seconds in jax_jit.items():
            direct = numpy_direct.get(name)
            if direct is not None:
                direct = unbundled.get(name, direct)
                assert seconds <= direct * 5.0, (
                    f"{name}: jit path {seconds:.4f}s is pathologically "
                    f"slower than numpy {direct:.4f}s"
                )
