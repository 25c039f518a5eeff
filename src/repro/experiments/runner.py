"""Run experiments in bulk and assemble reports.

The runner is what the command-line interface, the examples and the
EXPERIMENTS.md generator use: it instantiates registered experiment drivers,
runs them at a chosen scale and collects their results.  Bulk runs route
through the runtime executor's :func:`~repro.runtime.executor.parallel_map`,
so multi-experiment reports (and with them the multi-target tables) spread
across worker processes when ``workers > 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.experiments.base import (
    EXPERIMENT_REGISTRY,
    ExperimentResult,
    Scale,
    get_experiment,
    list_experiments,
)
from repro.scoring.pairwise import sharing_cores
from repro.utils.logging import get_logger

__all__ = ["RunnerReport", "run_experiment", "run_experiments", "PAPER_EXPERIMENTS"]

#: The experiments that correspond one-to-one to a table or figure of the
#: paper (the ablations are extra).
PAPER_EXPERIMENTS: Sequence[str] = (
    "fig1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table1",
    "table2",
    "table3",
    "table4",
)


@dataclass
class RunnerReport:
    """Results of a batch of experiment runs."""

    scale: Scale
    results: List[ExperimentResult] = field(default_factory=list)

    def by_id(self) -> Dict[str, ExperimentResult]:
        """Results keyed by experiment id."""
        return {r.experiment_id: r for r in self.results}

    def total_seconds(self) -> float:
        """Total wall-clock time across all experiments."""
        return sum(r.wall_seconds for r in self.results)

    def render(self) -> str:
        """Plain-text rendering of every experiment result."""
        blocks = [result.render() for result in self.results]
        footer = (
            f"\n{len(self.results)} experiments at scale {self.scale!r} in "
            f"{self.total_seconds():.1f} s"
        )
        return "\n\n".join(blocks) + footer

    def render_markdown(self) -> str:
        """Markdown rendering (the body of EXPERIMENTS.md)."""
        return "\n".join(result.render_markdown() for result in self.results)


def run_experiment(
    experiment_id: str, scale: Scale = "smoke", seed: int = 0
) -> ExperimentResult:
    """Run a single registered experiment by id."""
    driver = get_experiment(experiment_id, seed=seed)
    return driver.run(scale)


def _experiment_task(payload: Dict[str, Any]) -> ExperimentResult:
    """Picklable worker entry point for one experiment driver run.

    The ``processes`` experiments running at once share the host's cores,
    so the driver's inline cells each get ``cores // processes`` member
    threads (:func:`~repro.scoring.pairwise.member_thread_count`).
    """
    with sharing_cores(payload["processes"]):
        return run_experiment(
            payload["experiment_id"], scale=payload["scale"], seed=payload["seed"]
        )


def run_experiments(
    experiment_ids: Optional[Iterable[str]] = None,
    scale: Scale = "smoke",
    seed: int = 0,
    workers: int = 1,
) -> RunnerReport:
    """Run several experiments and bundle their results.

    Parameters
    ----------
    experiment_ids:
        Ids to run; defaults to the paper's tables/figures
        (:data:`PAPER_EXPERIMENTS`).  Pass ``list_experiments()`` to include
        the ablations as well.
    scale:
        Scale preset passed to every driver.
    seed:
        Seed passed to every driver.
    workers:
        Worker processes the experiments fan out across (``1`` runs them
        sequentially in-process).  Results come back in request order
        either way, and every driver seeds its own RNG streams, so the
        report does not depend on ``workers``.
    """
    logger = get_logger("experiments")
    ids = list(experiment_ids) if experiment_ids is not None else list(PAPER_EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENT_REGISTRY]
    if unknown:
        raise KeyError(
            f"unknown experiment ids: {unknown}; available: {list_experiments()}"
        )
    from repro.runtime.executor import parallel_map

    # Experiments running at once (``parallel_map`` runs them inline,
    # one at a time, on one worker or for one item).
    processes = max(1, min(workers, len(ids)))
    payloads = [
        {
            "experiment_id": experiment_id,
            "scale": scale,
            "seed": seed,
            "processes": processes,
        }
        for experiment_id in ids
    ]
    logger.info(
        "running %d experiment(s) at scale %s on %d worker(s)",
        len(ids), scale, max(1, workers),
    )
    results = parallel_map(
        _experiment_task,
        payloads,
        workers,
        on_result=lambda _i, result: logger.info(
            "experiment %s finished in %.2f s",
            result.experiment_id, result.wall_seconds,
        ),
    )
    return RunnerReport(scale=scale, results=list(results))
