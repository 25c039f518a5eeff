"""Shared infrastructure of the experiment drivers.

Every table and figure of the paper's evaluation section has one driver
class in this package.  A driver knows

* which paper artefact it reproduces (``experiment_id``, ``paper_reference``),
* how to run the underlying workload at several *scales* (the paper-scale
  parameters are hours of compute on this pure-Python substrate, so each
  driver also defines scaled-down presets for benches and smoke tests),
* how to render its result as text tables comparable with the paper.

Trajectory workloads are declared as a campaign grid and run through
:meth:`Experiment.run_campaign` (or, for decoy sets collected until a
budget is full, :meth:`Experiment.collect_decoys`), so every cell gets a
coordinate-derived seed and the driver's tables are views over the typed
:class:`~repro.api.results.CampaignResult` (its decoy sets and its stored
kernel and host ledgers).

Drivers register themselves in :data:`EXPERIMENT_REGISTRY` so the runner and
the command-line interface can enumerate them.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Sequence, Type, Union

from repro.analysis.reporting import TextTable
from repro.config import SamplingConfig

if TYPE_CHECKING:  # the campaign layer is imported lazily, on first run
    from repro.api.results import CampaignResult
    from repro.moscem.decoys import DecoySet

__all__ = [
    "Scale",
    "ExperimentResult",
    "Experiment",
    "EXPERIMENT_REGISTRY",
    "register_experiment",
    "get_experiment",
    "list_experiments",
]

#: Recognised scale names, from cheapest to the paper's own parameters.
Scale = str
SCALES: Sequence[Scale] = ("smoke", "default", "paper")


@dataclass
class ExperimentResult:
    """Outcome of one experiment driver run.

    Attributes
    ----------
    experiment_id:
        Short identifier (``"fig3"``, ``"table1"``, ...).
    title:
        Human-readable experiment title.
    paper_reference:
        The table/figure of the paper this reproduces.
    scale:
        The scale preset the run used.
    tables:
        Rendered result tables (one or more), comparable with the paper.
    data:
        Raw result values keyed by name, consumed by benches and tests.
    notes:
        Free-form remarks, e.g. on scaled-down parameters.
    wall_seconds:
        Total wall-clock time of the experiment run.
    """

    experiment_id: str
    title: str
    paper_reference: str
    scale: Scale
    tables: List[TextTable] = field(default_factory=list)
    data: Dict[str, Any] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    def render(self) -> str:
        """Render the experiment header, notes and every table as plain text."""
        lines = [
            f"== {self.experiment_id.upper()}: {self.title} ==",
            f"reproduces: {self.paper_reference}",
            f"scale: {self.scale}   wall time: {self.wall_seconds:.2f} s",
        ]
        for note in self.notes:
            lines.append(f"note: {note}")
        for table in self.tables:
            lines.append("")
            lines.append(table.render())
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """Markdown rendering used when assembling EXPERIMENTS.md."""
        lines = [
            f"### {self.experiment_id.upper()} — {self.title}",
            "",
            f"*Reproduces {self.paper_reference}; run at scale `{self.scale}` "
            f"in {self.wall_seconds:.2f} s.*",
            "",
        ]
        for note in self.notes:
            lines.append(f"> {note}")
        if self.notes:
            lines.append("")
        for table in self.tables:
            lines.append(table.render_markdown())
            lines.append("")
        return "\n".join(lines)


class Experiment(abc.ABC):
    """Base class of all experiment drivers."""

    #: Short identifier used by the registry, the runner and the benches.
    experiment_id: str = ""
    #: Human-readable title.
    title: str = ""
    #: Which artefact of the paper the driver reproduces.
    paper_reference: str = ""

    #: Per-scale sampling parameters; subclasses override as needed.
    scale_configs: Mapping[Scale, SamplingConfig] = {}

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    # ------------------------------------------------------------------
    # Scale handling
    # ------------------------------------------------------------------

    def config_for_scale(self, scale: Scale) -> SamplingConfig:
        """The sampling configuration of a scale preset."""
        if scale not in self.scale_configs:
            raise KeyError(
                f"{self.experiment_id} has no scale {scale!r}; "
                f"available: {sorted(self.scale_configs)}"
            )
        return self.scale_configs[scale].with_seed(self.seed)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _grid(self, name, targets, configs, seeds, backends=("gpu",)):
        """The driver's campaign: coordinate-derived seeds, inline cells."""
        from repro.api import campaign

        return campaign(
            name,
            targets=targets,
            configs=configs,
            seeds=seeds,
            backends=backends,
            base_seed=self.seed,
            checkpoint_every=0,
            workers=1,
        )

    def run_campaign(
        self,
        scale: Scale,
        targets: Union[str, Sequence[str]],
        configs: Union[SamplingConfig, Mapping[str, SamplingConfig]],
        seeds: Union[int, Sequence[int]] = 1,
        backends: Sequence[str] = ("gpu",),
    ) -> "CampaignResult":
        """Run the driver's trajectory grid as a campaign on a throwaway store.

        Cell seeds derive from :attr:`seed` and the cell coordinates
        (target, config name, seed label); independent trajectories belong
        on the ``seeds`` axis.  Cells run inline, without checkpoints.
        """
        from repro.api import Session

        grid = self._grid(
            f"{self.experiment_id}-{scale}", targets, configs, seeds, backends
        )
        with Session.ephemeral() as session:
            return session.run(grid)

    def collect_decoys(
        self,
        scale: Scale,
        targets: Sequence[str],
        config: SamplingConfig,
        trajectories: int,
        max_decoys: int,
    ) -> Dict[str, "DecoySet"]:
        """Each target's decoy set, its trajectories run until the set is full.

        As in the paper, trajectories are repeated until ``max_decoys``
        distinct decoys are collected or ``trajectories`` have run.  Round
        ``k`` runs seed label ``k`` of every target whose set is not yet
        full, so cell seeds stay coordinate-derived and each set equals
        ``merge_decoy_sets(..., distinct_only=True, max_size=max_decoys)``
        over all ``trajectories`` cells of its target.
        """
        from repro.analysis.aggregation import merge_decoy_sets
        from repro.api import Session

        cells: Dict[str, List["DecoySet"]] = {name: [] for name in targets}
        merged: Dict[str, "DecoySet"] = {}
        with Session.ephemeral() as session:
            for label in range(trajectories):
                pending = [n for n in targets if n not in merged or not merged[n].full]
                if not pending:
                    break
                grid = self._grid(
                    f"{self.experiment_id}-{scale}-{label}", pending, config, [label]
                )
                result = session.run(grid)
                for name in pending:
                    cells[name].extend(t.decoys for t in result.select(target=name))
                    merged[name] = merge_decoy_sets(
                        cells[name], distinct_only=True, max_size=max_decoys
                    )
        return merged

    @abc.abstractmethod
    def execute(self, scale: Scale) -> ExperimentResult:
        """Run the experiment workload and build the (untimed) result."""

    def run(self, scale: Scale = "smoke") -> ExperimentResult:
        """Run the experiment at ``scale`` and stamp the wall-clock time."""
        start = time.perf_counter()
        result = self.execute(scale)
        result.wall_seconds = time.perf_counter() - start
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.__class__.__name__}(id={self.experiment_id!r})"


#: Registry of experiment classes keyed by ``experiment_id``.
EXPERIMENT_REGISTRY: Dict[str, Type[Experiment]] = {}


def register_experiment(cls: Type[Experiment]) -> Type[Experiment]:
    """Class decorator adding an experiment driver to the registry."""
    if not cls.experiment_id:
        raise ValueError("experiment classes must define experiment_id")
    if cls.experiment_id in EXPERIMENT_REGISTRY:
        raise ValueError(f"duplicate experiment id: {cls.experiment_id!r}")
    EXPERIMENT_REGISTRY[cls.experiment_id] = cls
    return cls


def get_experiment(experiment_id: str, seed: int = 0) -> Experiment:
    """Instantiate a registered experiment driver by id."""
    try:
        cls = EXPERIMENT_REGISTRY[experiment_id]
    except KeyError as exc:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {sorted(EXPERIMENT_REGISTRY)}"
        ) from exc
    return cls(seed=seed)


def list_experiments() -> List[str]:
    """Identifiers of every registered experiment, sorted."""
    return sorted(EXPERIMENT_REGISTRY)
