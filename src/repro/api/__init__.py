"""The public API of the reproduction: one front door for every workload.

The paper's headline tables are grids of *targets x configs x seeds x
backends*; this package is the single surface that declares, executes and
aggregates such grids:

* **Declare** — :func:`campaign` / :func:`load_campaign` build a
  :class:`Campaign` (builder keywords, a dict, or a TOML/JSON file) that
  expands into one persisted manifest of independent trajectory cells with
  deterministic per-cell seeds.
* **Execute** — :class:`Session` runs a campaign synchronously
  (:meth:`Session.run`) or submits it asynchronously
  (:meth:`Session.submit` returns a :class:`CampaignHandle` immediately; a
  ``repro-daemon`` process drains the store, and the handle polls
  ``status()``/``result()``/``cancel()``).  Execution is checkpointed and
  idempotent, so killed daemons and re-submitted campaigns resume instead
  of recomputing.
* **Aggregate** — results come back typed: a :class:`CampaignResult` of
  per-cell :class:`TrajectoryResult` objects with decoy sets and timing
  ledgers, aggregated per target through :mod:`repro.analysis`.
* **Extend** — backends and scoring functions are looked up in
  string-keyed registries (:func:`register_backend`,
  :func:`register_scorer`, setuptools entry-point groups
  ``repro.backends`` / ``repro.scorers``), so new components plug in
  without touching the core.

Quickstart::

    from repro.api import Session, campaign
    from repro.config import SamplingConfig

    grid = campaign(
        "table-iv-smoke",
        targets=["1cex(40:51)", "1akz(181:192)"],
        configs=SamplingConfig(population_size=64, n_complexes=4, iterations=10),
        seeds=2,
        backends=["gpu"],
    )
    session = Session(".repro-runs")
    handle = session.submit(grid)        # returns immediately
    # ... `repro-daemon --drain-once` executes the cells ...
    result = handle.result(timeout=600)  # typed CampaignResult
    print(result.to_table().render())

A batch of trajectories over one target is a one-target campaign; the
other entry points (``repro-experiments``, ``repro-sample``, the
programmatic ``MOSCEMSampler``) are thin wrappers over — or special cases
of — this layer.
"""

from repro.api.campaign import (
    campaign,
    campaign_from_dict,
    expand_grid,
    load_campaign,
)
from repro.api.daemon import DEFAULT_MAX_ATTEMPTS, DrainReport, drain_once, serve
from repro.api.registry import (
    BACKENDS,
    SCORERS,
    ComponentRegistry,
    RegistryError,
    backend_names,
    register_backend,
    register_scorer,
    scorer_names,
)
from repro.api.results import CampaignResult, TrajectoryResult
from repro.api.session import (
    CampaignError,
    CampaignHandle,
    CampaignIncomplete,
    CampaignStatus,
    CampaignTooLarge,
    CellStatus,
    Session,
)
from repro.islands import IslandPlan, MigrationBroker, MigrationPolicy
from repro.runtime.spec import Campaign, CellSpec, campaign_cell_seed

__all__ = [
    # Declaration
    "Campaign",
    "CellSpec",
    "campaign",
    "campaign_from_dict",
    "load_campaign",
    "expand_grid",
    "campaign_cell_seed",
    # Execution
    "Session",
    "CampaignHandle",
    "CampaignStatus",
    "CellStatus",
    "CampaignError",
    "CampaignIncomplete",
    "CampaignTooLarge",
    "DrainReport",
    "DEFAULT_MAX_ATTEMPTS",
    "drain_once",
    "serve",
    # Island migration
    "MigrationPolicy",
    "MigrationBroker",
    "IslandPlan",
    # Results
    "CampaignResult",
    "TrajectoryResult",
    # Component registry
    "ComponentRegistry",
    "RegistryError",
    "BACKENDS",
    "SCORERS",
    "register_backend",
    "register_scorer",
    "backend_names",
    "scorer_names",
]
