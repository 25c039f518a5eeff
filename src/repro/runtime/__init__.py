"""Sharded multi-trajectory orchestration with checkpoint/resume.

The paper's headline numbers come from many independent MOSCEM trajectories
per loop target; this package is the layer that treats each trajectory as a
schedulable, restartable unit:

* :mod:`~repro.runtime.spec` — :class:`Campaign` / :class:`CampaignManifest`
  describe a grid of trajectories (targets x configs x seeds x backends),
  expanded into :class:`CellSpec` cells with deterministic per-cell seeds;
* :mod:`~repro.runtime.store` — :class:`RunStore`, the persistent on-disk
  store of manifests, checkpoints, per-shard decoy sets and timing ledgers;
* :mod:`~repro.runtime.checkpoint` — serialisation of the sampler's
  :class:`~repro.moscem.sampler.SamplerState` (``npz`` arrays + JSON
  manifest with a content hash), so an interrupted shard resumes
  bit-identically to an uninterrupted one;
* :mod:`~repro.runtime.executor` — :func:`run_cell`, which executes (or
  resumes) one cell, and :func:`parallel_map`, the worker-pool fan-out.

The user-facing surface is :mod:`repro.api` (``Session``, ``repro-campaign``,
``repro-daemon``).  It reaches cells through one drain path,
:func:`repro.api.daemon.drain_once`, whether ``Session.run`` drains its own
campaign in-process or a daemon fleet drains the store; the serving,
caching and island-migration layers all plug in above the same executor
and store.
"""

from repro.runtime.checkpoint import (
    CheckpointError,
    has_checkpoint,
    load_checkpoint,
    load_checkpoint_extra,
    save_checkpoint,
)
from repro.runtime.executor import (
    PersistentPool,
    ShardFailure,
    parallel_map,
    run_cell,
)
from repro.runtime.spec import (
    Campaign,
    CampaignManifest,
    CellSpec,
    campaign_cell_seed,
)
from repro.runtime.store import RunStore, RunStoreError

__all__ = [
    "CheckpointError",
    "has_checkpoint",
    "load_checkpoint",
    "load_checkpoint_extra",
    "save_checkpoint",
    "PersistentPool",
    "ShardFailure",
    "parallel_map",
    "run_cell",
    "Campaign",
    "CampaignManifest",
    "CellSpec",
    "campaign_cell_seed",
    "RunStore",
    "RunStoreError",
]
