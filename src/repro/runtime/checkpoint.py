"""Checkpoint serialisation of :class:`~repro.moscem.sampler.SamplerState`.

A checkpoint is two sibling files:

* ``checkpoint.npz`` — the population arrays (torsions, coordinates,
  closure atoms, scores, fitness) and the per-iteration histories;
* ``checkpoint.json`` — the scalar state (iteration counter, temperature,
  master seed), the bit-generator states of the mutation and Metropolis
  streams, a content hash of the ``npz``, and a format version.

The JSON is written *after* the ``npz`` and both writes go through a
temp-file + atomic rename, so a crash mid-save leaves either the previous
complete checkpoint or a rejected partial one — never a silently wrong
state.  :func:`load_checkpoint` verifies the hash before touching any
array, so truncated or bit-flipped checkpoints raise
:class:`CheckpointError` instead of resuming from garbage.

Resuming restores the exact arrays and RNG streams, so a trajectory
checkpointed at iteration *k* and resumed is bit-identical to one that was
never interrupted (see ``tests/property/test_checkpoint_resume.py``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.io import write_json_atomic, write_npz_atomic
from repro.moscem.metropolis import TemperatureSchedule
from repro.moscem.population import Population
from repro.moscem.sampler import MOSCEMSampler, SamplerState
from repro.utils.rng import RandomStreams

__all__ = [
    "CheckpointError",
    "CHECKPOINT_FORMAT_VERSION",
    "checkpoint_paths",
    "has_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "load_checkpoint_extra",
]

#: Version stamp of the checkpoint layout.
CHECKPOINT_FORMAT_VERSION: int = 1

_NPZ_NAME = "checkpoint.npz"
_JSON_NAME = "checkpoint.json"


class CheckpointError(RuntimeError):
    """A checkpoint is missing, corrupted, or inconsistent with its run."""


def checkpoint_paths(directory: Union[str, Path]) -> Dict[str, Path]:
    """The ``npz``/``json`` paths of the checkpoint in ``directory``."""
    directory = Path(directory)
    return {"npz": directory / _NPZ_NAME, "json": directory / _JSON_NAME}


def has_checkpoint(directory: Union[str, Path]) -> bool:
    """Whether both checkpoint files exist in ``directory``."""
    paths = checkpoint_paths(directory)
    return paths["npz"].is_file() and paths["json"].is_file()


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def save_checkpoint(
    directory: Union[str, Path],
    state: SamplerState,
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Persist ``state`` into ``directory``; returns the JSON path.

    ``extra`` entries are stored under the ``"extra"`` key of the JSON
    (e.g. the shard index or target name, for human inspection).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = checkpoint_paths(directory)
    population = state.population

    arrays = {
        "torsions": population.torsions,
        "coords": population.coords,
        "closure": population.closure,
        "scores": population.scores,
        "acceptance_history": np.asarray(state.acceptance_history, dtype=np.float64),
        "temperature_history": np.asarray(state.temperature_history, dtype=np.float64),
    }
    if population.fitness is not None:
        arrays["fitness"] = population.fitness

    # The atomic npz writer serialises into memory and returns exactly the
    # bytes it wrote, so the hash needs no read-back of a large npz file.
    blob = write_npz_atomic(paths["npz"], arrays)
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "iteration": int(state.iteration),
        "temperature": float(state.schedule.temperature),
        "seed": None if state.seed is None else int(state.seed),
        "rng": state.rng_states(),
        "npz_sha256": hashlib.sha256(blob).hexdigest(),
        "extra": dict(extra or {}),
    }
    write_json_atomic(paths["json"], payload)
    return paths["json"]


def _load_payload(paths: Dict[str, Path]) -> Dict[str, Any]:
    if not paths["json"].is_file():
        raise CheckpointError(f"no checkpoint manifest at {paths['json']}")
    if not paths["npz"].is_file():
        raise CheckpointError(f"checkpoint arrays missing at {paths['npz']}")
    try:
        payload = json.loads(paths["json"].read_text())
    except (ValueError, OSError) as exc:
        raise CheckpointError(
            f"unreadable checkpoint manifest {paths['json']}: {exc}"
        ) from exc
    version = int(payload.get("format_version", -1))
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format_version {version}; "
            f"expected {CHECKPOINT_FORMAT_VERSION}"
        )
    digest = _sha256(paths["npz"])
    if digest != payload.get("npz_sha256"):
        raise CheckpointError(
            f"checkpoint arrays {paths['npz']} do not match their recorded "
            "hash (partial write or corruption) — refusing to resume"
        )
    return payload


def load_checkpoint_extra(directory: Union[str, Path]) -> Dict[str, Any]:
    """The ``extra`` metadata of the checkpoint in ``directory``.

    Returns ``{}`` when no checkpoint manifest exists.  Reads the JSON
    only — no array hash verification — so callers that just need the
    bookkeeping fields (e.g. the migration-epoch counter the executor
    stores alongside the state) pay no npz scan; the arrays are verified
    when :func:`load_checkpoint` restores the state proper.
    """
    paths = checkpoint_paths(Path(directory))
    if not paths["json"].is_file():
        return {}
    try:
        payload = json.loads(paths["json"].read_text())
    except (ValueError, OSError) as exc:
        raise CheckpointError(
            f"unreadable checkpoint manifest {paths['json']}: {exc}"
        ) from exc
    extra = payload.get("extra", {})
    return dict(extra) if isinstance(extra, dict) else {}


def load_checkpoint(
    directory: Union[str, Path], sampler: MOSCEMSampler
) -> SamplerState:
    """Restore a :class:`SamplerState` from ``directory`` for ``sampler``.

    The sampler supplies the configuration the validation comes from; a
    checkpoint whose population shape disagrees with the sampler's
    configuration is rejected.  The schedule resumes at the stored
    temperature with :class:`TemperatureSchedule`'s default bounds.
    """
    paths = checkpoint_paths(Path(directory))
    payload = _load_payload(paths)
    config = sampler.config

    with np.load(paths["npz"]) as data:
        torsions = np.array(data["torsions"], dtype=np.float64)
        coords = np.array(data["coords"], dtype=np.float64)
        closure = np.array(data["closure"], dtype=np.float64)
        scores = np.array(data["scores"], dtype=np.float64)
        fitness = (
            np.array(data["fitness"], dtype=np.float64)
            if "fitness" in data.files
            else None
        )
        acceptance = [float(x) for x in data["acceptance_history"]]
        temperatures = [float(x) for x in data["temperature_history"]]

    if torsions.shape[0] != config.population_size:
        raise CheckpointError(
            f"checkpoint population has {torsions.shape[0]} members but the "
            f"sampler is configured for {config.population_size}"
        )
    iteration = int(payload["iteration"])
    if not (0 <= iteration <= config.iterations):
        raise CheckpointError(
            f"checkpoint iteration {iteration} outside the configured "
            f"range [0, {config.iterations}]"
        )
    if len(acceptance) != iteration or len(temperatures) != iteration:
        raise CheckpointError(
            "checkpoint histories disagree with the iteration counter"
        )

    try:
        population = Population(
            torsions=torsions,
            coords=coords,
            closure=closure,
            scores=scores,
            fitness=fitness,
        )
    except ValueError as exc:
        raise CheckpointError(f"inconsistent checkpoint arrays: {exc}") from exc

    schedule = TemperatureSchedule(temperature=float(payload["temperature"]))
    seed = payload.get("seed")
    streams = RandomStreams(None if seed is None else int(seed))
    state = SamplerState(
        iteration=iteration,
        population=population,
        schedule=schedule,
        mutation_rng=streams.get("mutation"),
        metropolis_rng=streams.get("metropolis"),
        acceptance_history=acceptance,
        temperature_history=temperatures,
        seed=None if seed is None else int(seed),
    )
    try:
        state.restore_rng_states(payload["rng"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid RNG state in checkpoint: {exc}") from exc
    return state
