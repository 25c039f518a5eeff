"""Workload generator: campaign documents drawn from a seed.

Every workload is a function of ``(seed, scale)`` returning campaign
documents in the campaign-file schema (what ``repro-campaign submit`` reads,
as JSON), so the program under test only ever sees generated documents.
The same seed gives the same documents.

Targets come from the 53-target registry, as fixed panels, and the cells
(target, seed label, base seed) are fixed too: per-target cost differs by
up to 1.6x (CCD convergence, environment size), and the best front RMSD of
one cell moves by ~25% from one base seed to the next, so a run-to-run
comparison must not depend on which cells a seed picked.  Fixed cells also
make every run's outputs comparable byte for byte.  The seed draws the
campaign ids and the axis permutations, which change every cell's flat
index, the order cells are claimed and executed in, and the order
re-submitted cells are filled in -- but not what any cell computes.

``scale="tiny"`` shrinks every population and count so the harness
self-check finishes in seconds; it keeps the shapes.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

#: Table I's first loop (12 residues); the paper-scale cell's only target.
PAPER_TARGET = "1cex(40:51)"

#: One 10- and one 11-residue loop for the fleet drain.
FLEET_PANEL = ("1xif(59:68)", "5pti(7:17)")

#: Objective boxes (VDW, TRIPLET, DIST) of the hypervolume: the ideal
#: corner and the reference point, in raw score units.
HV_IDEAL = (0.0, 20.0, -1200.0)
HV_REFERENCE = (30.0, 120.0, -200.0)

#: The paper cell runs one iteration -- initialisation, one MOSCEM step and
#: finalisation: three population-wide [FitAssg] calls and two CCD closures,
#: 54-85 s on a 2-vCPU VM.  Each further iteration adds ~15 s to every run
#: of a benchmark that is repeated dozens of times, so that cell writes no
#: mid-run checkpoint; fleet_drain's two-iteration cells do.
SHAPES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "paper": {"population_size": 7680, "n_complexes": 60, "iterations": 1},
        "fleet": {"population_size": 1024, "n_complexes": 8, "iterations": 2},
    },
    "tiny": {
        "paper": {"population_size": 64, "n_complexes": 2, "iterations": 1},
        "fleet": {"population_size": 32, "n_complexes": 2, "iterations": 2},
    },
}


#: Seed labels and base seed of every generated cell.
CELL_SEEDS = (3, 7)
BASE_SEED = 2010


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{int(seed)}")


def _document(
    campaign_id: str,
    targets: List[str],
    config_name: str,
    config: Dict[str, int],
    seeds: List[int],
) -> Dict[str, Any]:
    return {
        "campaign": {
            "id": campaign_id,
            "targets": list(targets),
            "seeds": list(seeds),
            "backends": ["gpu"],
            "base_seed": BASE_SEED,
            "checkpoint_every": 1,
            "workers": 1,
        },
        "configs": {config_name: dict(config)},
    }


def _permuted(rng: random.Random, items) -> List[Any]:
    items = list(items)
    rng.shuffle(items)
    return items


def paper_trajectory(seed: int, scale: str = "full") -> Dict[str, Any]:
    """One paper-scale cell: 60 complexes of 128."""
    return _document(
        f"paper-{seed}", [PAPER_TARGET], "paper", SHAPES[scale]["paper"], [CELL_SEEDS[0]]
    )


class FleetDrain:
    """The drained campaign and its permuted re-submissions.

    Two targets x two seeds of mid-scale (8 x 128) cells.  :meth:`campaign`
    is drawn first; every re-submission after it carries a fresh id and its
    own axis permutation, which keeps each cell's content address (so it
    fills from the cache the drain published) but changes its flat index.
    """

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = int(seed)
        self.config = SHAPES[scale]["fleet"]
        self._rng = _rng("fleet_drain", seed)

    def _draw(self, campaign_id: str) -> Dict[str, Any]:
        return _document(
            campaign_id,
            _permuted(self._rng, FLEET_PANEL),
            "mid",
            self.config,
            _permuted(self._rng, CELL_SEEDS),
        )

    def campaign(self) -> Dict[str, Any]:
        return self._draw(f"fleet-{self.seed}")

    def resubmission(self, number: int) -> Dict[str, Any]:
        return self._draw(f"resubmit-{self.seed}-{number}")
