"""Output digests and front quality, shared by the harness and its children."""

from __future__ import annotations

import hashlib

import numpy as np

import gen


def arrays_digest(arrays) -> str:
    """sha256 over named arrays (name, dtype, shape and bytes), in name order."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        value = np.ascontiguousarray(arrays[name])
        digest.update(f"{name}:{value.dtype.str}:{value.shape}".encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def npz_digest(path) -> str:
    """Digest of a decoy or checkpoint ``.npz``, minus the flat-index tag.

    Decoys carry the shard index they were harvested in (``trajectory``),
    which follows the campaign's axis order, not what the cell computed.
    """
    with np.load(path) as data:
        return arrays_digest({name: data[name] for name in data.files if name != "trajectory"})


def pair_hypervolume(scores) -> float:
    """Mean 2-D hypervolume over the objective pairs, in the fixed box.

    Each objective is scaled to [0, 1] between ``gen.HV_IDEAL`` and
    ``gen.HV_REFERENCE``; a pair's hypervolume is the area its projected
    front dominates inside the unit square (all objectives minimised).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] == 0:
        return 0.0
    ideal = np.asarray(gen.HV_IDEAL)
    reference = np.asarray(gen.HV_REFERENCE)
    scaled = (scores - ideal) / (reference - ideal)
    areas = []
    for i in range(scaled.shape[1]):
        for j in range(i + 1, scaled.shape[1]):
            points = scaled[:, [i, j]]
            points = points[(points < 1.0).all(axis=1)]
            front = []
            for x, y in sorted(map(tuple, points)):
                if not front or y < front[-1][1]:
                    front.append((x, y))
            area = 0.0
            for k, (x, y) in enumerate(front):
                next_x = front[k + 1][0] if k + 1 < len(front) else 1.0
                area += (next_x - x) * (1.0 - y)
            areas.append(area)
    return float(np.mean(areas))
