"""Atomic file-write helpers — the one sanctioned durable-write path.

Every durable artefact of the runtime layer (manifests, status documents,
checkpoints, decoy arrays, migration packets) is written through a sibling
temp file and an atomic ``os.replace``, so readers in other processes only
ever observe a complete previous version or a complete new one — never a
partial write.  Centralised here so crash-durability improvements (e.g.
fsync before the rename) apply everywhere at once.

This module is the *only* place in the tree allowed to open files for
writing inside the store-backed subsystems (runtime, islands, api, serve,
obs): the ``repro-lint`` rule **REP002** (see :mod:`repro.lint.rules.io`)
flags any ``open(..., "w")``, ``write_text`` / ``write_bytes`` or direct
``np.save*``-to-path call there, which is what keeps kill-at-any-instant
crash safety an invariant instead of a convention.  The order of the
writes — blobs, then the summaries describing them, then the marker a
reader trusts — is pinned by ``tests/integration/test_durable_write_order.py``,
which records these helpers' calls during a real drain.
"""

from __future__ import annotations

import io
import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Union

import numpy as np

__all__ = [
    "atomic_write",
    "create_json_exclusive",
    "write_json_atomic",
    "write_bytes_atomic",
    "write_npz_atomic",
]


def atomic_write(path: Union[str, Path], write_fn: Callable[[Path], None]) -> None:
    """Run ``write_fn`` against a sibling temp file, then rename atomically.

    The temp name embeds the writer's pid and thread id: concurrent
    writers of the same path (e.g. two daemons racing an idempotent cache
    fill — their payloads are byte-identical by construction) each stage
    their own temp file and the renames land in either order, instead of
    stealing one shared ``.tmp`` out from under each other.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp"
    )
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    finally:
        try:
            tmp.unlink()
        except FileNotFoundError:
            pass


def write_json_atomic(path: Union[str, Path], payload: Dict[str, Any]) -> None:
    """Atomically replace ``path`` with ``payload`` rendered as JSON.

    Keys are sorted so the byte content is a pure function of the payload —
    two processes writing the same document produce identical files, which
    is what the byte-equality replay tests compare.
    """
    atomic_write(
        path,
        lambda tmp: tmp.write_text(json.dumps(payload, indent=2, sort_keys=True)),
    )


def create_json_exclusive(path: Union[str, Path], payload: Dict[str, Any]) -> bool:
    """Create ``path`` with ``payload`` as JSON iff it does not exist yet.

    The ``O_CREAT | O_EXCL`` open is the one filesystem primitive that
    makes *exactly one* of N racing processes succeed — it is what the
    lease files of :mod:`repro.serve.leases` claim cells with, and it
    holds on local filesystems and on NFSv3+.  Returns ``True`` when this
    call created the file, ``False`` when it already existed.  The body is
    emitted in a single ``os.write`` (lease documents are far below
    ``PIPE_BUF``); a reader racing the write may still observe an empty
    file for an instant, so lease readers must treat unparseable content
    as *corrupt, age by mtime* rather than as an error.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
    except FileExistsError:
        return False
    try:
        os.write(fd, json.dumps(payload, sort_keys=True).encode("utf8"))
    finally:
        os.close(fd)
    return True


def write_bytes_atomic(path: Union[str, Path], data: bytes) -> None:
    """Atomically replace ``path`` with ``data``."""
    atomic_write(path, lambda tmp: tmp.write_bytes(data))


def write_npz_atomic(
    path: Union[str, Path], arrays: Mapping[str, np.ndarray]
) -> bytes:
    """Atomically replace ``path`` with ``arrays`` as a compressed ``npz``.

    The arrays are serialised into memory first, so the bytes on disk are
    exactly the returned blob — callers that record a content hash next to
    the file (the checkpoint writer) hash the return value instead of
    re-reading what they just wrote.
    """
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **dict(arrays))
    blob = buffer.getvalue()
    write_bytes_atomic(path, blob)
    return blob
