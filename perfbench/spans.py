"""In-memory span tracer that wraps the program's public layer functions.

The benchmark never edits the program: :func:`install` replaces the
attributes the layers call through (module globals and class methods)
with timing wrappers.  A wrapper records one span per call -- name,
start, end, parent -- in a per-process :class:`Tracer`, plus a few
counters read off the call's arguments or result (lease claims won,
loops closed, bytes checkpointed).  Spans stay in memory until
:meth:`Tracer.dump` writes them out at the end of the process;
:func:`aggregate` merges the dumps of every process in a run and derives
totals, call counts, per-call medians and self times.

Names are bound where the caller looks them up: ``strength_fitness`` is
wrapped inside :mod:`repro.backends.gpu` (which imports it directly), not
only in :mod:`repro.moscem.dominance`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


class Tracer:
    """Spans of one process, nested per thread."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []  # [name, start, end, parent]
        self.counters: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def record(self, name: str, start: float, end: float) -> None:
        """A finished span with no children (e.g. timed by the caller)."""
        stack = self._stack()
        with self._lock:
            self.spans.append([name, start, end, stack[-1] if stack else -1])

    def call(self, name: str, fn: Callable, args, kwargs, after=None):
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter()
        if after is not None:
            after(self, args, kwargs, result)
        return result

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans, "counters": self.counters}, handle)


# ---------------------------------------------------------------------------
# Counters read off calls
# ---------------------------------------------------------------------------


def _claim(tracer, _args, _kwargs, won) -> None:
    tracer.count("serve.lease_claims_won" if won else "serve.lease_claims_lost")


def _fill(tracer, _args, _kwargs, summary) -> None:
    tracer.count("serve.cache_fills")
    if summary is not None:
        tracer.count("serve.cache_hits")


def _ccd(tracer, args, kwargs, result) -> None:
    import numpy as np

    from repro.config import SamplingConfig

    tolerance = kwargs.get("tolerance", SamplingConfig().ccd_tolerance)
    factor = SamplingConfig().closure_tolerance_factor
    errors = np.asarray(result.closure_error)
    tracer.count("closure.proposed", errors.size)
    tracer.count("closure.closed", int((errors <= tolerance * factor).sum()))


def _step(tracer, _args, _kwargs, rate) -> None:
    tracer.count("moscem.acceptance_sum", float(rate))
    tracer.count("moscem.steps")


def _checkpoint(tracer, args, kwargs, _result) -> None:
    from repro.runtime.checkpoint import checkpoint_paths

    directory = args[0] if args else kwargs["directory"]
    for path in checkpoint_paths(directory).values():
        try:
            tracer.count("runtime.checkpoint_bytes", os.path.getsize(path))
        except OSError:
            pass


# (span name, module, attribute path, counter hook).  Every entry is a
# public layer function or a name a caller imported from one.
WRAPPED: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("api.session_run", "repro.api.session", "Session.run", None),
    ("api.submit", "repro.api.session", "Session.submit", None),
    ("api.result", "repro.api.session", "CampaignHandle.result", None),
    ("api.drain_pass", "repro.api.daemon", "drain_once", None),
    ("runtime.cell", "repro.runtime.executor", "run_cell", None),
    ("runtime.checkpoint", "repro.runtime.executor", "save_checkpoint", _checkpoint),
    ("runtime.result_write", "repro.runtime.store", "RunStore.save_shard_result", None),
    ("runtime.create_run", "repro.runtime.store", "RunStore.create_run", None),
    ("serve.lease_claim", "repro.serve.leases", "LeaseManager.claim", _claim),
    ("serve.cache_publish", "repro.serve.cache", "ResultCache.publish", None),
    ("serve.cache_fill", "repro.serve.cache", "ResultCache.fill", _fill),
    ("serve.http_submit", "repro.serve.http", "_Handler._post_campaign", None),
    ("serve.http_{verb}", "repro.serve.http", "_Handler._get_campaign", None),
    ("serve.http_decoys", "repro.serve.http", "_Handler._get_decoys", None),
    ("moscem.initial_state", "repro.moscem.sampler", "MOSCEMSampler.initial_state", None),
    ("moscem.step", "repro.moscem.sampler", "MOSCEMSampler.step", _step),
    ("moscem.finalize_state", "repro.moscem.sampler", "MOSCEMSampler.finalize_state", None),
    ("moscem.decoy_harvest", "repro.moscem.sampler", "SamplingResult.distinct_non_dominated", None),
    ("moscem.dominance.non_dominated_mask", "repro.moscem.sampler", "non_dominated_mask", None),
    ("moscem.dominance.fitness_population", "repro.backends.gpu", "strength_fitness", None),
    ("moscem.dominance.fitness_complexes", "repro.backends.gpu", "fitness_against", None),
    ("closure.ccd", "repro.backends.gpu", "ccd_close_batch", _ccd),
    ("scoring.vdw", "repro.scoring.vdw", "SoftSphereVDW.evaluate_batch", None),
    ("scoring.dist", "repro.scoring.distance", "DistanceScore.evaluate_batch", None),
    ("scoring.trip", "repro.scoring.triplet", "TripletScore.evaluate_batch", None),
    ("scoring.knowledge_base", "repro.scoring.knowledge", "build_knowledge_base", None),
    ("loops.library", "repro.loops.library", "LoopLibrary.generate", None),
    ("loops.target", "repro.loops.targets", "make_target", None),
    ("geometry.rmsd", "repro.loops.loop", "coordinate_rmsd_batch", None),
)

#: Kernel-ledger entry (the backend's own timing) behind each kernel span.
LEDGER_KERNELS: Dict[str, str] = {
    "moscem.dominance.fitness_population": "FitAssg within Population",
    "moscem.dominance.fitness_complexes": "FitAssg within Complex",
    "closure.ccd": "CCD",
    "scoring.vdw": "EvalVDW",
    "scoring.dist": "EvalDIST",
    "scoring.trip": "EvalTRIP",
}


def _wrap(tracer: Tracer, name: str, fn: Callable, after) -> Callable:
    if "{verb}" in name:  # one span name per campaign view (status, result, ...)
        @functools.wraps(fn)
        def wrapper(self, campaign, verb, *args, **kwargs):
            return tracer.call(
                name.format(verb=verb), fn, (self, campaign, verb) + args, kwargs, after
            )

        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, after)

    return wrapper


def install(tracer: Tracer) -> None:
    """Replace every entry of :data:`WRAPPED` with a timing wrapper."""
    for name, module_name, attribute, after in WRAPPED:
        owner: Any = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(_wrap(tracer, name, raw.__func__, after))
        else:
            wrapped = _wrap(tracer, name, raw, after)
        setattr(owner, leaf, wrapped)


# ---------------------------------------------------------------------------
# Aggregation over the dumps of one run
# ---------------------------------------------------------------------------


def _self_seconds(spans: List[List[Any]]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result


def aggregate(dumps: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Totals, calls, durations and self times per span name, plus counters."""
    durations: Dict[str, List[float]] = {}
    self_totals: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    for dump in dumps:
        # A span still open when its process dumped counts as zero-length;
        # dropping it would shift the parent indices of the others.
        spans = [[n, s, s if e is None else e, p] for n, s, e, p in dump["spans"]]
        for span, own in zip(spans, _self_seconds(spans)):
            durations.setdefault(span[0], []).append(span[2] - span[1])
            self_totals[span[0]] = self_totals.get(span[0], 0.0) + own
        for name, value in dump["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
    return {"durations": durations, "self": self_totals, "counters": counters}


def total(agg: Dict[str, Any], name: str) -> float:
    return float(sum(agg["durations"].get(name, ())))


def calls(agg: Dict[str, Any], name: str) -> int:
    return len(agg["durations"].get(name, ()))


def median_ms(agg: Dict[str, Any], name: str) -> float:
    values = agg["durations"].get(name)
    return 1000.0 * statistics.median(values) if values else 0.0


def load_dumps(paths: Iterable[str]) -> List[Dict[str, Any]]:
    dumps = []
    for path in paths:
        with open(path) as handle:
            dumps.append(json.load(handle))
    return dumps
