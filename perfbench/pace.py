"""Host-speed probe, sampled inside the processes under test.

The benchmark's host is a share of a larger machine: the same code runs up
to ~1.4x slower for seconds to minutes at a time, and that shows in the
process's CPU time too (no steal is reported), so neither the wall nor the
CPU time of one run says how fast the program is.  A :class:`Pace` probe
measures the host alongside: every ``INTERVAL_S`` of the process's CPU
time (``ITIMER_PROF``, so an idle process takes no samples) a signal
handler runs a fixed piece of work -- the benchmark's own numpy code,
never the program's -- and records how long each part took.  The handler
runs on the thread that does the work, between its bytecodes, so each
sample is taken on the vCPU and at the time the program ran.  (A probe on
the other vCPU does not track it: correlation ~0.3 on a 2-vCPU VM.)

The parts are shaped like the sampler's two big kernels, a dominance
block ([FitAssg]) and a trigonometric sweep (CCD), because the slow state
slows kinds of work unequally (there, a Python loop 1.4x, transcendental
functions 1.6x, a dominance block 1.25x).

``run.py`` divides a time measured in a process by :func:`speed` of the
samples that process took in that interval: the time the program would
have taken on a host where the probe takes ``REFERENCE_S``.  A change to
the program moves that figure; a change in the host's speed mostly does
not.  The probe costs ~1% of the probed process's CPU.
"""

from __future__ import annotations

import json
import signal
import statistics
import time
from typing import List, Optional, Sequence

import numpy as np

#: CPU seconds of the probed process between two samples.
INTERVAL_S = 0.1
#: Probe time (dominance + trig) the reported figures are scaled to: a
#: fixed constant (the probe takes 1.0-1.5 ms on a 2-vCPU Xeon VM at 2.0 GHz).
REFERENCE_S = 0.001


class Pace:
    """Probe samples of one process: ``[time.time(), dominance_s, trig_s]``."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20100)
        self._scores = rng.random((7680, 3))
        self._angles = rng.uniform(-3.0, 3.0, 4096)
        self.samples: List[List[float]] = []
        self._previous = None

    def probe(self) -> List[float]:
        start = time.perf_counter()
        block = self._scores[:2]
        (block[:, None, :] <= self._scores[None, :, :]).all(axis=-1).sum(axis=1)
        middle = time.perf_counter()
        for _ in range(2):
            np.arctan2(np.sin(self._angles), np.cos(self._angles)).sum()
        end = time.perf_counter()
        return [middle - start, end - middle]

    def _handler(self, _signum, _frame) -> None:
        self.samples.append([time.time(), *self.probe()])

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.samples, handle)


def load(path: str) -> List[List[float]]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return []


def speed(samples: Sequence[Sequence[float]], start: float = float("-inf"),
          end: float = float("inf")) -> Optional[float]:
    """``REFERENCE_S`` over the median probe time of the samples in [start, end].

    Above 1 the host ran faster than the reference; None without samples.
    """
    times = [sum(sample[1:]) for sample in samples if start <= sample[0] <= end]
    return REFERENCE_S / statistics.median(times) if times else None
