"""Shared utilities: RNG streams, timers, logging and validation helpers."""

from repro.utils.rng import RandomStreams, spawn_rng
from repro.utils.timing import TimingLedger
from repro.utils.validation import (
    check_angle_array,
    check_positive,
    check_probability,
    check_shape,
)

__all__ = [
    "RandomStreams",
    "spawn_rng",
    "TimingLedger",
    "check_angle_array",
    "check_positive",
    "check_probability",
    "check_shape",
]
