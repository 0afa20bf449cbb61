"""Reproducible uniform streams, one per source of model randomness.

Each stream is addressed by a (master seed, source id, replication index)
key and is backed by a counter-based Philox generator, so any stream can
be reconstructed independently without jump-ahead arithmetic.  All
distribution sampling is by inverse transform and consumes exactly one
uniform per sample: that is what keeps alternative configurations
synchronized when they share streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# Sources of randomness in the crossdock model. "shared" is the
# single-stream mode that mimics simulation software defaults.
SOURCE_IDS = (
    "arrival",
    "order_type",
    "point_choice",
    "manual_service_point_A",
    "manual_service_point_B",
    "auto_service_point_A",
    "auto_service_point_B",
)
SHARED_SOURCE = "shared"

_SOURCE_CODES = {name: i for i, name in enumerate(SOURCE_IDS + (SHARED_SOURCE,))}

_BUFFER = 4096


@dataclass(frozen=True)
class StreamKey:
    """Identity of one random-number stream."""

    master_seed: int
    source_id: str
    replication_index: int

    def __post_init__(self):
        if self.source_id not in _SOURCE_CODES:
            raise ConfigurationError(f"unknown source_id: {self.source_id!r}")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed must be >= 0")
        if self.replication_index < 0:
            raise ConfigurationError("replication_index must be >= 0")


class RandomStream:
    """Buffered uniform stream whose output is a pure function of its key."""

    __slots__ = ("key", "draws_taken", "_gen", "_buf", "_pos")

    def __init__(self, key: StreamKey):
        self.key = key
        self.draws_taken = 0
        ss = np.random.SeedSequence(
            [key.master_seed, _SOURCE_CODES[key.source_id], key.replication_index]
        )
        self._gen = np.random.Generator(np.random.Philox(ss))
        self._buf: list[float] = []
        self._pos = 0

    def uniform(self) -> float:
        """One uniform in [0, 1); increments draws_taken by exactly 1."""
        if self._pos == len(self._buf):
            self._buf = self._gen.random(_BUFFER).tolist()
            self._pos = 0
        v = self._buf[self._pos]
        self._pos += 1
        self.draws_taken += 1
        return v

    def uniforms(self, n: int) -> np.ndarray:
        """The next n uniforms as an array, the values n calls of uniform()
        would return; increments draws_taken by n."""
        head = self._buf[self._pos:self._pos + n]
        self._pos += len(head)
        self.draws_taken += n
        return np.concatenate((head, self._gen.random(n - len(head))))


def stream_create(master_seed: int, source_id: str, replication_index: int) -> RandomStream:
    return RandomStream(StreamKey(master_seed, source_id, replication_index))


def derive_master_seed(master_seed: int, *tags: int) -> int:
    """A new 64-bit master seed, deterministically disjoint from the input.

    Used where an experiment needs an independent key space (e.g. the
    no-CRN arm of a paired comparison).
    """
    ss = np.random.SeedSequence([master_seed, *tags])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# --- inverse transforms -------------------------------------------------

def exponential_inverse(u: float, mean: float) -> float:
    """Inverse CDF of the exponential distribution at u."""
    return -mean * math.log1p(-u)


def triangular_inverse(u, low: float, mode: float, high: float):
    """Inverse CDF of the triangular(low, mode, high) distribution at u, a
    float or an array of them (equal bit for bit: sqrt is correctly rounded)."""
    span = high - low
    c = (mode - low) / span
    if isinstance(u, np.ndarray):
        return np.where(u <= c, low + np.sqrt(u * span * (mode - low)),
                        high - np.sqrt((1.0 - u) * span * (high - mode)))
    if u <= c:
        return low + math.sqrt(u * span * (mode - low))
    return high - math.sqrt((1.0 - u) * span * (high - mode))
