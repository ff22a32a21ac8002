"""Sliding-window stores of past latent features.

Latents are cached before positional encoding and before the K/V
projections; each step the attention kernel folds the window-relative
positions into its scores and context (see motion.py). A CacheBank
rotates frames across several caches to simulate a longer temporal
context at the same memory cost per cache.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = ["PrecisionMode", "FeatureCache", "CacheBank", "OutOfOrderFrame"]


class OutOfOrderFrame(ValueError):
    """Pushed frame index is not greater than the newest stored index."""


class PrecisionMode(enum.Enum):
    FULL32 = "fp32"
    EMULATED16 = "fp16"


def _store(latent: np.ndarray, mode: PrecisionMode) -> np.ndarray:
    if mode is PrecisionMode.EMULATED16:
        return latent.astype(np.float16)
    return latent.astype(np.float32, copy=True)


@dataclass
class FeatureCache:
    """Bounded FIFO of (frame_index, latent) pairs for one attention site."""

    capacity: int
    site_id: str = ""
    precision: PrecisionMode = PrecisionMode.FULL32
    _entries: list[tuple[int, np.ndarray]] = field(default_factory=list)

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")

    def __len__(self):
        return len(self._entries)

    def push_evict(self, frame_index: int, latent: np.ndarray) -> int | None:
        """Append a latent; evict and return the oldest index when full."""
        if self._entries and frame_index <= self._entries[-1][0]:
            raise OutOfOrderFrame(
                f"frame {frame_index} not newer than {self._entries[-1][0]}")
        evicted = None
        if len(self._entries) >= self.capacity:
            evicted = self._entries.pop(0)[0]
        self._entries.append((frame_index, _store(latent, self.precision)))
        return evicted

    def window(self) -> np.ndarray:
        """Snapshot of the stored latents, oldest to newest, as one float32
        [w, ...] array (one stack and, for fp16, one upcast)."""
        return np.array([lat for _, lat in self._entries], dtype=np.float32)

    def indices(self) -> list[int]:
        return [idx for idx, _ in self._entries]

    def clear(self):
        self._entries.clear()

    def memory_footprint(self) -> int:
        """Exact byte count of stored latents under the precision mode."""
        return sum(lat.nbytes for _, lat in self._entries)


class CacheBank:
    """m rotating caches, each holding every m-th frame.

    The first `capacity` frames warm up against cache 0 only; after that,
    entries are redistributed by frame index mod m and each new frame t is
    routed to cache t mod m, giving an effective temporal span of about
    m * capacity frames.
    """

    def __init__(self, capacity: int, modulus: int = 1, site_id: str = "",
                 precision: PrecisionMode = PrecisionMode.FULL32):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        self.capacity = capacity
        self.modulus = modulus
        self.site_id = site_id
        self.precision = precision
        self.caches = [FeatureCache(capacity, f"{site_id}[{k}]", precision)
                       for k in range(modulus)]
        self.warmup_counter = 0
        self._redistributed = False

    def route(self, frame_index: int) -> int:
        """Cache selector for a frame; warm-up frames all map to cache 0.

        The mod-m rule only takes effect once the warm-up entries have been
        redistributed, so the window read for frame t always matches the
        cache that frame t was pushed into.
        """
        if self.modulus == 1 or not self._redistributed:
            return 0
        return frame_index % self.modulus

    def push_evict(self, frame_index: int, latent: np.ndarray) -> int | None:
        if (self.modulus > 1 and not self._redistributed
                and self.warmup_counter >= self.capacity):
            self._redistribute()
        sel = self.route(frame_index)
        evicted = self.caches[sel].push_evict(frame_index, latent)
        self.warmup_counter += 1
        return evicted

    def _redistribute(self):
        entries = list(self.caches[0]._entries)
        for c in self.caches:
            c.clear()
        for idx, lat in entries:
            self.caches[idx % self.modulus]._entries.append((idx, lat))
        self._redistributed = True

    def active_cache(self, frame_index: int) -> FeatureCache:
        return self.caches[self.route(frame_index)]

    def window(self, frame_index: int) -> np.ndarray:
        """Window of the cache serving the given frame."""
        return self.active_cache(frame_index).window()

    def span(self) -> int:
        """Distance between the oldest and newest stored frame index."""
        idx = [i for c in self.caches for i in c.indices()]
        return (max(idx) - min(idx) + 1) if idx else 0

    def clear(self):
        for c in self.caches:
            c.clear()
        self.warmup_counter = 0
        self._redistributed = False

    def memory_footprint(self) -> int:
        return sum(c.memory_footprint() for c in self.caches)
