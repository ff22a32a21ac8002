"""The per-module store of past latent features.

Latents are cached before positional encoding and before the K/V
projections; each step the attention kernel folds the window-relative
positions into its scores and context (see motion.py). A CacheBank is one
FIFO of the last m * c latents, of which the attention window reads c
spaced m pushes apart, newest first (age order), so the window spans about
m * c pushes at the attention cost of c.
"""

from __future__ import annotations

import numpy as np

from .tensor import NonFiniteError

__all__ = ["CacheBank"]

_DTYPES = {"fp32": np.float32, "fp16": np.float16}


class CacheBank:
    """FIFO of the last capacity * modulus latents, in push order.

    While it holds at most `capacity` latents the window is all of them;
    after that it is the newest latent and every modulus-th one before it,
    at most `capacity` in all, newest first. After pushes 0, 1, 2, ... the
    window of push t is t, t - 1, ..., 0 for t < capacity, then t, t - m,
    ... (the first `capacity` of them that are >= 0).
    """

    def __init__(self, capacity: int, modulus: int = 1,
                 precision: str = "fp32"):
        if capacity < 1 or modulus < 1:
            raise ValueError("capacity and modulus must be >= 1")
        if precision not in _DTYPES:
            raise ValueError(f"precision must be one of {list(_DTYPES)}, "
                             f"got {precision!r}")
        self.capacity = capacity
        self.modulus = modulus
        self.dtype = _DTYPES[precision]
        self._entries: list[np.ndarray] = []  # oldest first

    def __len__(self):
        return len(self._entries)

    def push_evict(self, latent: np.ndarray) -> np.ndarray | None:
        """Append a latent; evict and return the oldest one when full. A
        new shape (ValueError) or NaN/Inf in the bank's dtype raises first."""
        if self._entries and latent.shape != self._entries[0].shape:
            raise ValueError(f"shape {latent.shape} is not the stored "
                             f"{self._entries[0].shape}")
        stored = latent.astype(self.dtype)
        if not np.isfinite(stored).all():
            raise NonFiniteError("non-finite latent")
        evicted = None
        if len(self._entries) >= self.capacity * self.modulus:
            evicted = self._entries.pop(0)
        self._entries.append(stored)
        return evicted

    def window(self) -> np.ndarray:
        """The attention window, newest first (age order), as one float32
        [w, ...] array (one stack and, for fp16, one upcast)."""
        step = self.modulus if len(self._entries) > self.capacity else 1
        return np.array(self._entries[::-step][:self.capacity],
                        dtype=np.float32)

    def memory_footprint(self) -> int:
        """Exact byte count of stored latents in the bank's precision."""
        return sum(lat.nbytes for lat in self._entries)
