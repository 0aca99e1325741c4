"""Deterministic random streams.

Every stochastic routine in the package draws from a Philox counter-based
generator keyed by (seed, stream index).  Stream i under seed s yields the
same bit sequence no matter which block or call order touches it, so a
result depends only on the seed, across platforms.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Replications per block where a sampler materialises all of a block's draws
# at once (the SDE noise tensor); bounds memory, never changes results.
CHUNK = 4096


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for the (seed, stream index) pair."""
    key = np.array([int(seed) & _MASK64, int(index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunk_ranges(total: int, size: int = CHUNK) -> list[tuple[int, int]]:
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]
