"""Deterministic random streams.

Every stochastic routine in the package draws from a Philox counter-based
generator keyed by (seed, stream index).  Stream i under seed s yields the
same bit sequence no matter which block or call order touches it, so a
result depends only on the seed, across platforms.

A stream is keyed Philox with no entropy draw: stream(seed, r) gives the same
bits as Generator(Philox(key=(seed, r))), the two key words taken modulo
2^64, but hands Philox the key through a seed sequence instead of `key=`,
which builds a SeedSequence from OS entropy only to discard it.  The
samplers that draw from these streams keep numpy's summation order on their
float lists (percolation._jump_chain), so seeded payloads are bitwise those
of the numpy-array forms.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_MASK64 = (1 << 64) - 1

# Replications per block where a sampler materialises all of a block's draws
# at once (the SDE noise tensor); bounds memory, never changes results.
CHUNK = 4096


@cache
def _key_type() -> type:
    """The seed sequence that hands Philox its key, built on first use.

    It subclasses numpy's ISeedSequence, whose import loads numpy.random;
    numpy loads that lazily, and a run that draws nothing skips it (about
    15 ms and 5 MB of the CLI's start-up on a 2-vCPU Xeon).
    """
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        """Seed sequence whose only state is the Philox key [seed, index]."""

        __slots__ = ("words",)

        def __init__(self, seed: int, index: int):
            self.words = (int(seed) & _MASK64, int(index) & _MASK64)

        def generate_state(self, n_words, dtype=np.uint32):
            # Philox asks for its two 64-bit key words; any other request would
            # mean a numpy that seeds differently, and every payload would move
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise RuntimeError(f"stream key: Philox asked for {n_words} words of "
                                   f"{np.dtype(dtype)}, not 2 of uint64")
            return np.array(self.words, dtype=np.uint64)

    return Key


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for the (seed, stream index) pair."""
    return np.random.Generator(np.random.Philox(_key_type()(seed, index)))


def chunk_ranges(total: int, size: int = CHUNK) -> list[tuple[int, int]]:
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]
