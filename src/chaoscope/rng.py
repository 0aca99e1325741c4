"""Deterministic random streams.

Every stochastic routine in the package draws from a Philox counter-based
generator keyed by (seed, stream index), so a result depends only on its
inputs, across platforms.  Random instances draw from stream(seed), key
(seed, 0).  The samplers (jump chain, edge clocks, SDE noise) run their
paths in chunks of CHUNK, each in lockstep on one stream: chunk c draws from
stream(seed, SAMPLER | c) (Salmon et al., SC 2011), the tag bit keeping it
apart from the instance keys, so their results depend on the seed and CHUNK.

A stream is keyed Philox with no entropy draw: stream(seed, r) gives the same
bits as Generator(Philox(key=(seed, r))), the two key words taken modulo
2^64, but hands Philox the key through a seed sequence instead of `key=`,
which builds a SeedSequence from OS entropy only to discard it.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_MASK64 = (1 << 64) - 1

# Paths per sampler chunk, in lockstep on one stream: seeded results depend on it
CHUNK = 4096
SAMPLER = 1 << 63  # tag bit of the sampler chunk streams' indices


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


def chunk_streams(seed: int, total: int) -> list[tuple[int, int, np.random.Generator]]:
    """(lo, hi, stream(seed, SAMPLER | c)) for the chunks c of `total` sampler paths."""
    return [(lo, hi, stream(seed, SAMPLER | c)) for c, (lo, hi) in enumerate(chunk_ranges(total))]
