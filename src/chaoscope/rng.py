"""Deterministic random streams.

Every stochastic routine in the package draws from a Philox counter-based
generator keyed by (seed, stream index), so a result depends only on its
inputs, across platforms.  Random instances draw from stream(seed), key
(seed, 0).  The samplers (jump chain, edge clocks, SDE noise) run their
paths in chunks of CHUNK, each in lockstep on one stream: chunk c draws from
stream(seed, SAMPLER | c) (Salmon et al., SC 2011), the tag bit keeping it
apart from the instance keys, so their results depend on the seed and CHUNK.
Chunks share no state, so running them at once cannot change a bit: the SDE
steps its chunks on usable_cpus() threads and verify runs its suites on at
most as many forked workers, while the percolation samplers stay serial.

A stream is Philox keyed by (seed, r), each key word taken modulo 2^64, and
the key alone fixes its bits.  numpy also draws OS entropy for a seed
sequence that a keyed Philox never reads; that costs about 13 us per stream
on a 2-vCPU Xeon, and a sampling op makes one stream per chunk.
"""

from __future__ import annotations

import os

import numpy as np

_MASK64 = (1 << 64) - 1

# Paths per sampler chunk, in lockstep on one stream: seeded results depend on it
CHUNK = 4096
SAMPLER = 1 << 63  # tag bit of the sampler chunk streams' indices


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for the (seed, stream index) pair."""
    key = np.array([int(seed) & _MASK64, int(index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunk_ranges(total: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + CHUNK, total)) for lo in range(0, total, CHUNK)]


def chunk_streams(seed: int, total: int) -> list[tuple[int, int, np.random.Generator]]:
    """(lo, hi, stream(seed, SAMPLER | c)) for the chunks c of `total` sampler paths."""
    return [(lo, hi, stream(seed, SAMPLER | c)) for c, (lo, hi) in enumerate(chunk_ranges(total))]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1
