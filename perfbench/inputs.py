"""Seeded matrix inputs for the benchmark, generated with numpy alone.

Every matrix is written in chaoscope's JSON coordinate format, so the
program under test only ever receives `--matrix FILE`.  The same workload
seed gives byte-identical files; their SHA-256 digests go into the results.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


def directed_substochastic(rng: np.random.Generator, n: int, density: float,
                           row_lo: float, row_hi: float) -> np.ndarray:
    """Nonnegative zero-diagonal matrix with row sums drawn from [row_lo, row_hi].

    Each row keeps at least one off-diagonal entry, so every row sum is
    exactly its drawn target.  The support is drawn independently per entry,
    so the matrix is directed (not symmetric).
    """
    d = rng.random((n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(d, 0.0)
    for i in range(n):
        if not d[i].any():
            j = int(rng.integers(n - 1))
            d[i, j + (j >= i)] = rng.random() + 1e-3
    targets = rng.uniform(row_lo, row_hi, size=n)
    return d * (targets / d.sum(axis=1))[:, None]


def write_matrix(d: np.ndarray, path: Path) -> str:
    """Write `d` in chaoscope's coordinate JSON; return the file's SHA-256."""
    ii, jj = np.nonzero(d)
    doc = {"n": int(d.shape[0]), "format": "coo",
           "entries": [[int(i), int(j), float(d[i, j])] for i, j in zip(ii, jj)]}
    text = json.dumps(doc, indent=1) + "\n"
    path.write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


def make_inputs(seed: int, workdir: Path) -> dict:
    """Generate every matrix the workloads use; name -> (dense, path, digest).

    One generator feeds all matrices in a fixed order, so each matrix depends
    only on the seed.  directed14 is the reduced-size stand-in for
    directed16 (probes and smoke runs).
    """
    rng = np.random.default_rng([seed, 0x63686173])
    # directed48 has every row sum 0.7, so the mean number of jumps per path
    # from site 0 at t = 0.5 (about 0.4), and with it the cost of the
    # sampling op, does not move with the seed
    specs = {
        "directed16": (16, 0.5, 0.6, 1.0),
        "directed14": (14, 0.5, 0.6, 1.0),
        "directed48": (48, 0.1, 0.7, 0.7),
        "directed6": (6, 0.6, 0.5, 1.0),
    }
    out = {}
    for name, (n, density, lo, hi) in specs.items():
        d = directed_substochastic(rng, n, density, lo, hi)
        path = workdir / f"{name}.json"
        out[name] = (d, path, write_matrix(d, path))
    return out
