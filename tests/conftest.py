from pathlib import Path

import numpy as np
import pytest

from chaoscope.matrix import InteractionMatrix, random_substochastic
from chaoscope.rng import stream


@pytest.fixture
def gen():
    return stream(20250815)


def random_matrices(count, seed, n_lo=2, n_hi=8):
    g = stream(seed)
    out = []
    for _ in range(count):
        n = int(g.integers(n_lo, n_hi + 1))
        out.append(random_substochastic(n, g))
    return out


@pytest.fixture
def single_edge():
    """Two particles, one symmetric edge of weight 0.7."""
    return InteractionMatrix(np.array([[0.0, 0.7], [0.7, 0.0]]))


@pytest.fixture
def four_cycle():
    d = np.zeros((4, 4))
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
        d[u, v] = d[v, u] = 0.5
    return InteractionMatrix(d)


def lookup(values):
    """F of a masks array that reads a table over all 2^n masks, a row per mask."""
    values = np.asarray(values, dtype=float)
    return lambda masks: values[masks]


def benchmark_inputs(seed, workdir):
    """The benchmark's matrices at a workload seed, name -> (dense, path, digest),
    written to workdir (perfbench/inputs.py, run from its source so that no
    bytecode is written next to it)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    inputs = {}
    exec(compile(path.read_text(), str(path), "exec"), inputs)
    return inputs["make_inputs"](seed, workdir)
