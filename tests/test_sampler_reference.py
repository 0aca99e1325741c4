"""The samplers against frozen reference copies of their numpy forms.

The float-list jump chain, the edge clocks drawn as standard_exponential *
scale and the in-place noise fill must reproduce these array forms bit for
bit, so that seeded payloads never move.  The references are kept verbatim:
do not optimise them.
"""

import heapq
import math

import numpy as np
import pytest

from chaoscope.matrix import InteractionMatrix
from chaoscope.percolation import (PercolationModel, _fpp_edges, _gillespie_run,
                                   _jump_chain, terminal_masks)
from chaoscope.rng import CHUNK, stream
from chaoscope.sde import _draw_noise
from chaoscope.verify import random_substochastic

KAPPA = 1.3
STARTS = ([0], [0, 2, 5])


def reference_gillespie_run(dense, kappa, members, t, gen):
    mask = sum(1 << i for i in members)
    inside = np.zeros(dense.shape[0], dtype=bool)
    inside[members] = True
    rates = kappa * dense[inside].sum(axis=0)
    rates[inside] = 0.0
    clock = 0.0
    while True:
        cs = rates.cumsum()
        total = cs[-1]
        if total <= 0.0:
            return mask
        clock += gen.exponential(1.0 / total)
        if clock > t:
            return mask
        u = gen.random() * total
        j = int(np.searchsorted(cs, u, side="right"))
        mask |= 1 << j
        inside[j] = True
        rates = rates + kappa * dense[j]
        rates[inside] = 0.0


def reference_fpp_run(adj, scale, members, t, gen):
    clocks = gen.exponential(scale).tolist()
    dist = {i: 0.0 for i in members}
    heap = [(0.0, i) for i in members]
    mask = 0
    while heap:
        d, node = heapq.heappop(heap)
        if d > t:
            return mask
        if mask >> node & 1:
            continue
        mask |= 1 << node
        for nbr, e in adj[node]:
            nd = d + clocks[e]
            if not mask >> nbr & 1 and nd < dist.get(nbr, math.inf):
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return mask


def reference_draw_noise(lo, hi, steps, n, d, seed):
    out = np.empty((hi - lo, steps, n, d))
    for r in range(lo, hi):
        out[r - lo] = stream(seed, r).standard_normal((steps, n, d))
    return out


def _directed(n, seed):
    xi = random_substochastic(n, stream(seed))
    assert not xi.symmetric
    return xi


def _symmetric(n, seed):
    d = random_substochastic(n, stream(seed)).dense()
    xi = InteractionMatrix.from_dense(0.5 * (d + d.T))
    assert xi.symmetric
    return xi


def _paths(run, reps, seed):
    return np.array([run(stream(seed, r)) for r in range(reps)], dtype=np.int64)


class _Logged:
    """A stream that logs the scale of every exponential draw: 1 / total rate."""

    def __init__(self, gen):
        self.gen, self.scales = gen, []

    def exponential(self, scale):
        self.scales.append(scale)
        return self.gen.exponential(scale)

    def random(self):
        return self.gen.random()


def _logged_paths(run, reps, seed):
    """Terminal masks and the bytes of every path's total rates, event by event."""
    masks, scales = [], []
    for r in range(reps):
        gen = _Logged(stream(seed, r))
        masks.append(run(gen))
        scales += gen.scales
    return masks, np.array(scales).tobytes()


@pytest.mark.parametrize("n", [9, 48])
@pytest.mark.parametrize("v", STARTS)
def test_jump_chain_matches_reference_bitwise(n, v):
    xi = _directed(n, 40 + n)
    model = PercolationModel(xi, KAPPA)
    dense = xi.dense()
    chain = _jump_chain(dense, KAPPA, v)
    for t, reps in ((0.7, 300), (4.0, 100)):
        want = _logged_paths(lambda g: reference_gillespie_run(dense, KAPPA, v, t, g), reps, 7)
        assert _logged_paths(lambda g: _gillespie_run(chain, t, g), reps, 7) == want
        assert np.array_equal(terminal_masks(model, v, t, reps, 7, method="gillespie"),
                              want[0])
        assert len(set(want[0])) > 3  # the paths do jump


@pytest.mark.parametrize("v", STARTS)
def test_edge_clocks_match_reference_bitwise(v):
    xi = _symmetric(9, 60)
    model = PercolationModel(xi, KAPPA)
    adj, scale = _fpp_edges(model)
    for t, reps in ((0.7, 300), (4.0, 100)):
        want = _paths(lambda g: reference_fpp_run(adj, scale, v, t, g), reps, 8)
        got = terminal_masks(model, v, t, reps, 8, method="fpp")
        assert np.array_equal(got, want)
        assert len(set(want.tolist())) > 3


def test_noise_matches_reference_bitwise():
    samples = CHUNK + 3
    want = reference_draw_noise(0, samples, 3, 2, 2, 9)
    got = _draw_noise(0, samples, 3, 2, 2, 9)
    assert got.tobytes() == want.tobytes()
    # a block that starts past zero fills its own rows from their own streams
    assert _draw_noise(CHUNK, samples, 3, 2, 2, 9).tobytes() == want[CHUNK:].tobytes()
