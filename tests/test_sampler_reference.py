"""The chunked samplers against the exact law, and their stream contract.

The jump chain and the edge clocks must sample the growth process's law:
their empirical distribution over all 2^n masks is held to the exact
engine's, the stacked indicator table pushed through exact_expectations.
The SDE noise must be the chunk contract's, bit for bit: the increments of
sample r come from its chunk's stream, step by step, each step's noise drawn
for the whole chunk.  The SDE runs are held to a plain Euler loop on those
increments, and their memory to a few copies of one step's state.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from chaoscope.matrix import InteractionMatrix, SubsetState, build_mean_field
from chaoscope.percolation import (CLOCK_BLOCK, PercolationModel, SubsetFunction,
                                   exact_expectations, terminal_masks)
from chaoscope.rng import CHUNK, SAMPLER, stream
from chaoscope.sde import DriftSpec, SimConfig, simulate_particles, simulate_projection
from chaoscope.verify import random_substochastic

KAPPA = 1.3
STARTS = ([0], [0, 2, 5])
LAW_REPS = 50_000
TV_GATE = 0.02


def _directed(n, seed):
    xi = random_substochastic(n, stream(seed))
    assert not xi.symmetric
    return xi


def _symmetric(n, seed):
    d = random_substochastic(n, stream(seed)).dense()
    xi = InteractionMatrix.from_dense(0.5 * (d + d.T))
    assert xi.symmetric
    return xi


def _tv_to_exact(xi, v, t, method, seed):
    """TV distance between the sampled and the exact law of X_t over all masks."""
    n = xi.n
    model = PercolationModel(xi, KAPPA)
    law = exact_expectations(model, SubsetFunction(np.eye(1 << n), n), v, [t])[0, 0]
    masks = terminal_masks(model, v, t, LAW_REPS, seed, method=method)
    empirical = np.bincount(masks, minlength=1 << n) / LAW_REPS
    assert abs(law.sum() - 1.0) <= 1e-9
    assert len(set(masks.tolist())) > 3  # the paths do jump
    return 0.5 * float(np.abs(empirical - law).sum())


@pytest.mark.parametrize("t", [0.7, 4.0])
@pytest.mark.parametrize("v", STARTS)
def test_jump_chain_law_matches_exact(v, t):
    assert _tv_to_exact(_directed(6, 46), v, t, "gillespie", 7) <= TV_GATE


@pytest.mark.parametrize("t", [0.7, 4.0])
@pytest.mark.parametrize("v", STARTS)
def test_edge_clock_law_matches_exact(v, t):
    assert _tv_to_exact(_symmetric(6, 60), v, t, "fpp", 8) <= TV_GATE


def test_jump_chain_holding_law_beyond_the_exact_engine():
    # at n = 48 a path stays at v up to t with probability exp(-total * t),
    # total = kappa * sum_{i in v, j not in v} xi_ij
    xi = _directed(48, 47)
    v = [0, 40]
    total = KAPPA * xi.dense()[v].sum(axis=0)[[j for j in range(48) if j not in v]].sum()
    t = 0.7 / total
    masks = terminal_masks(PercolationModel(xi, KAPPA), v, t, LAW_REPS, 6)
    start = SubsetState.of(v, 48).mask
    stay = float(np.mean(masks == start))
    p = np.exp(-total * t)
    assert abs(stay - p) <= 4.0 * np.sqrt(p * (1.0 - p) / LAW_REPS)
    assert np.all(masks & start == start) and (masks >> 32).any()


@pytest.mark.parametrize("method", ["gillespie", "fpp"])
def test_chunks_cover_any_number_of_paths(method):
    model = PercolationModel(_symmetric(6, 61), KAPPA)
    start = SubsetState.of([0, 3], 6).mask
    whole = terminal_masks(model, [0, 3], 0.8, CHUNK + 3, 5, method=method)
    assert whole.shape == (CHUNK + 3,) and whole.dtype == np.int64
    # every path keeps its start subset
    assert np.all(whole & start == start) and len(set(whole.tolist())) > 3
    # a chunk's paths depend on its stream alone, not on the paths after it
    assert np.array_equal(whole[:CHUNK], terminal_masks(model, [0, 3], 0.8, CHUNK, 5, method))
    few = terminal_masks(model, [0, 3], 0.8, 7, 5, method=method)
    assert few.shape == (7,) and np.all(few & start == start)
    assert np.array_equal(few, terminal_masks(model, [0, 3], 0.8, 7, 5, method=method))
    assert terminal_masks(model, [0, 3], 0.8, 0, 5, method=method).shape == (0,)


def test_edge_clock_blocks_match_dijkstra_row_by_row():
    # mean-field 63 has E = 1953 edges, so 600 paths take two clock blocks;
    # path r's clocks are the r-th E exponentials of its chunk's stream
    xi, v, t, seed = build_mean_field(63), [0, 7], 0.6, 3
    upper = xi.ii < xi.jj
    rate = KAPPA * xi.vals[upper]
    assert 600 > CLOCK_BLOCK // rate.size
    gen = stream(seed, SAMPLER)
    want = []
    for _ in range(600):
        graph = csr_matrix((gen.standard_exponential(rate.size) / rate,
                            (xi.ii[upper], xi.jj[upper])), shape=(63, 63))
        dist = dijkstra(graph, directed=False, indices=v, min_only=True)
        want.append(sum(1 << j for j in np.flatnonzero(dist <= t).tolist()))
    got = terminal_masks(PercolationModel(xi, KAPPA), v, t, 600, seed, method="fpp")
    assert got.tolist() == want
    assert len(set(want)) > 3


@pytest.mark.parametrize("method", ["gillespie", "fpp"])
def test_paths_without_exit_or_time_stay_at_the_start(method):
    # the full set and a zero matrix have total rate 0 from the start, and
    # at t = 0 nothing has joined
    full = list(range(5))
    zero = InteractionMatrix.from_dense(np.zeros((5, 5)))
    cases = [(_symmetric(5, 62), full, 2.0), (zero, [1, 3], 2.0), (_symmetric(5, 62), [2], 0.0)]
    for xi, v, t in cases:
        masks = terminal_masks(PercolationModel(xi, KAPPA), v, t, CHUNK + 3, 4, method=method)
        assert masks.tolist() == [SubsetState.of(v, 5).mask] * (CHUNK + 3), (v, t)


def reference_noise(samples, steps, n, d, seed):
    """Increments of every sample, shape (steps, samples, n, d), drawn step
    by step from each chunk's stream, each step for the whole chunk."""
    out = np.empty((steps, samples, n, d))
    for c, lo in enumerate(range(0, samples, CHUNK)):
        hi = min(lo + CHUNK, samples)
        gen = stream(seed, SAMPLER | c)
        for s in range(steps):
            out[s, lo:hi] = gen.standard_normal((hi - lo, n, d))
    return out


def test_noise_matches_reference_bitwise():
    cfg = SimConfig(dt=0.25, T=0.75, samples=CHUNK + 3, seed=9)
    noise = reference_noise(cfg.samples, cfg.steps, 2, 1, cfg.seed)
    # under zero drift each sample is the running sum of its scaled increments
    want = np.zeros((cfg.samples, 2, 1))
    for s in range(cfg.steps):
        want = want + cfg.sigma * np.sqrt(cfg.dt) * noise[s]
    zero = InteractionMatrix.from_dense(np.zeros((2, 2)))
    got = simulate_particles(zero, DriftSpec.zero(), cfg)
    assert got.tobytes() == want.reshape(cfg.samples, 2).tobytes()
    # the McKean-Vlasov projection runs unchunked on the same increments: with
    # a mean field of zero it is the zero-drift particle run, byte for byte
    still = DriftSpec("still", b=lambda t, x, y: 0.0 * x,
                      mean_field=lambda t, x, pool: np.zeros_like(x))
    assert simulate_projection(build_mean_field(2), still, cfg).tobytes() == got.tobytes()


def _euler(noise, cfg, drift):
    """The plain Euler-Maruyama loop: x <- x + dt * drift(t, x) + root * noise[s]."""
    x = np.zeros(noise.shape[1:])
    for s in range(cfg.steps):
        x = x + cfg.dt * drift(s * cfg.dt, x) + cfg.sigma * np.sqrt(cfg.dt) * noise[s]
    return x.reshape(len(x), -1)


def _sine_pairs(dense):
    def drift(t, x):
        out = np.zeros_like(x)
        for i in range(len(dense)):
            out[:, i, :] = np.einsum("j,bjd->bd", dense[i], np.sin(x - x[:, i:i + 1, :]))
        return out
    return drift


def _sine_mean_field(t, x):
    out = np.empty_like(x)
    for i in range(x.shape[1]):
        m = x[:, i, :]
        out[:, i, :] = float(np.sin(m).mean()) * np.cos(m) - float(np.cos(m).mean()) * np.sin(m)
    return out


SDE_CFG = SimConfig(dt=0.1, T=0.5, samples=CHUNK + 3, seed=11, sigma=0.8)


def test_sine_runs_match_the_euler_loop_bitwise():
    xi, cfg = _directed(4, 48), SDE_CFG
    sine = DriftSpec.custom("sine")
    noise = reference_noise(cfg.samples, cfg.steps, 4, 1, cfg.seed)
    want = _euler(noise, cfg, _sine_pairs(xi.dense()))
    assert simulate_particles(xi, sine, cfg).tobytes() == want.tobytes()
    want = _euler(noise, cfg, _sine_mean_field)
    assert simulate_projection(build_mean_field(4), sine, cfg).tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_linear_particles_match_the_einsum_loop(d):
    # the GEMM sums each drift row in its own order, so rounding may differ
    xi, cfg = _directed(5, 49), SDE_CFG
    noise = reference_noise(cfg.samples, cfg.steps, 5, d, cfg.seed)
    dense = xi.dense()
    want = _euler(noise, cfg, lambda t, x: np.einsum("ij,bjd->bid", dense, x))
    got = simulate_particles(xi, DriftSpec("linear", d=d), cfg)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("run, xi, drift", [
    (simulate_particles, _directed(4, 50), DriftSpec.linear()),
    (simulate_projection, build_mean_field(4), DriftSpec.custom("sine")),
])
def test_sde_memory_does_not_grow_with_steps(run, xi, drift):
    # 200 steps: a run that held its increments would peak near 200 states
    cfg = SimConfig(dt=0.005, T=1.0, samples=1000, seed=12)
    state = cfg.samples * xi.n * drift.d * 8
    tracemalloc.start()
    try:
        run(xi, drift, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * state, peak / state
