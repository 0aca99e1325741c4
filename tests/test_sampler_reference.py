"""The chunked samplers against the exact law, and their stream contract.

The jump chain and the edge clocks must sample the growth process's law:
their empirical distribution over all 2^n masks is held to the exact
engine's, the stacked indicator table pushed through exact_expectations.
The jump chain carries its per-path rates from round to round; its masks are
held bit for bit to a frozen copy of the loop that rebuilt them every round,
and to the digests of the benchmark's sampling payloads, and one chunk's
memory to two (paths x n) float tables, two and a half when every path jumps;
a linear or quadratic functional of a sample stays below one (reps x n) table.
The SDE noise must be the chunk contract's, bit for bit: the increments of
sample r come from its chunk's stream, step by step, each step's noise drawn
for the whole chunk.  The SDE runs are held to a plain Euler loop on those
increments, and their memory to a few copies of one step's state.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from chaoscope.cli import console_main
from chaoscope.matrix import (InteractionMatrix, build_mean_field, mask_members,
                              random_substochastic, subset_mask)
from chaoscope.percolation import (CLOCK_BLOCK, PercolationModel, exact_expectations,
                                   mc_expectation, terminal_masks)
from chaoscope.rng import CHUNK, SAMPLER, chunk_streams, stream
from chaoscope.sde import DRIFTS, DriftSpec, SimConfig, simulate_particles, simulate_projection

from conftest import benchmark_inputs

KAPPA = 1.3
STARTS = ([0], [0, 2, 5])
LAW_REPS = 50_000
TV_GATE = 0.02


def _directed(n, seed):
    xi = random_substochastic(n, stream(seed))
    assert not np.array_equal(xi.dense(), xi.dense().T)
    return xi


def _symmetric(n, seed):
    d = random_substochastic(n, stream(seed)).dense()
    xi = InteractionMatrix(0.5 * (d + d.T))
    assert np.array_equal(xi.dense(), xi.dense().T)
    return xi


def _tv_to_exact(xi, v, t, method, seed):
    """TV distance between the sampled and the exact law of X_t over all masks."""
    n = xi.n
    model = PercolationModel(xi, KAPPA)
    law = exact_expectations(model, lambda masks: np.eye(1 << n)[masks], v, [t])[0, 0]
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
@pytest.mark.parametrize("xi, v", [(_symmetric(6, 60), v) for v in STARTS]
                         + [(_directed(6, 46), v) for v in STARTS],
                         ids=["v0", "v1", "directed-v0", "directed-v1"])
def test_edge_clock_law_matches_exact(xi, v, t):
    assert _tv_to_exact(xi, v, t, "fpp", 8) <= TV_GATE


def test_jump_chain_holding_law_beyond_the_exact_engine():
    # at n = 48 a path stays at v up to t with probability exp(-total * t),
    # total = kappa * sum_{i in v, j not in v} xi_ij
    xi = _directed(48, 47)
    v = [0, 40]
    total = KAPPA * xi.dense()[v].sum(axis=0)[[j for j in range(48) if j not in v]].sum()
    t = 0.7 / total
    masks = terminal_masks(PercolationModel(xi, KAPPA), v, t, LAW_REPS, 6)
    start = subset_mask(v, 48)
    stay = float(np.mean(masks == start))
    p = np.exp(-total * t)
    assert abs(stay - p) <= 4.0 * np.sqrt(p * (1.0 - p) / LAW_REPS)
    assert np.all(masks & start == start) and (masks >> 32).any()


@pytest.mark.parametrize("method", ["gillespie", "fpp"])
def test_chunks_cover_any_number_of_paths(method):
    model = PercolationModel(_symmetric(6, 61), KAPPA)
    start = subset_mask([0, 3], 6)
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


def _rebuilt_jump_chain_chunk(gen, size, model, start, t):
    """The jump chain that rebuilds its rates every round: it masks the
    accumulated rows of every running path at its members and takes the full
    row cumsum, whose last entry is the total."""
    rows = model.kappa * model.xi.dense()
    out = np.full(size, start, dtype=np.int64)
    idx = np.arange(size)
    acc = np.tile(rows[mask_members(start)].sum(axis=0), (size, 1))
    clock = np.zeros(size)
    while idx.size:
        cs = np.cumsum(np.where(out[idx, None] >> np.arange(model.n) & 1, 0.0, acc), axis=1)
        live = cs[:, -1] > 0.0
        if not live.all():
            idx, acc, clock, cs = (a[live] for a in (idx, acc, clock, cs))
        total = cs[:, -1]
        clock += gen.standard_exponential(idx.size) / total
        live = clock <= t
        if not live.all():
            idx, acc, clock, cs, total = (a[live] for a in (idx, acc, clock, cs, total))
        j = (cs <= (gen.random(idx.size) * total)[:, None]).sum(axis=1)
        out[idx] |= np.left_shift(1, j)
        acc += rows[j]
    return out


def _directed48(tmp_path):
    """The benchmark's directed n = 48 input at workload seed 1: density 0.1,
    every row sum 0.7."""
    return InteractionMatrix(benchmark_inputs(1, tmp_path)["directed48"][0])


def test_jump_chain_keeps_the_bits_of_the_rebuilt_rates(tmp_path):
    # 2 * CHUNK + 1 paths: two full chunks and a chunk of one path
    d48, reps = _directed48(tmp_path), 2 * CHUNK + 1
    cases = {"mean-field 8": (build_mean_field(8), [0], 1.0),
             "directed 48": (d48, [0], 0.5), "directed 48, long": (d48, [0, 5], 2.0),
             "random 12": (_directed(12, 51), [0, 3], 2.0),
             "mean-field 63": (build_mean_field(63), [62], 2.0),
             "absorbed": (build_mean_field(4), [0], 50.0),
             "n = 1": (InteractionMatrix(np.zeros((1, 1))), [0], 1.0),
             "zero": (InteractionMatrix(np.zeros((5, 5))), [1, 3], 1.0)}
    got = {}
    for name, (xi, v, t) in cases.items():
        model = PercolationModel(xi, KAPPA)
        start = subset_mask(v, xi.n)
        want = np.concatenate([_rebuilt_jump_chain_chunk(gen, hi - lo, model, start, t)
                               for lo, hi, gen in chunk_streams(13, reps)])
        got[name] = terminal_masks(model, v, t, reps, 13)
        assert got[name].tobytes() == want.tobytes(), name
        assert np.all(got[name] & start == start), name
    for name in ("mean-field 8", "directed 48", "directed 48, long", "random 12",
                 "mean-field 63"):
        assert len(set(got[name].tolist())) > 3, name  # the paths do jump
    assert (got["mean-field 63"] >> 62 & 1).all() and (got["mean-field 63"] >> 40).any()
    assert set(got["absorbed"].tolist()) == {0b1111}
    assert set(got["n = 1"].tolist()) == {1} and set(got["zero"].tolist()) == {0b01010}


# perfbench's sampling ops at workload seed 1 and full size, and the sha256
# of their JSON payloads
SAMPLING_PAYLOADS = {
    "mc_mean_field": (("--mean-field", "8", "--v", "0", "--t", "1", "--engine", "mc"),
                      "146158a892ba83f29b2a3ce0589e2c1a6c4e3655f7371ca3e0208a5cfe450755"),
    "fpp_mean_field": (("--mean-field", "8", "--v", "0", "--t", "1", "--engine", "fpp"),
                       "08edd7a9f907fb6a237059ea1a52980f9864c0affc64dbd1b2f47aba6f571ddd"),
    "mc_sparse": (("--matrix", "directed48.json", "--v", "0", "--t", "0.5", "--engine", "mc"),
                  "805e2e17e80fc2f1252bbe39020102608db7ec0859b0f28f04e48d6b7834e7d6"),
}


@pytest.mark.parametrize("op", sorted(SAMPLING_PAYLOADS))
def test_sampling_payloads_keep_their_digests(op, tmp_path):
    benchmark_inputs(1, tmp_path)  # writes directed48.json
    args, digest = SAMPLING_PAYLOADS[op]
    args = tuple(str(tmp_path / a) if a.endswith(".json") else a for a in args)
    out = tmp_path / f"{op}.json"
    argv = ["percolate", *args, "--reps", "25000", "--seed", "1", "--threads", "1",
            "--out", str(out)]
    assert console_main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("case, t, tables", [
    ("directed48", 0.5, 2.0), ("mean-field48", 0.05, 2.0), ("mean-field48", 2.0, 2.5)])
def test_jump_chain_chunk_peak_memory(case, t, tables, tmp_path):
    # one chunk at n = 48, whose (CHUNK, n) float table is CHUNK * n * 8 bytes:
    # the rebuilt rates peaked at 3.1 tables on the first two, and at 3.9 at
    # t = 2, where every path jumps
    xi = _directed48(tmp_path) if case == "directed48" else build_mean_field(48)
    table = CHUNK * 48 * 8
    tracemalloc.start()
    try:
        masks = terminal_masks(PercolationModel(xi, 1.0), [0], t, CHUNK, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(masks.tolist())) > 3  # the paths do jump
    assert peak < tables * table, peak / table


@pytest.mark.parametrize("family", ["linear", "quadratic"])
def test_mc_functional_peak_memory(family):
    # the indicator rows of the sampled masks are built a chunk at a time:
    # all 25,000 at once peaked at about twice reps * n * 8 bytes
    reps, n = 25_000, 48
    payload = {"x": stream(5).random(n)} if family == "linear" else {"G": stream(5).random((n, n))}
    model = PercolationModel(build_mean_field(n), 1.0)
    tracemalloc.start()
    try:
        est = mc_expectation(model, family, [0], 0.5, reps, 3, **payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.stderr > 0.0  # the paths do jump
    assert peak < reps * n * 8, peak / (reps * n * 8)


def test_edge_clock_blocks_match_dijkstra_row_by_row():
    # mean-field 63 has E = 1953 edges, so 600 paths take two clock blocks;
    # path r's clocks are the r-th E exponentials of its chunk's stream
    xi, v, t, seed = build_mean_field(63), [0, 7], 0.6, 3
    iu, ju = np.nonzero(np.triu(xi.dense(), 1))
    rate = KAPPA * xi.dense()[iu, ju]
    assert 600 > CLOCK_BLOCK // rate.size
    gen = stream(seed, SAMPLER)
    want = []
    for _ in range(600):
        graph = csr_matrix((gen.standard_exponential(rate.size) / rate,
                            (iu, ju)), shape=(63, 63))
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
    zero = InteractionMatrix(np.zeros((5, 5)))
    cases = [(_symmetric(5, 62), full, 2.0), (zero, [1, 3], 2.0), (_symmetric(5, 62), [2], 0.0)]
    for xi, v, t in cases:
        masks = terminal_masks(PercolationModel(xi, KAPPA), v, t, CHUNK + 3, 4, method=method)
        assert masks.tolist() == [subset_mask(v, 5)] * (CHUNK + 3), (v, t)


def reference_noise(samples, steps, n, seed):
    """Increments of every sample, shape (steps, samples, n), drawn step
    by step from each chunk's stream, each step for the whole chunk."""
    out = np.empty((steps, samples, n))
    for c, lo in enumerate(range(0, samples, CHUNK)):
        hi = min(lo + CHUNK, samples)
        gen = stream(seed, SAMPLER | c)
        for s in range(steps):
            out[s, lo:hi] = gen.standard_normal((hi - lo, n))
    return out


def test_noise_matches_reference_bitwise():
    cfg = SimConfig(dt=0.25, T=0.75, samples=CHUNK + 3, seed=9)
    noise = reference_noise(cfg.samples, cfg.steps, 2, cfg.seed)
    # under zero drift each sample is the running sum of its scaled increments
    want = np.zeros((cfg.samples, 2))
    for s in range(cfg.steps):
        want = want + cfg.sigma * np.sqrt(cfg.dt) * noise[s]
    zero = InteractionMatrix(np.zeros((2, 2)))
    got = simulate_particles(zero, DRIFTS["zero"], cfg)
    assert got.tobytes() == want.tobytes()
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
    return x


def _sine_pairs(dense):
    def drift(t, x):
        out = np.zeros_like(x)
        for i in range(len(dense)):
            out[:, i] = np.einsum("j,bj->b", dense[i], np.sin(x - x[:, i:i + 1]))
        return out
    return drift


def _sine_mean_field(t, x):
    out = np.empty_like(x)
    for i in range(x.shape[1]):
        m = x[:, i]
        out[:, i] = float(np.sin(m).mean()) * np.cos(m) - float(np.cos(m).mean()) * np.sin(m)
    return out


SDE_CFG = SimConfig(dt=0.1, T=0.5, samples=CHUNK + 3, seed=11, sigma=0.8)


def test_sine_runs_match_the_euler_loop_bitwise():
    xi, cfg = _directed(4, 48), SDE_CFG
    sine = DRIFTS["sine"]
    noise = reference_noise(cfg.samples, cfg.steps, 4, cfg.seed)
    want = _euler(noise, cfg, _sine_pairs(xi.dense()))
    assert simulate_particles(xi, sine, cfg).tobytes() == want.tobytes()
    want = _euler(noise, cfg, _sine_mean_field)
    assert simulate_projection(build_mean_field(4), sine, cfg).tobytes() == want.tobytes()


def test_linear_particles_match_the_einsum_loop():
    # the GEMM sums each drift row in its own order, so rounding may differ
    xi, cfg = _directed(5, 49), SDE_CFG
    noise = reference_noise(cfg.samples, cfg.steps, 5, cfg.seed)
    dense = xi.dense()
    want = _euler(noise, cfg, lambda t, x: np.einsum("ij,bj->bi", dense, x))
    got = simulate_particles(xi, DRIFTS["linear"], cfg)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("run, xi, drift", [
    (simulate_particles, _directed(4, 50), DRIFTS["linear"]),
    (simulate_projection, build_mean_field(4), DRIFTS["sine"]),
])
def test_sde_memory_does_not_grow_with_steps(run, xi, drift):
    # 200 steps: a run that held its increments would peak near 200 states
    cfg = SimConfig(dt=0.005, T=1.0, samples=1000, seed=12)
    state = cfg.samples * xi.n * 8
    tracemalloc.start()
    try:
        run(xi, drift, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * state, peak / state
