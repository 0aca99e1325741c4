"""End-to-end acceptance battery.

Each test pins a headline guarantee of the package at a fixed tolerance:
inequalities hold on random ensembles, closed forms match the exact engine,
independent simulation routes agree in law, and outputs are reproducible
byte for byte.  Seeds are frozen so every run checks the same instances.
"""

import math
import time
from functools import partial
from itertools import combinations

import numpy as np
import pytest

from chaoscope.bounds import gaussian_fk_constants, percolation_entropy_bound
from chaoscope.cli import console_main
from chaoscope.gaussian import (avg_entropy, avg_entropy_sandwich,
                                avg_trace_sq, d_T, sigma_T, subset_entropies)
from chaoscope.linalg import op_norm
from chaoscope.matrix import Graph, InteractionMatrix, build_random_walk, p_xi
from chaoscope.percolation import (PercolationModel, exact_expectations,
                                   functional_values, mc_expectation,
                                   mean_field_size_expectation, terminal_masks,
                                   yule_second_moment)
from chaoscope.rng import stream
from chaoscope.sde import (DRIFTS, SimConfig, simulate_particles,
                           simulate_projection)
from chaoscope.verify import run_suite

from conftest import random_matrices


def test_generator_inequalities_random_ensemble():
    # 50 random substochastic matrices, n <= 10, row and column sums <= 1:
    # every generator inequality (polynomial ell = 1,2,3; linear ell = 0,1,2;
    # quadratic, plain and size-weighted) holds on all 2^n subsets.
    t0 = time.perf_counter()
    (res,) = run_suite("generator", instances=50, seed=0)
    elapsed = time.perf_counter() - t0
    assert res.passed
    slacks = [c.slack for c in res.checks]
    assert min(slacks) >= -1e-9
    assert elapsed < 60.0


def test_expectation_bounds_dominate_exact():
    # same ensemble: exact E_v[F(X_t)] <= closed-form ceiling for all eight
    # moment families at t in {0.1, 0.5, 1, 2}
    t0 = time.perf_counter()
    (res,) = run_suite("expectations", instances=50, seed=0)
    elapsed = time.perf_counter() - t0
    assert res.passed
    slacks = [c.slack for c in res.checks]
    assert min(slacks) >= -1e-9
    assert elapsed < 300.0


@pytest.mark.parametrize("seed", range(4))
def test_verify_battery_passes_with_a_slack_on_every_check(seed):
    # the whole battery at its default instances: every suite passes, and
    # every check measured a finite slack
    for res in run_suite("all", seed=seed):
        assert res.passed, (res.suite, [c.name for c in res.checks if not c.passed])
        for c in res.checks:
            assert type(c.slack) is float and math.isfinite(c.slack), c.name


def test_single_edge_size_closed_form(single_edge):
    kappa, a = 0.8, 0.7
    model = PercolationModel(single_edge, kappa)
    table = partial(functional_values, "size", single_edge)
    for t in (0.1, 0.5, 1.0, 2.0, 4.0):
        want = 2.0 - math.exp(-kappa * a * t)
        got = exact_expectations(model, table, [0], [t], tol=1e-12)[0, 0]
        assert abs(got - want) <= 1e-10
    t = 0.9
    est = mc_expectation(model, "size", [0], t, reps=100000, seed=20250815)
    want = 2.0 - math.exp(-kappa * a * t)
    assert abs(est.mean - want) <= 3.0 * est.stderr


def test_edge_clock_and_jump_chain_laws_agree(four_cycle):
    # the edge-clock construction and the jump-chain sampler target the same
    # law: empirical distributions over all 16 states within TV 0.02
    model = PercolationModel(four_cycle, 1.0)
    reps = 100000
    a = terminal_masks(model, [0], 0.8, reps, seed=11, method="gillespie")
    b = terminal_masks(model, [0], 0.8, reps, seed=12, method="fpp")
    pa = np.bincount(a, minlength=16) / reps
    pb = np.bincount(b, minlength=16) / reps
    assert 0.5 * float(np.abs(pa - pb).sum()) <= 0.02


def test_mean_field_second_moment_yule_domination():
    # all-to-all coupling on 20 sites: the exact growth second moment never
    # exceeds the pure-birth chain started at the same size
    n = 20
    for kappa in (0.5, 1.0):
        for k0 in range(1, 7):
            for t in (0.25, 1.0, 4.0):
                exact = mean_field_size_expectation(n, kappa, k0, t, power=2)
                cap = yule_second_moment(k0, kappa, t)
                assert exact <= cap * (1.0 + 1e-12), (kappa, k0, t)


def test_entropy_sandwich_on_random_ensemble():
    # 100 random instances, horizon inside the small-time window: spectral
    # sandwich for every subset, clique lower and worst-case upper included
    (res,) = run_suite("gaussian", instances=100, seed=0)
    assert res.passed
    slacks = [c.slack for c in res.checks]
    assert min(slacks) >= -1e-9


def test_average_entropy_explicit_sandwich():
    for xi in random_matrices(20, seed=314, n_lo=2, n_hi=10):
        rho = op_norm(xi.dense())
        T = min(0.8 * math.log(2.0) / (2.0 * rho), 1.0) if rho > 0 else 1.0
        gm = sigma_T(xi, T)
        for k in range(1, min(4, xi.n) + 1):
            avg = avg_entropy(gm, k).value
            lo, hi = avg_entropy_sandwich(gm, k)
            lo_e, hi_e = avg_entropy_sandwich(gm, k, explicit=True)
            assert lo - 1e-12 <= avg <= hi + 1e-12
            assert lo_e - 1e-12 <= avg <= hi_e + 1e-12


def test_triangular_matrix_identities():
    # one column of ones below the diagonal: the diagonal defect vanishes
    # identically and the square-sum profiles are integers, exactly
    n = 9
    dense = np.zeros((n, n))
    dense[1:, 0] = 1.0
    tri = InteractionMatrix(dense)
    assert d_T(tri, 0.7) == 0.0
    r2 = (tri.dense() ** 2).sum(axis=1)
    assert float((r2 ** 2).sum()) == float(n - 1)
    trit = InteractionMatrix(dense.T)
    r2t = (trit.dense() ** 2).sum(axis=1)
    assert float((r2t ** 2).sum()) == float((n - 1) ** 2)


def test_average_submatrix_trace_identity():
    gen = stream(777)
    a = gen.standard_normal((12, 12))
    a = (a + a.T) / 2.0
    for k in range(1, 13):
        total = 0.0
        count = 0
        for mem in combinations(range(12), k):
            sub = a[np.ix_(mem, mem)]
            total += float((sub * sub).sum())
            count += 1
        want = total / count
        assert avg_trace_sq(a, k) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_growth_route_dominates_exact_entropy():
    # constants derived from the linear-drift model feed the growth-process
    # bound, which must sit above the exact entropy for every start subset
    for idx, xi in enumerate(random_matrices(8, seed=99, n_lo=2, n_hi=8)):
        T = 0.5 if idx % 2 == 0 else 0.3
        gm = sigma_T(xi, T)
        constants = gaussian_fk_constants(gm)
        bound = percolation_entropy_bound(xi, None, constants)
        exact = subset_entropies(gm, np.arange(1, 1 << xi.n))[0]
        short = np.nonzero(bound[1:] < exact - 1e-9)[0] + 1
        assert short.size == 0, (idx, short)


def test_linear_sde_covariance_and_projection_bitwise(four_cycle):
    cfg = SimConfig(dt=5e-3, T=0.5, samples=100000, seed=20250815)
    out = simulate_particles(four_cycle, DRIFTS["linear"], cfg)
    emp = np.cov(out, rowvar=False)
    want = sigma_T(four_cycle, cfg.T).sigma_T
    for i in range(4):
        for j in range(i, 4):
            se = math.sqrt((emp[i, i] * emp[j, j] + emp[i, j] ** 2)
                           / cfg.samples)
            assert abs(emp[i, j] - want[i, j]) <= 5.0 * se, (i, j)
    zero = InteractionMatrix(np.zeros((4, 4)))
    particles = simulate_particles(zero, DRIFTS["linear"], cfg)
    projection = simulate_projection(zero, DRIFTS["linear"], cfg)
    assert np.array_equal(particles, projection)


def test_regular_graph_structural_identities():
    # m-regular graphs with rows 1/m: every structural quantity is a dyadic
    # rational and must come out exactly.  Sampling is a random relabeling of
    # a circulant, which keeps the degree sequence and the exact row weights.
    for trial, (n, m) in enumerate(((200, 2), (200, 4), (200, 8), (45, 8))):
        relabel = stream(1105, trial).permutation(n)
        edges = sorted({tuple(sorted((int(relabel[i]), int(relabel[(i + o) % n]))))
                        for i in range(n) for o in range(1, m // 2 + 1)})
        xi = build_random_walk(Graph(n, tuple(edges)))
        assert xi.delta == 1.0 / m
        d = xi.dense()
        assert float((d ** 2).sum()) == n / m
        r2 = (d ** 2).sum(axis=1)
        assert float((r2 ** 2).sum()) == n / m ** 2
        assert float((d ** 3).sum()) == n / m ** 2
        assert p_xi(xi) == 6.0 * n / m ** 2


def test_cli_outputs_byte_identical_across_threads(tmp_path):
    runs = {
        "mc.csv": ("percolate", "--mean-field", "5", "--v", "0,1",
                   "--t", "0.3,0.9", "--engine", "mc", "--reps", "20000",
                   "--seed", "17", "--format", "csv"),
        "fpp.csv": ("percolate", "--mean-field", "5", "--v", "0",
                    "--t", "0.6", "--engine", "fpp", "--reps", "20000",
                    "--seed", "23", "--format", "csv"),
        "sim.csv": ("simulate", "--mean-field", "4", "--linear",
                    "--dt", "0.01", "--T", "0.2", "--samples", "20000",
                    "--seed", "31", "--format", "csv"),
    }
    for name, argv in runs.items():
        a = tmp_path / f"one_{name}"
        b = tmp_path / f"many_{name}"
        assert console_main([*argv, "--threads", "1", "--out", str(a)]) == 0
        assert console_main([*argv, "--threads", "8", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), name
