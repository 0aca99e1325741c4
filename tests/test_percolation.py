import math
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from chaoscope import percolation
from chaoscope.bounds import ModelConstants, percolation_entropy_bound
from chaoscope.matrix import (InteractionMatrix, MatrixError, build_mean_field,
                              cost_values, indicators, mask_members, random_substochastic,
                              subset_mask)
from chaoscope.percolation import (FAMILIES, EngineTooLarge, PercolationModel, _Engine,
                                   exact_expectations, expectation_bounds,
                                   functional_values, generator_apply,
                                   lemma_rhs, mc_expectation,
                                   mean_field_size_expectation, terminal_masks,
                                   yule_second_moment)
from chaoscope.rng import chunk_streams, stream
from chaoscope.verify import run_suite

from conftest import benchmark_inputs, lookup, random_matrices


def brute_generator(xi, kappa, f):
    """A F by the definition: rate kappa * sum_{i in v} xi_ij for each j outside."""
    n = xi.n
    d = xi.dense()
    out = np.zeros(1 << n)
    for mask in range(1 << n):
        mem = [i for i in range(n) if (mask >> i) & 1]
        for j in range(n):
            if not (mask >> j) & 1:
                rate = kappa * sum(d[i, j] for i in mem)
                out[mask] += rate * (f[mask | (1 << j)] - f[mask])
    return out


def full_rate_matrix(xi, kappa):
    """Dense generator over all 2^n subsets, for the scipy cross-check."""
    n = xi.n
    d = xi.dense()
    size = 1 << n
    q = np.zeros((size, size))
    for mask in range(size):
        mem = [i for i in range(n) if (mask >> i) & 1]
        for j in range(n):
            if not (mask >> j) & 1:
                rate = kappa * sum(d[i, j] for i in mem)
                q[mask, mask | (1 << j)] += rate
                q[mask, mask] -= rate
    return q


def test_generator_matches_definition():
    g = stream(11)
    # n=1 and n=8 reach the first (2^0) and widest (2^7) step_pairs blocks
    edges = [InteractionMatrix(np.zeros((1, 1))),
             random_matrices(1, seed=19, n_lo=8, n_hi=8)[0]]
    for xi in random_matrices(8, seed=12, n_lo=2, n_hi=6) + edges:
        kappa = float(g.uniform(0.3, 2.0))
        model = PercolationModel(xi, kappa)
        f = g.random(1 << xi.n)
        got = generator_apply(model, lookup(f))
        assert np.allclose(got, brute_generator(xi, kappa, f), rtol=1e-12, atol=1e-13)


def test_exact_expectation_matches_scipy_expm():
    g = stream(13)
    for xi in random_matrices(6, seed=14, n_lo=2, n_hi=5):
        kappa = float(g.uniform(0.3, 1.5))
        model = PercolationModel(xi, kappa)
        f = g.random(1 << xi.n)
        q = full_rate_matrix(xi, kappa)
        for t in (0.3, 1.7):
            want = scipy.linalg.expm(t * q) @ f
            got = exact_expectations(model, lookup(f), None, [t], tol=1e-12)[0]
            assert np.allclose(got, want, rtol=1e-9, atol=1e-10)


def test_exact_expectation_t0_returns_f():
    xi = build_mean_field(4)
    model = PercolationModel(xi, 1.0)
    f = np.arange(16.0)
    assert exact_expectations(model, lookup(f), [2], [0.0])[0, 0] == f[0b0100]
    assert np.array_equal(exact_expectations(model, lookup(f), None, [0.0])[0], f)


def test_exact_expectation_of_a_stack_at_a_start_subset():
    # a start subset's row 0 is a length-c array for a stack of c tables,
    # bitwise its columns' own calls
    xi = build_mean_field(4)
    model = PercolationModel(xi, 1.0)
    cols = [partial(functional_values, name, xi) for name in ("size", "size2")]
    stack = lambda masks: np.column_stack([c(masks) for c in cols])
    for t in (0.0, 0.7):
        got = exact_expectations(model, stack, [0], [t])[0, 0]
        singles = [exact_expectations(model, c, [0], [t])[0, 0] for c in cols]
        assert got.shape == (2,) and np.array_equal(got, singles)


def test_single_edge_closed_form(single_edge):
    model = PercolationModel(single_edge, 1.3)
    tab = partial(functional_values, "size", single_edge)
    for t in (0.0, 0.25, 1.0, 2.5):
        want = 2.0 - math.exp(-1.3 * 0.7 * t)
        got = exact_expectations(model, tab, [0], [t], tol=1e-13)[0, 0]
        assert got == pytest.approx(want, abs=2e-12)


def test_full_set_is_absorbing():
    xi = build_mean_field(3)
    model = PercolationModel(xi, 2.0)
    tab = partial(functional_values, "size2", xi)
    got = exact_expectations(model, tab, [0, 1, 2], [5.0], tol=1e-13)[0, 0]
    assert got == 9.0  # its up-set has no exit, so the curve is F itself


def test_curve_reuse_and_range_guard():
    # one pass serves every time: each row is the one-time call's within
    # tol * max|F|, and the last time, whose order both take, bitwise
    gen = stream(15)
    for xi in (build_mean_field(3), random_substochastic(5, gen)):
        n = xi.n
        model = PercolationModel(xi, 1.0)
        times = [0.0, 0.5, 0.5, 1.2, 2.0]
        for F in (partial(functional_values, "size", xi), lookup(gen.random((1 << n, 2)))):
            cert = 1e-12 * np.abs(F(np.arange(1 << n))).max()
            for v in (None, [0]):
                got = exact_expectations(model, F, v, times, tol=1e-12)
                for t, row in zip(times, got):
                    one = exact_expectations(model, F, v, [t], tol=1e-12)[0]
                    assert np.abs(row - one).max() <= cert
                assert np.array_equal(got[-1], one)
    for times in ([0.5, 0.2], [math.inf], [math.nan], [-0.1], [0.5, math.nan], []):
        with pytest.raises(ValueError, match="times must be finite, nonnegative and sorted"):
            exact_expectations(model, F, None, times)
    for tol in (0.0, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            exact_expectations(model, F, None, [1.0], tol=tol)


def test_engine_size_limit():
    # past n = 16 every exact route refuses before it calls F or H0
    xi = build_mean_field(17)
    calls = []

    def F(masks):
        calls.append(masks)
        return np.zeros(masks.size)

    c = ModelConstants(gamma=1.0, M=1.0, sigma=1.0, T=0.5)
    routes = [lambda: exact_expectations(PercolationModel(xi, 1.0), F, None, [1.0]),
              lambda: exact_expectations(PercolationModel(xi, 1.0), F, [0], [1.0]),
              lambda: generator_apply(PercolationModel(xi, 1.0), F),
              lambda: percolation_entropy_bound(xi, [0], c, H0=F),
              lambda: percolation_entropy_bound(xi, None, c, H0=F)]
    for route in routes:
        with pytest.raises(EngineTooLarge, match="exact engine handles n <= 16, got 17"):
            route()
    assert calls == []


def test_engine_calls_F_once_at_the_masks_it_visits():
    gen = stream(90)
    for n in (1, 3, 6):
        model = PercolationModel(random_substochastic(n, gen), 0.8)
        values = gen.random((1 << n, 2))
        calls = []

        def F(masks):
            calls.append(masks.copy())
            return values[masks]

        for v in (None, [0], [n - 1], list(range(n))):
            calls.clear()
            exact_expectations(model, F, v, [0.3, 1.0], rate=0.2)
            assert len(calls) == 1
            (masks,) = calls
            if v is None:
                assert np.array_equal(masks, np.arange(1 << n))
                continue
            mask = subset_mask(v, n)
            assert masks.size == 1 << (n - len(v)) and masks[0] == mask
            assert sorted(masks.tolist()) == [m for m in range(1 << n) if m & mask == mask]
        calls.clear()
        generator_apply(model, F)
        assert len(calls) == 1 and np.array_equal(calls[0], np.arange(1 << n))


def exit_rates(xi, kappa):
    """kappa * sum_{j not in m} sum_{i in m} xi_ij at every mask m."""
    ind = indicators(np.arange(1 << xi.n), xi.n)
    return kappa * ((1 - ind) * (ind @ xi.dense())).sum(axis=1)


def test_uniformization_rate_is_the_largest_exit_rate():
    mean_field = build_mean_field(16)
    directed = random_matrices(1, seed=41, n_lo=10, n_hi=10)[0]
    for xi, kappa in ((mean_field, 1.0), (directed, 0.7)):
        lam = _Engine(PercolationModel(xi, kappa)).lam
        top = exit_rates(xi, kappa).max()
        assert top <= lam <= (1 + 1e-11) * top
    # the largest exit is from 8 of 16 sites: 8 * 8 / 15, where n = 16 was used
    assert _Engine(PercolationModel(mean_field, 1.0)).lam == pytest.approx(64 / 15, rel=1e-11)


def test_uniformized_kernel_is_stochastic():
    xi = random_matrices(1, seed=42, n_lo=5, n_hi=5)[0]
    eng = _Engine(PercolationModel(xi, 1.4))
    kernel = np.column_stack([eng.apply_kernel(e) for e in np.eye(32)])
    assert kernel.min() >= 0.0
    assert np.abs(kernel.sum(axis=1) - 1.0).max() <= 1e-15


def test_models_without_exits_keep_f():
    for n in (1, 4):
        model = PercolationModel(InteractionMatrix(np.zeros((n, n))), 1.3)
        assert _Engine(model).lam == 1.3
        f = np.arange(1 << n) + 0.5
        for mask in range(1 << n):
            got = exact_expectations(model, lookup(f), mask_members(mask), [2.0])[0, 0]
            assert got == f[mask]
        assert np.array_equal(exact_expectations(model, lookup(f), None, [2.0], rate=0.0)[1],
                              f * 2.0)
        assert np.array_equal(exact_expectations(model, lookup(f), None, [2.0], rate=0.5)[1],
                              f * (-math.expm1(-1.0) / 0.5))


def test_upset_route_matches_full_lattice(single_edge):
    """A single start runs on its 2^(n-|v|) supersets and agrees with the full
    lattice: row 0 within tol * max|F| (the integral within t_max times that),
    and every value and integral bitwise the full lattice's at the up-set
    masks wherever the two rates agree."""
    gen = stream(70)
    zero = lambda n: InteractionMatrix(np.zeros((n, n)))
    matrices = [random_substochastic(n, gen) for n in range(1, 9)]
    matrices += [zero(4), zero(1), single_edge]
    tol, times = 1e-10, (0.0, 0.3, 1.7)
    for xi in matrices:
        n = xi.n
        model = PercolationModel(xi, float(gen.uniform(0.3, 1.5)))
        lam = _Engine(model, 0).curve_lam
        for values in (gen.random(1 << n), gen.random((1 << n, 3)) - 0.5):
            F = lookup(values)
            cert = tol * np.abs(values).max()
            full = exact_expectations(model, F, None, times, tol, rate=0.4)
            for mask in range(1 << n):
                v = mask_members(mask)
                eng = _Engine(model, mask)
                up = exact_expectations(model, F, v, times, tol, rate=0.4)
                assert up.shape[1] == 1 << (n - len(v))
                assert eng.masks[0] == mask and (eng.masks & mask == mask).all()
                assert eng.curve_lam <= lam
                if eng.curve_lam == lam:
                    assert np.array_equal(up, full[:, eng.masks])
                assert np.abs(up[:-1, 0] - full[:-1, mask]).max() <= cert
                assert np.abs(up[-1, 0] - full[-1, mask]).max() <= times[-1] * cert
                got = exact_expectations(model, F, v, [times[-1]], tol)[0, 0]
                assert np.array_equal(got, up[-2, 0])


def test_kernel_step_matches_definition():
    # n = 8 runs the transposed layout of bits 0-3 and the plain one of bits 4-7
    xi = random_matrices(1, seed=43, n_lo=8, n_hi=8)[0]
    kappa = 0.9
    eng = _Engine(PercolationModel(xi, kappa))
    f = stream(44).random(1 << 8)
    want = f + brute_generator(xi, kappa, f) / eng.lam
    assert np.abs(eng.apply_kernel(f) - want).max() <= 1e-13


def test_stacked_tables_match_their_columns():
    # n = 1..10 runs both bit layouts; the columns must be bitwise those of
    # the same calls made one table at a time
    for n in range(1, 11):
        gen = stream(60 + n)
        model = PercolationModel(random_substochastic(n, gen), float(gen.uniform(0.3, 1.0)))
        eng = _Engine(model)
        values = gen.random((1 << n, 3))
        stack = lookup(values)
        lhs = generator_apply(model, stack)
        step = eng.apply_kernel(values)
        runs = [dict(times=times, rate=rate) for times in ((0.0, 0.4), (0.0, 0.4, 1.3, 2.0))
                for rate in (0.0, 0.7)]
        stacked = [exact_expectations(model, stack, None, **run) for run in runs]
        for k in range(3):
            col = lookup(values[:, k])
            assert np.array_equal(lhs[:, k], generator_apply(model, col))
            assert np.array_equal(step[:, k], eng.apply_kernel(values[:, k]))
            for run, got in zip(runs, stacked):
                # values at each time and the integral row
                assert np.array_equal(got[..., k], exact_expectations(model, col, None, **run))


def test_stacked_upset_tables_match_their_columns():
    # eight columns, as the battery stacks its families, from the full lattice
    # and from an up-set; n = 3 has only bits below 4, n = 5 and 6 cross it
    for n in (3, 5, 6):
        gen = stream(70 + n)
        model = PercolationModel(random_substochastic(n, gen), float(gen.uniform(0.3, 1.0)))
        values = gen.random((1 << n, 8))
        lhs = generator_apply(model, lookup(values))
        for v in (None, [0], [1, n - 1]):
            stacked = exact_expectations(model, lookup(values), v, (0.2, 1.1), rate=0.4)
            for k in range(8):
                col = lookup(values[:, k])
                assert np.array_equal(stacked[..., k],
                                      exact_expectations(model, col, v, (0.2, 1.1), rate=0.4))
                if v is None:
                    assert np.array_equal(lhs[:, k], generator_apply(model, col))


def test_subset_function_shapes():
    # F gives one value, or one row of a stack, per mask; anything else is refused
    model = PercolationModel(build_mean_field(3), 1.0)
    stack = lambda masks: np.zeros((masks.size, 2))
    assert generator_apply(model, stack).shape == (8, 2)
    assert exact_expectations(model, stack, [0], [1.0]).shape == (1, 4, 2)
    bad = [lambda m: np.zeros((m.size, 2, 1)), lambda m: np.zeros((5, 2)),
           lambda m: np.zeros(7), lambda m: 1.0, lambda m: np.zeros(m.size + 1)]
    for F in bad:
        for route in (lambda: generator_apply(model, F),
                      lambda: exact_expectations(model, F, None, [1.0]),
                      lambda: exact_expectations(model, F, [0], [1.0])):
            with pytest.raises(ValueError, match="F must give one value or one row per mask"):
                route()


class _TopDraws:
    """Stub chunk stream: unit exponentials and the largest uniform below 1."""

    def standard_exponential(self, size):
        return np.ones(size)

    def random(self, size):
        return np.full(size, 1.0 - 2.0 ** -53)


class _LateSecondDraws(_TopDraws):
    """_TopDraws, but path 0's second exponential puts it past any t."""

    def __init__(self):
        self.calls = 0

    def standard_exponential(self, size):
        self.calls += 1
        e = np.ones(size)
        e[0] = 1e9 if self.calls == 2 else 1.0
        return e


def test_gillespie_top_uniform_stays_in_range(monkeypatch):
    # a row whose pairwise sum exceeds its last cumulative sum: scaling the
    # top uniform by the pairwise total used to search past the last bin
    row = stream(3).random(31)
    row[0] = 0.0
    assert row.sum() > np.cumsum(row)[-1]
    dense = np.zeros((31, 31))
    dense[0] = row
    monkeypatch.setattr(percolation, "chunk_streams",
                        lambda seed, total: [(0, total, _TopDraws())])
    # the clock gains 1 / total per event, so it passes t at the second event
    t = 1.5 / np.cumsum(row)[-1]
    model = PercolationModel(InteractionMatrix(dense), 1.0)
    assert terminal_masks(model, [0], t, reps=3, seed=0).tolist() == [1 | 1 << 30] * 3
    # the row keeps that property while sites 30 and 29 join: searches on
    # one path, and on the two paths left when path 0 stops at its second
    # clock, run after totals over the rates they carry; the clock passes t
    # at the fourth event, whose total is below the third's
    head = [np.cumsum(row[:k])[-1] for k in (31, 30, 29)]
    assert all(row[:k].sum() > h for k, h in zip((31, 30, 29), head))
    t = 1.0 / head[0] + 1.0 / head[1] + 1.5 / head[2]
    assert terminal_masks(model, [0], t, reps=1, seed=0).tolist() == [1 | 7 << 28]
    monkeypatch.setattr(percolation, "chunk_streams",
                        lambda seed, total: [(0, total, _LateSecondDraws())])
    masks = terminal_masks(model, [0], t, reps=3, seed=0)
    assert masks.tolist() == [1 | 1 << 30] + [1 | 7 << 28] * 2


def test_cost_tables_equal_per_mask_slices(tmp_path):
    c = ModelConstants(gamma=0.7, M=1.5, sigma=1.2, T=1.0)
    h3 = 0.8
    lead, scale = math.sqrt(c.gamma * c.M * h3) / c.sigma ** 2, c.M / c.sigma ** 2
    g = stream(26)
    directed16 = InteractionMatrix(benchmark_inputs(1, tmp_path)["directed16"][0])
    cases = [random_substochastic(n, g) for n in range(2, 11)] + [directed16]
    for xi in cases:
        n, d = xi.n, xi.dense()
        every = np.arange(1 << n, dtype=np.int64)
        C, chat = cost_values(xi, every, c), cost_values(xi, every, c, h3)
        assert C[0] == chat[0] == 0.0
        # every mask up to n = 10; at n = 16 a seeded sample, the singletons and the full set
        masks = np.arange(1, 1 << n) if n <= 10 else np.unique(np.concatenate(
            (g.integers(1, 1 << n, 3000), 1 << np.arange(n), [(1 << n) - 1])))
        slices = np.array([[cost_values(xi, [m], c)[0], cost_values(xi, [m], c, h3)[0]]
                           for m in masks.tolist()])
        np.testing.assert_allclose(C[masks], slices[:, 0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(chat[masks], slices[:, 1], rtol=1e-12, atol=0.0)
        # the loop reference: row sums within v, then squares within v
        subs = [d[np.ix_(v, v)] for v in map(mask_members, masks.tolist())]
        rows = np.array([float((sub.sum(axis=1) ** 2).sum()) for sub in subs])
        squares = np.array([float((sub ** 2).sum()) for sub in subs])
        np.testing.assert_allclose(C[masks], scale * rows, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(chat[masks], lead * rows + scale * squares, rtol=1e-12, atol=0.0)


def test_cost_tables_and_slices_refuse_bad_constants():
    xi = build_mean_field(4)
    good = ModelConstants(gamma=0.7, M=1.5, sigma=1.2, T=1.0)
    for sigma in (0.0, -1.0):  # ModelConstants refuses these; the functionals check again
        bad = SimpleNamespace(gamma=0.7, M=1.5, sigma=sigma)
        for route in (lambda: cost_values(xi, np.arange(16), bad),
                      lambda: cost_values(xi, np.arange(16), bad, 0.8),
                      lambda: cost_values(xi, [0b11], bad),
                      lambda: cost_values(xi, [0b11], bad, 0.8)):
            with pytest.raises(MatrixError, match="sigma must be positive"):
                route()
    for h3 in (-1.0, math.nan, math.inf):
        for route in (lambda: percolation_entropy_bound(xi, [0], good, h3=h3),
                      lambda: cost_values(xi, [0b11], good, h3)):
            with pytest.raises(MatrixError, match="h3 must be finite and nonnegative"):
                route()


def test_functional_values_match_per_mask_reference():
    xi = random_matrices(1, seed=24, n_lo=5, n_hi=5)[0]
    g = stream(25)
    x, G = g.random(5), g.random((5, 5))
    masks = g.integers(1, 32, size=40)
    members = [mask_members(m) for m in masks.tolist()]
    k = np.array([len(mem) for mem in members], dtype=float)
    lin = np.array([x[mem].sum() for mem in members])
    quad = np.array([G[np.ix_(mem, mem)].sum() for mem in members])
    cases = [
        ("size", {}, k), ("size2", {}, k ** 2), ("size3", {"x": x, "G": G}, k ** 3),
        ("linear", {"x": x}, lin), ("size-linear", {"x": x}, k * lin),
        ("size2-linear", {"x": x, "G": G}, k ** 2 * lin),
        ("quadratic", {"G": G}, quad), ("size-quadratic", {"G": G}, k * quad),
    ]
    assert [family for family, _, _ in cases] == list(FAMILIES)
    for family, payload, want in cases:
        assert np.allclose(functional_values(family, xi, masks, **payload), want,
                           rtol=1e-12, atol=0.0)
    # a linear or quadratic family without its payload is refused by name,
    # before the sampler draws anything
    model = PercolationModel(xi, 1.0)
    for family, key, other in (("size-linear", "x", {"G": G}), ("quadratic", "G", {"x": x})):
        for route in (lambda: functional_values(family, xi, masks, **other),
                      lambda: exact_expectations(model, partial(functional_values, family, xi),
                                                 [0], [1.0]),
                      lambda: mc_expectation(model, family, [0], 1.0, reps=5, seed=0)):
            with pytest.raises(ValueError, match=f"needs its payload {key}$"):
                route()
    # at t = 0 every path sits at v
    est = mc_expectation(model, "size-linear", [0, 3], 0.0, reps=5, seed=0, x=x)
    assert (est.mean, est.stderr) == (2.0 * (x[0] + x[3]), 0.0)
    at_zero = exact_expectations(model, partial(functional_values, "size", xi), None, [0.0])[0]
    assert np.array_equal(at_zero[masks], [len(m) for m in members])
    # popcounts, no indicator rows: fine beyond the exact-engine limit
    wide = np.array([0, 1, (1 << 47) | 5, (1 << 48) - 1], dtype=np.int64)
    assert np.array_equal(functional_values("size2", build_mean_field(48), wide),
                          [0.0, 1.0, 9.0, 48.0 ** 2])


def test_fpp_matches_gillespie_on_single_edge(single_edge):
    model = PercolationModel(single_edge, 1.3)
    a = terminal_masks(model, [0], 1.0, reps=200, seed=8, method="gillespie")
    b = terminal_masks(model, [0], 1.0, reps=200, seed=8, method="fpp")
    # one exponential clock each: the two engines draw the same variate
    assert np.array_equal(a, b)


def test_fpp_masks_are_first_passage_balls():
    # reference: every shortest-path distance from v over the same edge
    # clocks, with no early stop, then the ball of radius t.  A column is an
    # edge i -> j in row-major order, but a pair of equal rates has one, at
    # i < j, read both ways; the directed matrix has one-way edges, unequal
    # pairs and an equal pair
    from scipy.sparse.csgraph import dijkstra
    g = stream(26)
    a = g.random((9, 9)) * (g.random((9, 9)) < 0.5)
    directed = a * (1.0 - np.eye(9))
    directed[1, 2] = directed[2, 1] = 0.4
    v, t = [0, 4], 0.6
    for xi in (InteractionMatrix(np.triu(a, 1) + np.triu(a, 1).T), InteractionMatrix(directed)):
        masks = terminal_masks(PercolationModel(xi, 1.3), v, t, reps=60, seed=9, method="fpp")
        d = xi.dense()
        iu, ju = np.nonzero(d)
        keep = (iu < ju) | (d[iu, ju] != d[ju, iu])
        iu, ju = iu[keep], ju[keep]
        shared = d[iu, ju] == d[ju, iu]
        # the one chunk's clocks, a row per path
        ((_, _, gen),) = chunk_streams(9, 60)
        clocks = gen.standard_exponential((60, iu.size)) / (1.3 * d[iu, ju])
        for r, mask in enumerate(masks.tolist()):
            graph = np.zeros((9, 9))
            graph[iu, ju] = clocks[r]
            graph[ju[shared], iu[shared]] = clocks[r][shared]
            dist = dijkstra(graph, directed=True, indices=v, min_only=True)
            assert mask == sum(1 << i for i in range(9) if dist[i] <= t)
        assert len(set(masks.tolist())) > 10


def test_fpp_samples_a_directed_pair():
    # one edge each way at unequal rates: two clocks, and only the one out
    # of the start is read
    model = PercolationModel(InteractionMatrix(np.array([[0.0, 0.5], [0.25, 0.0]])), 1.0)
    masks = terminal_masks(model, [0], 1.0, reps=4000, seed=1, method="fpp")
    assert set(masks.tolist()) == {0b01, 0b11}
    assert abs(np.mean(masks == 0b01) - np.exp(-0.5)) <= 4.0 * np.sqrt(0.25 / 4000)


def test_mc_agrees_with_exact(four_cycle):
    model = PercolationModel(four_cycle, 1.0)
    want = exact_expectations(model, partial(functional_values, "size", four_cycle),
                              [0], [0.8])[0, 0]
    est = mc_expectation(model, "size", [0], 0.8, reps=20000, seed=21)
    assert abs(est.mean - want) <= 4.0 * est.stderr
    assert est.stderr > 0.0
    for method in ("gillespie", "fpp"):
        masks = terminal_masks(model, [0, 2], 0.8, reps=500, seed=21, method=method)
        assert np.all(masks & 0b0101 == 0b0101)  # every path keeps its start set


def test_sampling_rejects_bad_times(four_cycle):
    model = PercolationModel(four_cycle, 1.0)
    for t in (-1.0, math.nan, math.inf):
        for method in ("gillespie", "fpp"):
            with pytest.raises(ValueError, match="t must be finite and nonnegative"):
                terminal_masks(model, [0], t, reps=5, seed=0, method=method)
        with pytest.raises(ValueError, match="t must be finite and nonnegative"):
            mc_expectation(model, "size", [0], t, reps=5, seed=0)


def test_mc_needs_two_reps(four_cycle):
    model = PercolationModel(four_cycle, 1.0)
    with pytest.raises(ValueError):
        mc_expectation(model, "size", [0], 1.0, reps=1, seed=0)


def test_mc_t0_is_exact(four_cycle):
    model = PercolationModel(four_cycle, 1.0)
    est = mc_expectation(model, "size2", [0, 2], 0.0, reps=100, seed=0)
    assert est.mean == 4.0 and est.stderr == 0.0


def test_lemma_rhs_formulas():
    for xi in random_matrices(4, seed=15, n_lo=2, n_hi=5):
        model = PercolationModel(xi, 0.7)
        masks = np.arange(1 << xi.n)
        ind, sizes = indicators(masks, xi.n), np.bitwise_count(masks).astype(float)
        d = xi.dense()
        for ell, fam in enumerate(("size", "size2", "size3"), start=1):
            want = 0.7 * sizes * ((sizes + 1.0) ** ell - sizes ** ell)
            got = lemma_rhs(model, masks)[:, list(FAMILIES).index(fam)]
            assert np.allclose(got, want, rtol=1e-12)
        x = np.abs(stream(16).random(xi.n))
        lin = ind @ x
        xix = ind @ (d @ x)
        for ell, fam in enumerate(("linear", "size-linear", "size2-linear")):
            want = 0.7 * ((sizes + 1.0) ** ell * xix
                          + sizes * ((sizes + 1.0) ** ell - sizes ** ell) * lin)
            got = lemma_rhs(model, masks, x=x)[:, list(FAMILIES).index(fam)]
            assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_lemma_quadratic_rhs_formula():
    g = stream(17)
    for xi in random_matrices(4, seed=18, n_lo=2, n_hi=5):
        d = xi.dense()
        model = PercolationModel(xi, 1.1)
        G = g.random((xi.n, xi.n))
        masks = np.arange(1 << xi.n)
        ind, sizes = indicators(masks, xi.n), np.bitwise_count(masks).astype(float)
        diag = ind @ (d @ np.diag(G))
        cross = np.einsum("mi,mi->m", ind @ (d @ G + G @ d.T), ind)
        quad = np.einsum("mi,mi->m", ind @ G, ind)
        want0 = 1.1 * (diag + cross)
        want1 = 1.1 * ((sizes + 1.0) * (diag + cross) + sizes * quad)
        got = dict(zip(FAMILIES, lemma_rhs(model, masks, G=G).T))
        assert np.allclose(got["quadratic"], want0, rtol=1e-12)
        assert np.allclose(got["size-quadratic"], want1, rtol=1e-12)


def _lemma_rhs_one_family(model, family, x, G):
    """The generator bound of one family, formed as a per-family formula."""
    kind, ell = FAMILIES[family]
    masks = np.arange(1 << model.n)
    ind = indicators(masks, model.n)
    sizes = ind.sum(axis=1)
    d = model.xi.dense()
    grow = (sizes + 1.0) ** ell
    step = grow - sizes ** ell
    if kind == "size":
        return model.kappa * sizes * step
    g = sizes * step
    if kind == "linear":
        if x is None:
            return np.zeros(masks.size)
        vals = grow * (ind @ (d @ x)) + g * (ind @ x)
    else:
        if G is None:
            return np.zeros(masks.size)
        drift = (ind @ (d @ np.diag(G).copy())
                 + np.einsum("mi,mi->m", ind @ (d @ G + G @ d.T), ind))
        vals = grow * drift + g * np.einsum("mi,mi->m", ind @ G, ind)
    return model.kappa * vals


def test_batched_lemma_rhs_matches_each_family():
    # one call serves every family, bitwise each family's own formula, and an
    # arbitrary masks array gives the same rows as the full lattice
    gen = stream(91)
    for n in range(1, 9):
        model = PercolationModel(random_substochastic(n, gen), float(gen.uniform(0.3, 1.5)))
        x, G = gen.random(n), gen.random((n, n))
        for payload in ({}, {"x": x}, {"G": G}, {"x": x, "G": G}):
            full = lemma_rhs(model, np.arange(1 << n), **payload)
            assert full.shape == (1 << n, len(FAMILIES))
            for k, family in enumerate(FAMILIES):
                want = _lemma_rhs_one_family(model, family, payload.get("x"), payload.get("G"))
                assert np.array_equal(full[:, k], want), (n, family, sorted(payload))
            picks = [m % (1 << n) for m in (5, 1, 7)]
            assert np.array_equal(lemma_rhs(model, picks, **payload), full[picks])
    assert lemma_rhs(model, []).shape == (0, len(FAMILIES))


def test_unknown_family_is_rejected():
    xi = build_mean_field(3)
    model = PercolationModel(xi, 1.0)
    x, G = np.ones(3), np.ones((3, 3))
    for name in ("size4", "size2-quadratic"):
        with pytest.raises(ValueError, match="unknown family"):
            functional_values(name, xi, [1, 3], x, G)
        with pytest.raises(ValueError, match="unknown family"):
            mc_expectation(model, name, [0], 1.0, reps=5, seed=0, x=x, G=G)


def test_generator_zero_check_reports_its_room():
    # the slack is 1e-12 - max|L f|, as the sigma-series check's is 1e-7 - max|diff|;
    # it was -max|L f|, which could never show room under the gate
    (gen,) = run_suite("generator", instances=3, seed=0)
    (check,) = [c for c in gen.checks if c.name.endswith("annihilates-constants-and-full-set")]
    assert check.passed and 0.0 < check.slack <= 1e-12


def test_family_suites_keep_their_check_names():
    # a check that silently dropped out of the report would fail here
    gen, exp, gauss, bnd = run_suite("all", instances=1, seed=0)
    assert [c.name for c in gen.checks] == [
        "generator.linear.l0", "generator.linear.l1", "generator.linear.l2",
        "generator.polynomial.l1", "generator.polynomial.l2", "generator.polynomial.l3",
        "generator.quadratic.l0", "generator.quadratic.l1",
        "generator.annihilates-constants-and-full-set"]
    assert [c.name for c in exp.checks] == [
        f"expectations.{fam}" for fam in ("linear", "quadratic", "size", "size-linear",
                                          "size-quadratic", "size2", "size2-linear",
                                          "size3")] + ["expectations.yule-dominates"]
    assert [c.name for c in gauss.checks] == [f"gaussian.{name}" for name in (
        "avg-explicit.lower", "avg-explicit.upper", "avg-sandwich.lower", "avg-sandwich.upper",
        "avgtrace-identity", "clique-lower", "dT-dual-route", "dT-envelope.lower",
        "dT-envelope.upper", "eig-window.high", "eig-window.low", "h-lower", "h-upper",
        "max-upper", "monotone-in-v", "rho-upper", "sandwich.lower", "sandwich.upper",
        "sigma-series-vs-quadrature")]
    assert [c.name for c in bnd.checks] == [f"bounds.{name}" for name in (
        "avg-below-max", "avg2way-nonneg", "feynman-kac-dominates", "max-monotone-k",
        "reversed-smaller", "setwise-cap", "setwise-monotone")]


def test_expectations_suite_fails_on_a_halved_yule_cap(monkeypatch):
    # the Yule check reads the library's cap: half of it no longer dominates
    cap = percolation.yule_second_moment
    monkeypatch.setattr(percolation, "yule_second_moment",
                        lambda k, rate, t: 0.5 * cap(k, rate, t))
    (exp,) = run_suite("expectations", instances=1, seed=0)
    assert [c.name for c in exp.checks if not c.passed] == ["expectations.yule-dominates"]


def test_expectation_bound_rejects_invalid_inputs():
    xi = build_mean_field(3)
    model = PercolationModel(xi, 1.0)
    hot = InteractionMatrix(np.array([[0.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        expectation_bounds(PercolationModel(hot, 1.0), [1], [1.0])
    # the ceilings and the generator bounds refuse the same payloads, in numpy's
    # stead, and both read a missing payload as zero
    bad = [("linear", {}, "x must be a length-n vector"),
           ("linear", {"x": np.ones(2)}, "x must be a length-n vector"),
           ("linear", {"x": np.ones((3, 3))}, "x must be a length-n vector"),
           ("size-linear", {"x": np.array([-1.0, 0.0, 0.0])}, "x must be entrywise nonnegative"),
           ("size2-linear", {"x": np.array([math.nan, 0.0, 0.0])},
            "x must be entrywise nonnegative"),
           ("quadratic", {}, "G must be an n x n matrix"),
           ("quadratic", {"G": np.ones(3)}, "G must be an n x n matrix"),
           ("size-quadratic", {"G": np.ones((2, 2))}, "G must be an n x n matrix"),
           ("size-quadratic", {"G": -np.ones((3, 3))}, "G must be entrywise nonnegative"),
           ("quadratic", {"G": np.diag([math.inf, 0.0, 0.0])}, "G must be .* and finite")]
    for family, payload, message in bad:
        if not payload:
            k = list(FAMILIES).index(family)
            assert expectation_bounds(model, [1], [1.0])[0, 0, k] == 0.0
            assert lemma_rhs(model, [1])[0, k] == 0.0
            continue
        with pytest.raises(ValueError, match=message):
            expectation_bounds(model, [1], [1.0], **payload)
        with pytest.raises(ValueError, match=message):
            lemma_rhs(model, [1], **payload)
    with pytest.raises(ValueError, match="x must be entrywise nonnegative"):
        expectation_bounds(model, np.arange(8), [1.0], x=-np.ones(3))
    for times in ([1.0, 0.5], [0.5, math.nan], [-1.0]):
        with pytest.raises(ValueError, match="t must be finite and nonnegative"):
            expectation_bounds(model, np.arange(8), times)


def test_lemma_rhs_needs_row_sums():
    # with a row sum of 2 the size "bound" kappa |v| falls below A|v| = 2 kappa at {0}
    hot = PercolationModel(InteractionMatrix(
        np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])), 1.0)
    lhs = generator_apply(hot, partial(functional_values, "size", hot.xi))
    assert lhs[1] == 2.0
    for payload in ({}, {"x": np.ones(3), "G": np.ones((3, 3))}):
        with pytest.raises(ValueError, match="row sums <= 1"):
            lemma_rhs(hot, np.arange(8), **payload)


def test_expectation_bound_rejects_non_finite_t():
    model = PercolationModel(build_mean_field(3), 1.0)
    x, G = np.ones(3), np.ones((3, 3))
    for masks in ([1], np.arange(8)):
        for t in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="t must be finite and nonnegative"):
                expectation_bounds(model, masks, [t], x=x, G=G)


def test_expectation_bound_families_closed_forms():
    xi = build_mean_field(4)
    model = PercolationModel(xi, 0.9)
    v = subset_mask([0, 1], 4)
    t = 0.6
    x = np.full(4, 0.5)
    got = dict(zip(FAMILIES, expectation_bounds(model, [v], [t], x=x)[0, 0]))
    assert got["size"] == pytest.approx(math.exp(0.9 * t) * 2.0, rel=1e-12)
    assert got["size2"] == pytest.approx(2.0 * math.exp(2 * 0.9 * t) * 4.0, rel=1e-12)
    assert got["size3"] == pytest.approx(8.0 * math.exp(3 * 0.9 * t) * 8.0, rel=1e-12)
    d = xi.dense()
    e = scipy.linalg.expm(0.9 * t * d)
    ind = indicators([v], 4)[0]
    assert got["linear"] == pytest.approx(float(ind @ (e @ x)), rel=1e-10)
    assert got["size-linear"] == pytest.approx(
        2.0 * math.exp(0.9 * t) * float(ind @ (e @ (x + d @ x))), rel=1e-10)
    y = x + d @ x
    assert got["size2-linear"] == pytest.approx(
        2.0 * 4.0 * math.exp(2 * 0.9 * t) * float(ind @ (e @ (y + d @ y))), rel=1e-10)


def test_expectation_bound_quadratic_vs_quadrature():
    g = stream(19)
    xi = random_matrices(1, seed=20, n_lo=4, n_hi=4)[0]
    model = PercolationModel(xi, 0.8)
    G = g.random((4, 4))
    t = 0.7
    d = xi.dense()

    def g_mat(s):
        e = scipy.linalg.expm(0.8 * s * d)
        return e @ G @ e.T

    # quadratic family: <1_v, G_t 1_v> + kappa * int_0^t <1_v, xi e^{kappa(t-s) xi} diag(G_s)> ds
    v = subset_mask([0, 2], 4)
    ind = indicators([v], 4)[0]

    def integrand(s):
        return float(ind @ (d @ scipy.linalg.expm(0.8 * (t - s) * d) @ np.diag(g_mat(s))))

    import scipy.integrate
    tail, _ = scipy.integrate.quad(integrand, 0.0, t, epsabs=1e-12, epsrel=1e-12)
    want = float(ind @ g_mat(t) @ ind) + 0.8 * tail
    quadratic = list(FAMILIES).index("quadratic")
    got = expectation_bounds(model, [v], [t], G=G, tol=1e-10)[0, 0, quadratic]
    assert got == pytest.approx(want, rel=1e-7)


def test_quadratic_bounds_match_quad_vec():
    import scipy.integrate
    g = stream(21)
    kappa = 0.8
    for n in (2, 4, 6):
        xi = random_matrices(1, seed=29 + n, n_lo=n, n_hi=n)[0]
        model = PercolationModel(xi, kappa)
        G = g.random((n, n))
        d = xi.dense()
        ind = indicators(np.arange(1 << n), n)
        sizes = ind.sum(axis=1)

        def g_mat(s):
            e = scipy.linalg.expm(kappa * s * d)
            return e @ G @ e.T

        def quadratic(s, t):
            return d @ scipy.linalg.expm(kappa * (t - s) * d) @ np.diag(g_mat(s))

        def size_quadratic(s, t):
            gs = g_mat(s)
            w = np.diag(d @ gs + gs @ d.T + 2.0 * gs)
            return scipy.linalg.expm(kappa * (t - s) * d) @ (d @ w + d @ (d @ w))

        for t in (0.1, 0.7, 2.0):
            g_t = g_mat(t)
            quad = np.einsum("mi,mi->m", ind @ g_t, ind)
            tail = kappa * scipy.integrate.quad_vec(lambda s: quadratic(s, t), 0.0, t,
                                                    epsabs=1e-13, epsrel=1e-12)[0]
            want = quad + ind @ tail
            got = dict(zip(FAMILIES, expectation_bounds(model, np.arange(1 << n), [t], G=G)[0].T))
            assert np.allclose(got["quadratic"], want, rtol=1e-9, atol=1e-12), (n, t)
            mid = np.einsum("mi,mi->m", ind @ (d @ g_t + g_t @ d.T + g_t), ind)
            tail = kappa * scipy.integrate.quad_vec(lambda s: size_quadratic(s, t), 0.0, t,
                                                    epsabs=1e-13, epsrel=1e-12)[0]
            want = sizes * math.exp(kappa * t) * (mid + ind @ tail)
            assert np.allclose(got["size-quadratic"], want, rtol=1e-9, atol=1e-12), (n, t)


def test_block_operator_norm_bounds(monkeypatch):
    """Each matrix-free block operator's mu dominates the infinity norm of the
    dense matrix it applies, which the Taylor remainder certificate needs."""
    import chaoscope.linalg as linalg
    from chaoscope.gaussian import sigma_T_quadrature
    seen = []
    real = linalg.expm_action

    def recording(apply, b, mu, tol=1e-12):
        seen.append((apply, np.asarray(b, dtype=float), mu))
        return real(apply, b, mu, tol=tol)

    monkeypatch.setattr(linalg, "expm_action", recording)
    g = stream(25)
    for xi in random_matrices(12, seed=26, n_lo=2, n_hi=6):
        model = PercolationModel(xi, float(g.uniform(0.2, 3.0)))
        G = g.random((xi.n, xi.n))
        # the stepped operator at three step lengths
        times = np.sort(g.uniform(0.05, 2.0, 3))
        expectation_bounds(model, [1], times, x=g.random(xi.n), G=G)
        # with G None only the block Y is stepped, at its own mu
        expectation_bounds(model, [1], times, x=g.random(xi.n))
        sigma_T_quadrature(xi, float(times[-1]))
    assert len(seen) == 84
    for apply, b, mu in seen:
        cols = []
        for i in range(b.size):
            e = np.zeros(b.size)
            e[i] = 1.0
            cols.append(np.asarray(apply(e.reshape(b.shape))).ravel())
        dense = np.column_stack(cols)
        assert mu >= np.abs(dense).sum(axis=1).max() * (1.0 - 1e-12)


def test_linear_ceilings_at_large_n_match_scipy_expm():
    # with G None the linear families step an n x 3 block, and the size
    # families take no exponential; quadratic ceilings are zero
    g = stream(45)
    n, kappa = 60, 0.8
    xi = random_substochastic(n, g)
    model = PercolationModel(xi, kappa)
    d, x = xi.dense(), g.random(n)
    v = subset_mask([0, 7, 31], n)
    ind = indicators([v], n)[0]
    times = [0.3, 1.0, 2.5]
    got = expectation_bounds(model, [v], times, x=x)
    bare = expectation_bounds(model, [v], times)
    for k, t in enumerate(times):
        e = scipy.linalg.expm(kappa * t * d)
        y = x
        for j, (kind, ell) in enumerate(FAMILIES.values()):
            weight = (1.0, 1.0, 2.0, 8.0)[ell] * math.exp(ell * kappa * t) * 3.0 ** ell
            if kind == "size":
                assert got[k, 0, j] == bare[k, 0, j] == pytest.approx(weight, rel=1e-15)
            elif kind == "linear":
                assert got[k, 0, j] == pytest.approx(weight * float(ind @ (e @ y)), rel=1e-10)
                assert bare[k, 0, j] == 0.0
                y = y + d @ y
            else:
                assert got[k, 0, j] == bare[k, 0, j] == 0.0


def test_stepped_bounds_within_their_certificate():
    """Ceilings stepped through several times agree with one-step calls within
    the propagated certificate of expectation_bounds, bounded a priori."""
    g = stream(41)
    for xi in random_matrices(6, seed=42, n_lo=2, n_hi=6):
        n, kappa = xi.n, float(g.uniform(0.3, 2.0))
        model = PercolationModel(xi, kappa)
        x, G = g.random(n), g.random((n, n))
        times = [0.0] + sorted(g.uniform(0.05, 2.5, 4).tolist())
        norm_d = float(np.linalg.norm(xi.dense(), np.inf))
        rate = max((kappa + 2.0) * norm_d + 2.0, 2.0 * kappa * norm_d)
        # with row sums <= 1: Y <= 4 e^{kappa t} max x, G_t <= e^{2 kappa t} max G,
        # y0 <= t e^{2 kappa t} max G and y1 <= 4 t e^{2 kappa t} max G
        state = [max(4.0 * math.exp(kappa * t) * x.max(),
                     max(1.0, 4.0 * t) * math.exp(2.0 * kappa * t) * G.max()) for t in times]
        sizes = np.bitwise_count(np.arange(1 << n)).astype(float)
        # each ceiling is a linear form in the state; these bound its coefficients
        coef = {"linear": sizes, "quadratic": sizes ** 2 + kappa * sizes}
        for tol in (1e-12, 1e-6):
            stepped = expectation_bounds(model, np.arange(1 << n), times, x=x, G=G, tol=tol)
            for k, t in enumerate(times):
                single = expectation_bounds(model, np.arange(1 << n), [t], x=x, G=G, tol=tol)[0]
                err = tol * sum(state[i] * math.exp(rate * (t - times[i - 1] if i else t))
                                for i in range(k + 1))
                err += tol * state[k] * math.exp(rate * t)
                for j, (kind, ell) in enumerate(FAMILIES.values()):
                    if kind == "size":
                        assert np.array_equal(stepped[k, :, j], single[:, j])
                        continue
                    weight = (2.0 if ell == 2 else 1.0) * math.exp(ell * kappa * t) * sizes ** ell
                    scale = (3.0 if kind == "quadratic" and ell else 1.0) * coef[kind] * weight
                    assert (np.abs(stepped[k, :, j] - single[:, j]) <= scale * err).all()


def test_curve_integral_matches_quad():
    import scipy.integrate
    xi = random_matrices(1, seed=27, n_lo=4, n_hi=4)[0]
    model = PercolationModel(xi, 1.3)
    F = lookup(stream(28).random(16))
    T = 0.9
    for rate in (0.0, 0.7):
        got = exact_expectations(model, F, None, [T], tol=1e-12, rate=rate)[1]
        for mask in range(16):
            want, _ = scipy.integrate.quad(
                lambda t: math.exp(-rate * t) * exact_expectations(model, F, None, [t],
                                                                   1e-12)[0, mask],
                0.0, T, epsabs=1e-14, epsrel=1e-13)
            assert got[mask] == pytest.approx(want, rel=1e-10), (rate, mask)
    assert np.array_equal(exact_expectations(model, F, None, [0.0], rate=0.7)[1], np.zeros(16))
    for rate in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="rate must be finite and nonnegative"):
            exact_expectations(model, F, None, [T], rate=rate)


def test_expectation_bound_all_matches_single():
    xi = random_matrices(1, seed=22, n_lo=3, n_hi=3)[0]
    model = PercolationModel(xi, 1.2)
    g = stream(23)
    x = g.random(3)
    G = g.random((3, 3))
    t = 0.9
    vec = expectation_bounds(model, np.arange(8), [t], x=x, G=G)[0]
    for mask in (1, 3, 7):
        single = expectation_bounds(model, [mask], [t], x=x, G=G)[0, 0]
        assert single == pytest.approx(vec[mask], rel=1e-9, abs=1e-12)


def test_yule_second_moment_solves_moment_ode():
    # d/dt E[Y^2] = rate * (2 E[Y^2] + E[Y]), E[Y] = k e^{rate t}
    k, rate = 3, 0.8
    for t in (0.1, 0.7, 2.0):
        h = 1e-6
        deriv = (yule_second_moment(k, rate, t + h)
                 - yule_second_moment(k, rate, t - h)) / (2 * h)
        want = rate * (2.0 * yule_second_moment(k, rate, t)
                       + k * math.exp(rate * t))
        assert deriv == pytest.approx(want, rel=1e-5)
    assert yule_second_moment(k, rate, 0.0) == pytest.approx(k * k)
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t must be finite and nonnegative"):
            yule_second_moment(1, 1.0, t)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rate must be positive and finite"):
            yule_second_moment(1, bad, 1.0)
    # the value is past the largest double from rate * t = 355 on, p^2
    # underflows to 0 from 373 on and p itself by 800
    assert yule_second_moment(1, 1.0, 300.0) < math.inf
    for t in (400.0, 800.0):
        with pytest.raises(ValueError, match="second moment overflows"):
            yule_second_moment(1, 1.0, t)


def test_mean_field_size_chain_matches_exact_engine():
    for n in (3, 5, 8):
        xi = build_mean_field(n)
        model = PercolationModel(xi, 1.1)
        tab = partial(functional_values, "size2", xi)
        for k0 in (1, 2):
            v = list(range(k0))
            for t in (0.3, 1.5):
                want = exact_expectations(model, tab, v, [t], tol=1e-12)[0, 0]
                got = mean_field_size_expectation(n, 1.1, k0, t, power=2)
                assert got == pytest.approx(want, rel=1e-9)


def test_mean_field_size_chain_serves_every_start_size_in_one_pass():
    for n, kappa, t in ((20, 0.5, 0.25), (20, 1.0, 4.0), (7, 1.3, 0.0)):
        k0 = np.arange(1, 7)
        got = mean_field_size_expectation(n, kappa, k0, t)
        assert got.shape == (6,)
        singles = [mean_field_size_expectation(n, kappa, int(k), t) for k in k0]
        assert got.tolist() == singles
        assert all(type(x) is float for x in singles)
    for bad in ([0, 1], np.array([1, 6])):
        with pytest.raises(ValueError, match="1 <= k0 <= n"):
            mean_field_size_expectation(5, 1.0, bad, 1.0)


def test_mean_field_size_chain_needs_two_sites():
    for n in (0, 1):
        with pytest.raises(ValueError, match=f"need n >= 2 .*got n={n}"):
            mean_field_size_expectation(n, 1.0, 1, 1.0)


def test_mean_field_size_chain_validates_inputs():
    for kappa in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            mean_field_size_expectation(5, kappa, 2, 1.0)
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t must be finite and nonnegative"):
            mean_field_size_expectation(5, 1.0, 2, t)
    assert mean_field_size_expectation(5, 1.0, 2, 0.0) == 4.0


def test_model_validates_kappa():
    xi = build_mean_field(3)
    for kappa in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            PercolationModel(xi, kappa)
    signed = InteractionMatrix([[0, 0.5, -0.4], [0.3, 0, 0.2], [0.1, 0.1, 0]])
    with pytest.raises(ValueError, match=r"nonnegative matrix, got negative entries at \[\(0, 2\)\]"):
        PercolationModel(signed, 1.0)
