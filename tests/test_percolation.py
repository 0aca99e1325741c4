import math

import numpy as np
import pytest
import scipy.linalg

from chaoscope.bounds import ModelConstants
from chaoscope.matrix import (C_of_v, InteractionMatrix, SubsetState,
                              build_mean_field, lattice)
from chaoscope.percolation import (EngineTooLarge, NotApplicable,
                                   PercolationModel, SubsetFunction,
                                   _gillespie_run, exact_expectation,
                                   expectation_bound, expectation_curve,
                                   functional_table,
                                   functional_values, generator_apply,
                                   lemma_linear_rhs, lemma_polynomial_rhs,
                                   lemma_quadratic_rhs, mc_expectation,
                                   mean_field_size_expectation, terminal_masks,
                                   yule_second_moment)
from chaoscope.rng import stream

from conftest import random_matrices


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
    edges = [InteractionMatrix.from_dense(np.zeros((1, 1))),
             random_matrices(1, seed=19, n_lo=8, n_hi=8)[0]]
    for xi in random_matrices(8, seed=12, n_lo=2, n_hi=6) + edges:
        kappa = float(g.uniform(0.3, 2.0))
        model = PercolationModel(xi, kappa)
        f = g.random(1 << xi.n)
        got = generator_apply(model, SubsetFunction(f, xi.n)).values
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
            got = exact_expectation(model, SubsetFunction(f, xi.n), None, t, tol=1e-12)
            assert np.allclose(got, want, rtol=1e-9, atol=1e-10)


def test_exact_expectation_t0_returns_f():
    xi = build_mean_field(4)
    model = PercolationModel(xi, 1.0)
    f = SubsetFunction(np.arange(16.0), 4)
    assert exact_expectation(model, f, [2], 0.0) == f.values[0b0100]
    assert np.array_equal(exact_expectation(model, f, None, 0.0), f.values)


def test_single_edge_closed_form(single_edge):
    model = PercolationModel(single_edge, 1.3)
    tab = functional_table("size", single_edge)
    for t in (0.0, 0.25, 1.0, 2.5):
        want = 2.0 - math.exp(-1.3 * 0.7 * t)
        got = exact_expectation(model, tab, [0], t, tol=1e-13)
        assert got == pytest.approx(want, abs=2e-12)


def test_full_set_is_absorbing():
    xi = build_mean_field(3)
    model = PercolationModel(xi, 2.0)
    tab = functional_table("size2", xi)
    got = exact_expectation(model, tab, [0, 1, 2], 5.0, tol=1e-13)
    assert got == pytest.approx(9.0, abs=1e-11)


def test_curve_reuse_and_range_guard():
    xi = build_mean_field(3)
    model = PercolationModel(xi, 1.0)
    tab = functional_table("size", xi)
    curve = expectation_curve(model, tab, 2.0, tol=1e-12)
    for t in (0.0, 0.5, 2.0):
        assert curve.eval_all(t)[0b001] == pytest.approx(
            exact_expectation(model, tab, [0], t, tol=1e-12), abs=1e-11)
    with pytest.raises(ValueError):
        curve.eval_all(2.5)
    for t_max in (math.inf, math.nan):
        with pytest.raises(ValueError):
            expectation_curve(model, tab, t_max)


def test_engine_size_limit():
    xi = build_mean_field(17)
    with pytest.raises(EngineTooLarge):
        functional_table("size", xi)


class _TopDraws:
    """Stub generator: unit holding times and the largest uniform below 1."""

    def exponential(self, scale):
        return 1.0

    def random(self):
        return 1.0 - 2.0 ** -53


def test_gillespie_top_uniform_stays_in_range():
    # a row whose pairwise sum exceeds its last cumulative sum: scaling the
    # top uniform by the pairwise total used to search past the last bin
    row = stream(3).random(31)
    row[0] = 0.0
    assert row.sum() > np.cumsum(row)[-1]
    dense = np.zeros((31, 31))
    dense[0] = row
    mask = _gillespie_run(dense, 1.0, SubsetState.of([0], 31), 1.5, _TopDraws())
    assert mask == 1 | 1 << 30


def test_functional_values_match_per_mask_reference():
    xi = random_matrices(1, seed=24, n_lo=5, n_hi=5)[0]
    g = stream(25)
    x, G = g.random(5), g.random((5, 5))
    c = ModelConstants(gamma=0.7, M=1.5, sigma=1.2, T=1.0)
    masks = g.integers(1, 32, size=40)
    members = [SubsetState.from_mask(m, 5).sorted_members() for m in masks.tolist()]
    cases = [
        ("size3", [len(mem) ** 3 for mem in members]),
        (("linear", {"x": x, "ell": 1}), [len(mem) * x[mem].sum() for mem in members]),
        (("quadratic", {"G": G, "ell": 2}),
         [len(mem) ** 2 * G[np.ix_(mem, mem)].sum() for mem in members]),
        (("C", {"constants": c}), [C_of_v(xi, mem, c) for mem in members]),
    ]
    for spec, want in cases:
        assert np.allclose(functional_values(spec, xi, masks), want, rtol=1e-12, atol=0.0)
    assert np.array_equal(functional_table("size", xi).values[masks], [len(m) for m in members])
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
    # clocks, with no early stop, then the ball of radius t
    from scipy.sparse.csgraph import dijkstra
    g = stream(26)
    a = g.random((9, 9)) * (g.random((9, 9)) < 0.5)
    a = np.triu(a, 1) + np.triu(a, 1).T
    xi = InteractionMatrix.from_dense(a)
    v, t = [0, 4], 0.6
    masks = terminal_masks(PercolationModel(xi, 1.3), v, t, reps=60, seed=9, method="fpp")
    upper = xi.ii < xi.jj
    for r, mask in enumerate(masks.tolist()):
        graph = np.zeros((9, 9))
        graph[xi.ii[upper], xi.jj[upper]] = stream(9, r).exponential(1.0 / (1.3 * xi.vals[upper]))
        dist = dijkstra(graph, directed=False, indices=v, min_only=True)
        assert mask == sum(1 << i for i in range(9) if dist[i] <= t)
    assert len(set(masks.tolist())) > 10


def test_fpp_rejects_asymmetric():
    xi = InteractionMatrix.from_dense(np.array([[0.0, 0.5], [0.25, 0.0]]))
    model = PercolationModel(xi, 1.0)
    with pytest.raises(NotApplicable):
        terminal_masks(model, [0], 1.0, reps=1, seed=1, method="fpp")


def test_mc_agrees_with_exact(four_cycle):
    model = PercolationModel(four_cycle, 1.0)
    tab = functional_table("size", four_cycle)
    want = exact_expectation(model, tab, [0], 0.8)
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


def test_callable_functional(four_cycle):
    model = PercolationModel(four_cycle, 1.0)

    def biggest(v):
        return float(max(v.sorted_members(), default=0))

    est = mc_expectation(model, biggest, [1], 0.0, reps=50, seed=0)
    assert est.mean == 1.0


def test_lemma_rhs_formulas():
    for xi in random_matrices(4, seed=15, n_lo=2, n_hi=5):
        model = PercolationModel(xi, 0.7)
        ind, sizes = lattice(xi.n)
        d = xi.dense()
        for ell in (1, 2, 3):
            want = 0.7 * sizes * ((sizes + 1.0) ** ell - sizes ** ell)
            got = lemma_polynomial_rhs(model, ell).values
            assert np.allclose(got, want, rtol=1e-12)
        x = np.abs(stream(16).random(xi.n))
        lin = ind @ x
        xix = ind @ (d @ x)
        for ell in (0, 1, 2):
            want = 0.7 * ((sizes + 1.0) ** ell * xix
                          + sizes * ((sizes + 1.0) ** ell - sizes ** ell) * lin)
            got = lemma_linear_rhs(model, x, ell).values
            assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_lemma_quadratic_rhs_formula():
    g = stream(17)
    for xi in random_matrices(4, seed=18, n_lo=2, n_hi=5):
        d = xi.dense()
        model = PercolationModel(xi, 1.1)
        G = g.random((xi.n, xi.n))
        ind, sizes = lattice(xi.n)
        diag = ind @ (d @ np.diag(G))
        cross = np.einsum("mi,mi->m", ind @ (d @ G + G @ d.T), ind)
        quad = np.einsum("mi,mi->m", ind @ G, ind)
        want0 = 1.1 * (diag + cross)
        want1 = 1.1 * ((sizes + 1.0) * (diag + cross) + sizes * quad)
        assert np.allclose(lemma_quadratic_rhs(model, G, 0).values, want0, rtol=1e-12)
        assert np.allclose(lemma_quadratic_rhs(model, G, 1).values, want1, rtol=1e-12)


def test_expectation_bound_rejects_invalid_inputs():
    xi = build_mean_field(3)
    model = PercolationModel(xi, 1.0)
    with pytest.raises(ValueError):
        expectation_bound(model, "linear", [0], 1.0, x=np.array([-1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        expectation_bound(model, "nope", [0], 1.0)
    hot = InteractionMatrix.from_dense(np.array([[0.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        expectation_bound(PercolationModel(hot, 1.0), "size", [0], 1.0)


def test_expectation_bound_families_closed_forms():
    xi = build_mean_field(4)
    model = PercolationModel(xi, 0.9)
    v = SubsetState.of([0, 1], 4)
    t = 0.6
    assert expectation_bound(model, "size", v, t) == pytest.approx(
        math.exp(0.9 * t) * 2.0, rel=1e-12)
    assert expectation_bound(model, "size2", v, t) == pytest.approx(
        2.0 * math.exp(2 * 0.9 * t) * 4.0, rel=1e-12)
    assert expectation_bound(model, "size3", v, t) == pytest.approx(
        8.0 * math.exp(3 * 0.9 * t) * 8.0, rel=1e-12)
    x = np.full(4, 0.5)
    d = xi.dense()
    e = scipy.linalg.expm(0.9 * t * d)
    ind = v.indicator()
    assert expectation_bound(model, "linear", v, t, x=x) == pytest.approx(
        float(ind @ (e @ x)), rel=1e-10)
    assert expectation_bound(model, "size-linear", v, t, x=x) == pytest.approx(
        2.0 * math.exp(0.9 * t) * float(ind @ (e @ (x + d @ x))), rel=1e-10)
    y = x + d @ x
    assert expectation_bound(model, "size2-linear", v, t, x=x) == pytest.approx(
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
    v = SubsetState.of([0, 2], 4)
    ind = v.indicator()

    def integrand(s):
        return float(ind @ (d @ scipy.linalg.expm(0.8 * (t - s) * d) @ np.diag(g_mat(s))))

    import scipy.integrate
    tail, _ = scipy.integrate.quad(integrand, 0.0, t, epsabs=1e-12, epsrel=1e-12)
    want = float(ind @ g_mat(t) @ ind) + 0.8 * tail
    got = expectation_bound(model, "quadratic", v, t, G=G, tol=1e-10)
    assert got == pytest.approx(want, rel=1e-7)


def test_quadratic_bounds_integrate_once(monkeypatch):
    import chaoscope.linalg as linalg
    calls = []
    quadrature = linalg.simpson_adaptive

    def counted(*args, **kwargs):
        calls.append(1)
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(linalg, "simpson_adaptive", counted)
    xi = random_matrices(1, seed=20, n_lo=4, n_hi=4)[0]
    model = PercolationModel(xi, 0.8)
    G = stream(19).random((4, 4))
    for family in ("quadratic", "size-quadratic"):
        calls.clear()
        expectation_bound(model, family, [0, 2], 0.7, G=G)
        assert len(calls) == 1, family


def test_expectation_bound_all_matches_single():
    xi = random_matrices(1, seed=22, n_lo=3, n_hi=3)[0]
    model = PercolationModel(xi, 1.2)
    g = stream(23)
    x = g.random(3)
    G = g.random((3, 3))
    t = 0.9
    for family in ("size", "size2", "size3", "linear", "size-linear",
                   "size2-linear", "quadratic", "size-quadratic"):
        vec = expectation_bound(model, family, None, t, x=x, G=G)
        for mask in (1, 3, 7):
            v = SubsetState.from_mask(mask, 3)
            single = expectation_bound(model, family, v, t, x=x, G=G)
            assert vec[mask] == pytest.approx(single, rel=1e-9, abs=1e-12)


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


def test_mean_field_size_chain_matches_exact_engine():
    for n in (3, 5, 8):
        xi = build_mean_field(n)
        model = PercolationModel(xi, 1.1)
        tab = functional_table("size2", xi)
        for k0 in (1, 2):
            v = list(range(k0))
            for t in (0.3, 1.5):
                want = exact_expectation(model, tab, v, t, tol=1e-12)
                got = mean_field_size_expectation(n, 1.1, k0, t, power=2)
                assert got == pytest.approx(want, rel=1e-9)


def test_mean_field_size_chain_needs_two_sites():
    for n in (0, 1):
        with pytest.raises(ValueError, match=f"need n >= 2 .*got n={n}"):
            mean_field_size_expectation(n, 1.0, 1, 1.0)


def test_mean_field_size_chain_callable():
    got = mean_field_size_expectation(6, 1.0, 2, 0.8, power=lambda k: k ** 3)
    want = mean_field_size_expectation(6, 1.0, 2, 0.8, power=3)
    assert got == pytest.approx(want, rel=1e-12)


def test_model_validates_kappa():
    xi = build_mean_field(3)
    for kappa in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            PercolationModel(xi, kappa)
