import math

import numpy as np
import pytest
import scipy.linalg

from chaoscope.bounds import ModelConstants
from chaoscope.matrix import (C_of_v, InteractionMatrix, SubsetState,
                              build_mean_field, indicators, lattice)
from chaoscope.percolation import (FAMILIES, EngineTooLarge, NotApplicable,
                                   PercolationModel, SubsetFunction, _engine,
                                   _gillespie_run, _jump_chain, exact_expectation,
                                   expectation_bound, expectation_bounds,
                                   expectation_curve, functional_table,
                                   functional_values, generator_apply,
                                   lemma_rhs, mc_expectation,
                                   mean_field_size_expectation, terminal_masks,
                                   yule_second_moment)
from chaoscope.rng import stream
from chaoscope.verify import random_substochastic, run_suite

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
    assert got == 9.0  # its up-set has no exit, so the curve is F itself


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


def exit_rates(xi, kappa):
    """kappa * sum_{j not in m} sum_{i in m} xi_ij at every mask m."""
    ind = lattice(xi.n)[0]
    return kappa * ((1 - ind) * (ind @ xi.dense())).sum(axis=1)


def test_uniformization_rate_is_the_largest_exit_rate():
    mean_field = build_mean_field(16)
    directed = random_matrices(1, seed=41, n_lo=10, n_hi=10)[0]
    for xi, kappa in ((mean_field, 1.0), (directed, 0.7)):
        lam = _engine(PercolationModel(xi, kappa)).lam
        top = exit_rates(xi, kappa).max()
        assert top <= lam <= (1 + 1e-11) * top
    # the largest exit is from 8 of 16 sites: 8 * 8 / 15, where n = 16 was used
    assert _engine(PercolationModel(mean_field, 1.0)).lam == pytest.approx(64 / 15, rel=1e-11)


def test_uniformized_kernel_is_stochastic():
    xi = random_matrices(1, seed=42, n_lo=5, n_hi=5)[0]
    eng = _engine(PercolationModel(xi, 1.4))
    kernel = np.column_stack([eng.apply_kernel(e) for e in np.eye(32)])
    assert kernel.min() >= 0.0
    assert np.abs(kernel.sum(axis=1) - 1.0).max() <= 1e-15


def test_models_without_exits_keep_f():
    for n in (1, 4):
        model = PercolationModel(InteractionMatrix.from_dense(np.zeros((n, n))), 1.3)
        assert _engine(model).lam == 1.3
        f = SubsetFunction(np.arange(1 << n) + 0.5, n)
        for mask in range(1 << n):
            got = exact_expectation(model, f, SubsetState(mask, n).members, 2.0)
            assert got == f.values[mask]
        curve = expectation_curve(model, f, 2.0)
        assert np.array_equal(curve.integral_all(2.0), f.values * 2.0)
        assert np.array_equal(curve.integral_all(2.0, 0.5),
                              f.values * (-math.expm1(-1.0) / 0.5))


def test_upset_route_matches_full_lattice(single_edge):
    """A single start runs on its 2^(n-|v|) supersets and agrees with the full
    lattice: row 0 within tol * max|F|, and every curve coefficient bitwise
    the full curve's at the up-set masks wherever the two rates agree."""
    gen = stream(70)
    zero = lambda n: InteractionMatrix.from_dense(np.zeros((n, n)))
    matrices = [random_substochastic(n, gen) for n in range(1, 9)]
    matrices += [zero(4), zero(1), single_edge]
    tol = 1e-10
    for xi in matrices:
        n = xi.n
        model = PercolationModel(xi, float(gen.uniform(0.3, 1.5)))
        lam = _engine(model, 0).curve_lam
        for F in (SubsetFunction(gen.random(1 << n), n),
                  SubsetFunction(gen.random((1 << n, 3)) - 0.5, n)):
            cert = tol * np.abs(F.values).max()
            full = expectation_curve(model, F, 1.7, tol)
            at = {t: exact_expectation(model, F, None, t, tol) for t in (0.3, 1.7)}
            for mask in range(1 << n):
                v = SubsetState(mask, n)
                eng = _engine(model, mask)
                up = expectation_curve(model, F, 1.7, tol, v)
                assert up.coeffs.shape[1] == 1 << (n - v.size)
                assert eng.masks[0] == mask and (eng.masks & mask == mask).all()
                assert eng.curve_lam <= lam
                if eng.curve_lam == lam:
                    assert np.array_equal(up.coeffs, full.coeffs[:, eng.masks])
                for t in (0.0, 0.3, 1.7):
                    got = up.eval_all(t)[0]
                    assert np.abs(got - full.eval_all(t)[mask]).max() <= cert
                    if F.values.ndim == 1 and t:
                        assert abs(exact_expectation(model, F, v, t, tol) - at[t][mask]) <= cert


def test_kernel_step_matches_definition():
    # n = 8 runs the transposed layout of bits 0-3 and the plain one of bits 4-7
    xi = random_matrices(1, seed=43, n_lo=8, n_hi=8)[0]
    kappa = 0.9
    eng = _engine(PercolationModel(xi, kappa))
    f = stream(44).random(1 << 8)
    want = f + brute_generator(xi, kappa, f) / eng.lam
    assert np.abs(eng.apply_kernel(f) - want).max() <= 1e-13


def test_stacked_tables_match_their_columns():
    # n = 1..10 runs both bit layouts; the columns must be bitwise those of
    # the same calls made one table at a time
    for n in range(1, 11):
        gen = stream(60 + n)
        model = PercolationModel(random_substochastic(n, gen), float(gen.uniform(0.3, 1.0)))
        eng = _engine(model)
        stack = SubsetFunction(gen.random((1 << n, 3)), n)
        lhs = generator_apply(model, stack).values
        step = eng.apply_kernel(stack.values)
        curve = expectation_curve(model, stack, 2.0)
        for k in range(3):
            col = SubsetFunction(stack.values[:, k], n)
            assert np.array_equal(lhs[:, k], generator_apply(model, col).values)
            assert np.array_equal(step[:, k], eng.apply_kernel(col.values))
            one = expectation_curve(model, col, 2.0)
            for t in (0.0, 0.4, 1.3, 2.0):
                assert np.array_equal(curve.eval_all(t)[:, k], one.eval_all(t))
                for rate in (0.0, 0.7):
                    assert np.array_equal(curve.integral_all(t, rate)[:, k],
                                          one.integral_all(t, rate))


def test_subset_function_shapes():
    assert SubsetFunction(np.zeros((8, 2)), 3).values.shape == (8, 2)
    for bad in (np.zeros((8, 2, 1)), np.zeros((4, 2)), np.zeros(7)):
        with pytest.raises(ValueError, match="2\\^3"):
            SubsetFunction(bad, 3)


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
    mask = _gillespie_run(_jump_chain(dense, 1.0, [0]), 1.5, _TopDraws())
    assert mask == 1 | 1 << 30


def test_functional_values_match_per_mask_reference():
    xi = random_matrices(1, seed=24, n_lo=5, n_hi=5)[0]
    g = stream(25)
    x, G = g.random(5), g.random((5, 5))
    c = ModelConstants(gamma=0.7, M=1.5, sigma=1.2, T=1.0)
    masks = g.integers(1, 32, size=40)
    members = [SubsetState(m, 5).members for m in masks.tolist()]
    k = np.array([len(mem) for mem in members], dtype=float)
    lin = np.array([x[mem].sum() for mem in members])
    quad = np.array([G[np.ix_(mem, mem)].sum() for mem in members])
    cases = [
        ("size", k), ("size2", k ** 2), ("size3", k ** 3),
        (("linear", {"x": x}), lin), (("size-linear", {"x": x}), k * lin),
        (("size2-linear", {"x": x, "G": G}), k ** 2 * lin),
        (("quadratic", {"G": G}), quad), (("size-quadratic", {"G": G}), k * quad),
        (("C", {"constants": c}), [C_of_v(xi, mem, c) for mem in members]),
    ]
    assert {spec if isinstance(spec, str) else spec[0] for spec, _ in cases} >= set(FAMILIES)
    for spec, want in cases:
        assert np.allclose(functional_values(spec, xi, masks), want, rtol=1e-12, atol=0.0)
    # the size weight lives in the family name; a leftover ell payload is an error
    with pytest.raises(ValueError, match="payload"):
        functional_values(("linear", {"x": x, "ell": 1}), xi, masks)
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
        return float(max(v.members, default=0))

    est = mc_expectation(model, biggest, [1], 0.0, reps=50, seed=0)
    assert est.mean == 1.0


def test_lemma_rhs_formulas():
    for xi in random_matrices(4, seed=15, n_lo=2, n_hi=5):
        model = PercolationModel(xi, 0.7)
        ind, sizes = lattice(xi.n)
        d = xi.dense()
        for ell, fam in enumerate(("size", "size2", "size3"), start=1):
            want = 0.7 * sizes * ((sizes + 1.0) ** ell - sizes ** ell)
            got = lemma_rhs(model, fam).values
            assert np.allclose(got, want, rtol=1e-12)
        x = np.abs(stream(16).random(xi.n))
        lin = ind @ x
        xix = ind @ (d @ x)
        for ell, fam in enumerate(("linear", "size-linear", "size2-linear")):
            want = 0.7 * ((sizes + 1.0) ** ell * xix
                          + sizes * ((sizes + 1.0) ** ell - sizes ** ell) * lin)
            got = lemma_rhs(model, fam, x=x).values
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
        assert np.allclose(lemma_rhs(model, "quadratic", G=G).values, want0, rtol=1e-12)
        assert np.allclose(lemma_rhs(model, "size-quadratic", G=G).values, want1, rtol=1e-12)


def test_unknown_family_is_rejected():
    xi = build_mean_field(3)
    model = PercolationModel(xi, 1.0)
    x, G = np.ones(3), np.ones((3, 3))
    for name in ("size4", "size2-quadratic"):
        with pytest.raises(ValueError, match="unknown family"):
            functional_values((name, {"x": x, "G": G}), xi, [1, 3])
        with pytest.raises(ValueError, match="unknown family"):
            expectation_bound(model, name, [0], 1.0, x=x, G=G)
        with pytest.raises(ValueError, match="unknown family"):
            lemma_rhs(model, name, x=x, G=G)


def test_family_suites_keep_their_check_names():
    (gen,) = run_suite("generator", instances=1, seed=0)
    (exp,) = run_suite("expectations", instances=1, seed=0)
    assert [c.name for c in gen.checks] == [
        "generator.linear.l0", "generator.linear.l1", "generator.linear.l2",
        "generator.polynomial.l1", "generator.polynomial.l2", "generator.polynomial.l3",
        "generator.quadratic.l0", "generator.quadratic.l1",
        "generator.annihilates-constants-and-full-set"]
    assert [c.name for c in exp.checks] == [
        f"expectations.{fam}" for fam in ("linear", "quadratic", "size", "size-linear",
                                          "size-quadratic", "size2", "size2-linear",
                                          "size3")]


def test_expectation_bound_rejects_invalid_inputs():
    xi = build_mean_field(3)
    model = PercolationModel(xi, 1.0)
    with pytest.raises(ValueError):
        expectation_bound(model, "nope", [0], 1.0)
    hot = InteractionMatrix.from_dense(np.array([[0.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        expectation_bound(PercolationModel(hot, 1.0), "size", [0], 1.0)
    # the ceilings and the generator bounds refuse the same payloads, in numpy's stead
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
        with pytest.raises(ValueError, match=message):
            expectation_bound(model, family, [0], 1.0, **payload)
        with pytest.raises(ValueError, match=message):
            lemma_rhs(model, family, **payload)
    with pytest.raises(ValueError, match="x must be entrywise nonnegative"):
        expectation_bounds(model, None, [1.0], x=-np.ones(3))
    for times in ([1.0, 0.5], [0.5, math.nan], [-1.0]):
        with pytest.raises(ValueError, match="t must be finite and nonnegative"):
            expectation_bounds(model, None, times)


def test_lemma_rhs_needs_row_sums():
    # with a row sum of 2 the size "bound" kappa |v| falls below A|v| = 2 kappa at {0}
    hot = PercolationModel(InteractionMatrix.from_dense(
        np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])), 1.0)
    lhs = generator_apply(hot, functional_table("size", hot.xi)).values
    assert lhs[1] == 2.0
    for family in FAMILIES:
        with pytest.raises(ValueError, match="row sums <= 1"):
            lemma_rhs(hot, family, x=np.ones(3), G=np.ones((3, 3)))


def test_expectation_bound_rejects_non_finite_t():
    model = PercolationModel(build_mean_field(3), 1.0)
    x, G = np.ones(3), np.ones((3, 3))
    for family in FAMILIES:
        for v in ([0], None):
            for t in (math.nan, math.inf, -1.0):
                with pytest.raises(ValueError, match="t must be finite and nonnegative"):
                    expectation_bound(model, family, v, t, x=x, G=G)


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
    ind = indicators([v.mask], 4)[0]
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
    ind = indicators([v.mask], 4)[0]

    def integrand(s):
        return float(ind @ (d @ scipy.linalg.expm(0.8 * (t - s) * d) @ np.diag(g_mat(s))))

    import scipy.integrate
    tail, _ = scipy.integrate.quad(integrand, 0.0, t, epsabs=1e-12, epsrel=1e-12)
    want = float(ind @ g_mat(t) @ ind) + 0.8 * tail
    got = expectation_bound(model, "quadratic", v, t, G=G, tol=1e-10)
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
        ind, sizes = lattice(n)

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
            got = expectation_bound(model, "quadratic", None, t, G=G)
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12), (n, t)
            mid = np.einsum("mi,mi->m", ind @ (d @ g_t + g_t @ d.T + g_t), ind)
            tail = kappa * scipy.integrate.quad_vec(lambda s: size_quadratic(s, t), 0.0, t,
                                                    epsabs=1e-13, epsrel=1e-12)[0]
            want = sizes * math.exp(kappa * t) * (mid + ind @ tail)
            got = expectation_bound(model, "size-quadratic", None, t, G=G)
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12), (n, t)


def test_block_operator_norm_bounds(monkeypatch):
    """Each matrix-free block operator's mu dominates the infinity norm of the
    dense matrix it applies, which the Taylor remainder certificate needs."""
    import chaoscope.linalg as linalg
    from chaoscope.gaussian import sigma_T_quadrature
    seen = []
    real = linalg.expm_action

    def recording(a, b, tol=1e-12, mu=None):
        if callable(a):
            seen.append((a, np.asarray(b, dtype=float), mu))
        return real(a, b, tol=tol, mu=mu)

    monkeypatch.setattr(linalg, "expm_action", recording)
    g = stream(25)
    for xi in random_matrices(12, seed=26, n_lo=2, n_hi=6):
        model = PercolationModel(xi, float(g.uniform(0.2, 3.0)))
        G = g.random((xi.n, xi.n))
        # the stepped operator at three step lengths
        times = np.sort(g.uniform(0.05, 2.0, 3))
        expectation_bounds(model, [0], times, x=g.random(xi.n), G=G)
        # with G None only the block Y is stepped, at its own mu
        expectation_bounds(model, [0], times, x=g.random(xi.n))
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
    v = SubsetState.of([0, 7, 31], n)
    ind = indicators([v.mask], n)[0]
    times = [0.3, 1.0, 2.5]
    got = expectation_bounds(model, v, times, x=x)
    bare = expectation_bounds(model, v, times)
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
        _, sizes = lattice(n)
        # each ceiling is a linear form in the state; these bound its coefficients
        coef = {"linear": sizes, "quadratic": sizes ** 2 + kappa * sizes}
        for tol in (1e-12, 1e-6):
            stepped = expectation_bounds(model, None, times, x=x, G=G, tol=tol)
            for k, t in enumerate(times):
                single = expectation_bounds(model, None, [t], x=x, G=G, tol=tol)[0]
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
    F = SubsetFunction(stream(28).random(16), 4)
    T = 0.9
    curve = expectation_curve(model, F, T, tol=1e-12)
    for rate in (0.0, 0.7):
        got = curve.integral_all(T, rate)
        for mask in range(16):
            want, _ = scipy.integrate.quad(
                lambda t: math.exp(-rate * t) * curve.eval_all(t)[mask], 0.0, T,
                epsabs=1e-14, epsrel=1e-13)
            assert got[mask] == pytest.approx(want, rel=1e-10), (rate, mask)
    assert np.array_equal(curve.integral_all(0.0), np.zeros(16))
    with pytest.raises(ValueError):
        curve.integral_all(2 * T)


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
            v = SubsetState(mask, 3)
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


def test_mean_field_size_chain_validates_inputs():
    for kappa in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            mean_field_size_expectation(5, kappa, 2, 1.0)
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t must be finite and nonnegative"):
            mean_field_size_expectation(5, 1.0, 2, t)
    assert mean_field_size_expectation(5, 1.0, 2, 0.0) == 4.0


def test_mean_field_size_chain_callable():
    got = mean_field_size_expectation(6, 1.0, 2, 0.8, power=lambda k: k ** 3)
    want = mean_field_size_expectation(6, 1.0, 2, 0.8, power=3)
    assert got == pytest.approx(want, rel=1e-12)


def test_model_validates_kappa():
    xi = build_mean_field(3)
    for kappa in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            PercolationModel(xi, kappa)
