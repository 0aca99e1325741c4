import math
from itertools import combinations

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from chaoscope import rng
from chaoscope.gaussian import (InvalidCovariance, _check_covariance, avg_entropy,
                                avg_entropy_sandwich, avg_trace_sq,
                                clique_lower, d_T, d_T_envelope,
                                d_T_quadrature, gaussian_kl, h, max_upper,
                                sigma_T, sigma_T_quadrature, subset_entropies)
from chaoscope.linalg import expm_action
from chaoscope.matrix import (InteractionMatrix, build_mean_field, build_sequential,
                              mask_members, subset_mask)
from chaoscope.percolation import PercolationModel, expectation_bounds
from chaoscope.rng import stream

from conftest import random_matrices


def triangular(n):
    """Every row i >= 1 feeds on index 0 with weight 1: xi^2 = 0."""
    d = np.zeros((n, n))
    d[1:, 0] = 1.0
    return InteractionMatrix(d)


def test_sigma_T_matches_scipy_quadrature():
    for xi in random_matrices(8, seed=41):
        d = xi.dense()
        T = 0.6
        gm = sigma_T(xi, T)

        def f(s):
            e = scipy.linalg.expm(s * d)
            return e @ e.T

        want = np.zeros_like(d)
        for i in range(xi.n):
            for j in range(xi.n):
                val, _ = scipy.integrate.quad(lambda s: f(s)[i, j], 0.0, T,
                                              epsabs=1e-12, epsrel=1e-12)
                want[i, j] = val
        assert np.allclose(gm.sigma_T, want, rtol=1e-9, atol=1e-11)
        assert np.allclose(gm.sigma_T, sigma_T_quadrature(xi, T), atol=1e-8)


def test_sigma_T_zero_matrix_is_T_identity():
    xi = InteractionMatrix(np.zeros((3, 3)))
    gm = sigma_T(xi, 2.5)
    assert np.allclose(gm.sigma_T, 2.5 * np.eye(3))
    assert gm.rho == 0.0 and gm.small_time()


def test_horizon_must_be_positive_and_finite():
    xi = build_sequential(3)
    for T in (0.0, math.inf, math.nan):
        for fn in (sigma_T, d_T):
            with pytest.raises(ValueError):
                fn(xi, T)


def test_h_properties():
    x = np.array([-0.5, -0.1, 0.0, 0.3, 2.0])
    vals = h(x)
    assert vals[2] == 0.0
    assert (vals >= 0.0).all()
    with pytest.raises(InvalidCovariance):
        h(np.array([-1.0]))


def test_gaussian_kl_matches_quadratic_formula():
    g = stream(43)
    for _ in range(10):
        k = int(g.integers(1, 6))
        a = g.standard_normal((k, k))
        cov0 = a @ a.T + 0.5 * np.eye(k)
        b = g.standard_normal((k, k))
        cov1 = b @ b.T + 0.5 * np.eye(k)
        want = 0.5 * (np.trace(np.linalg.solve(cov0, cov1)) - k
                      + np.linalg.slogdet(cov0)[1] - np.linalg.slogdet(cov1)[1])
        assert gaussian_kl(cov0, cov1) == pytest.approx(float(want), rel=1e-10, abs=1e-12)


def test_gaussian_kl_rejects_non_pd():
    with pytest.raises(InvalidCovariance):
        gaussian_kl(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))
    # the symmetry gate gives np.allclose's verdict (rtol 1e-10, atol 1e-12),
    # also on infinite and NaN entries: a non-finite entry passes only beside
    # an equal mirror, and inf - inf warns of nothing
    inf, nan = math.inf, math.nan
    for a, b in ((1.0, 1.0 + 1e-11), (1.0, 1.0 + 1e-9), (0.0, 1e-12), (0.0, 2e-12),
                 (inf, inf), (-inf, -inf), (inf, -inf), (inf, 1.0), (1.0, inf),
                 (nan, nan), (nan, 1.0), (1e308, -1e308)):
        c = np.array([[1.0, a], [b, 1.0]])
        with np.errstate(over="ignore"):
            want = np.allclose(c, c.T, rtol=1e-10, atol=1e-12)
            try:
                _check_covariance(c, "c")
                got = True
            except InvalidCovariance:
                got = False
        assert got == want, (a, b)


def test_exact_entropy_is_kl_against_reference():
    for xi in random_matrices(6, seed=44, n_lo=2, n_hi=6):
        T = 0.4
        gm = sigma_T(xi, T)
        masks = np.arange(1, 1 << xi.n)
        exact, _, _ = subset_entropies(gm, masks)
        for mask, got in zip(masks.tolist(), exact):
            mem = mask_members(mask)
            sub = gm.sigma_T[np.ix_(mem, mem)]
            want = gaussian_kl(T * np.eye(len(mem)), sub)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
            if mask in (1, (1 << xi.n) - 1):
                alone = subset_entropies(gm, [mask])[0][0]
                assert alone == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_subset_entropy_above_bit_63():
    # n = 70: the mask of {0, 68} is a Python int beyond int64
    xi = random_matrices(1, seed=46, n_lo=70, n_hi=70)[0]
    T = 0.3
    gm = sigma_T(xi, T)
    v = subset_mask([0, 68], 70)
    assert v >= 1 << 63
    sub = gm.sigma_T[np.ix_([0, 68], [0, 68])]
    want = gaussian_kl(T * np.eye(2), sub)
    (exact,), (lower,), (upper,) = subset_entropies(gm, [v])
    a = sub / T - np.eye(2)
    assert exact == pytest.approx(want, rel=1e-9, abs=1e-12)
    assert lower == pytest.approx((a * a).sum() / 6.0, rel=1e-12)
    assert upper == pytest.approx(math.exp(6 * gm.rho * T) * (a * a).sum(), rel=1e-12)


def test_subset_entropies_mix_masks_across_bit_63():
    # at n = 64, 1 fits int64 and 1 << 63 does not: one call takes both
    xi = random_matrices(1, seed=47, n_lo=64, n_hi=64)[0]
    gm = sigma_T(xi, 0.1)
    masks = [1, 1 << 63, (1 << 63) | 1]
    together = subset_entropies(gm, masks)
    for i, mask in enumerate(masks):
        alone = subset_entropies(gm, [mask])
        assert [float(x[i]) for x in together] == [float(x[0]) for x in alone]


def test_entropy_bounds_sandwich_small_time():
    for xi in random_matrices(10, seed=45):
        rho = max(sigma_T(xi, 1.0).rho, 1e-9)
        T = min(0.9 * math.log(2.0) / (2.0 * rho), 1.0)
        gm = sigma_T(xi, T)
        masks = np.arange(1, 1 << xi.n)
        exact, lower, upper = subset_entropies(gm, masks)
        assert (lower <= exact + 1e-12).all()
        assert (exact <= upper + 1e-12).all()
        assert (clique_lower(xi, masks, T) <= exact + 1e-12).all()
        assert (exact <= max_upper(gm, masks) + 1e-12).all()


def test_max_upper_requires_row_sums():
    hot = InteractionMatrix(np.array([[0.0, 1.5], [0.0, 0.0]]))
    gm = sigma_T(hot, 0.2)
    with pytest.raises(ValueError):
        max_upper(gm, [0b11])


def test_exact_entropy_rejects_empty():
    gm = sigma_T(build_sequential(3), 0.3)
    with pytest.raises(ValueError, match="nonempty"):
        subset_entropies(gm, [1, 0])


def test_subset_quantities_agree_across_bit_63():
    # mean field 64 is exchangeable, so {63} and {0, 63} look like {1} and
    # {0, 1}; above bit 62 the masks are Python ints
    xi = build_mean_field(64)
    gm = sigma_T(xi, 0.1)
    model = PercolationModel(xi, 1.0)
    high, low = [1 << 63, 1 | 1 << 63], [2, 3]
    for f in (lambda m: clique_lower(xi, m, 0.1), lambda m: max_upper(gm, m),
              lambda m: expectation_bounds(model, m, [0.1, 0.5], x=np.ones(64))):
        assert np.allclose(f(high), f(low), rtol=1e-14, atol=0.0)
        assert f(low).any()


def test_d_T_routes_agree_and_triangular_vanishes():
    for xi in random_matrices(6, seed=46, n_lo=2, n_hi=6):
        T = 0.5
        assert d_T(xi, T) == pytest.approx(d_T_quadrature(xi, T), abs=1e-8)
        lo, hi = d_T_envelope(xi, T)
        val = d_T(xi, T)
        assert lo - 1e-12 <= val <= hi + 1e-12
    tri = triangular(7)
    assert d_T(tri, 0.8) == 0.0
    assert d_T_quadrature(tri, 0.8) == pytest.approx(0.0, abs=1e-9)


def test_series_sum_past_where_the_powers_of_rho_overflow():
    # (2 rho)^m and rho^m overflowed on their own here, while each series
    # term and each sum stay finite
    nilpotent = InteractionMatrix(np.array([[0, 100.0, 0], [0, 0, 0], [0, 0, 0]]))
    got = sigma_T(nilpotent, 1.0).sigma_T
    want = sigma_T_quadrature(nilpotent, 1.0)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    chain = InteractionMatrix(np.array([[0, 30.0, 0], [0, 0, 30.0], [0, 0, 0]]))
    assert d_T(chain, 10.0) == 0.0


@pytest.mark.parametrize("f, d, T, reach", [
    (sigma_T, [[0, 400.0, 0], [0, 0, 0], [0, 0, 0]], 1.0, "2*rho*T = 800"),
    (d_T, [[0, 100.0, 0], [0, 0, 100.0], [0, 0, 0]], 10.0, "rho*T = 1000"),
])
def test_series_envelope_overflow_is_named(f, d, T, reach):
    # once the tail envelope is inf, the tail test can never stop the sum
    with pytest.raises(ValueError) as exc:
        f(InteractionMatrix(np.array(d)), T)
    msg = str(exc.value)
    assert f"{f.__name__} series overflows double precision at {reach} " in msg
    assert "envelope" in msg and f"gaussian.{f.__name__}_quadrature" in msg


ROT = InteractionMatrix(np.array([[0, 3.0], [-2.7, 0]]))  # a near-rotation


@pytest.mark.parametrize("f, T, reach", [(sigma_T, 7.0, "2*rho*T = 42"),
                                         (sigma_T, 7.5, "2*rho*T = 45"),
                                         (d_T, 8.0, "rho*T = 24")])
def test_series_rounding_envelope_is_named(f, T, reach):
    # the signed terms cancel to a sum of order 1 from terms near e^{rho T}:
    # sigma_T at T = 7 was 5.7e-3 off in Sigma_T / T, against a tail of 5.7e-11
    with pytest.raises(ValueError) as exc:
        f(ROT, T)
    msg = str(exc.value)
    assert f"{f.__name__} series cancels below its rounding at {reach} " in msg
    assert f"gaussian.{f.__name__}_quadrature" in msg


def test_series_tail_counts_rounding():
    for T in (0.5, 2.0):
        gm = sigma_T(ROT, T)
        err = np.abs(gm.sigma_T - sigma_T_quadrature(ROT, T)).max() / T
        assert err <= gm.tail_bound
    # r = 0 takes no term, and its tail is the rounding of acc_0 = I alone
    assert sigma_T(InteractionMatrix(np.zeros((3, 3))), 1.0).tail_bound == 5 * 2.0 ** -53


def test_closed_form_factor_overflow_is_named():
    # e^{c rho T} past the largest double was a bare "math range error"; the
    # nilpotent Sigma_T is finite, and max_upper needs row sums <= 1
    nil = InteractionMatrix(np.array([[0, 300.0, 0], [0, 0, 0], [0, 0, 0]]))
    gm = sigma_T(nil, 1.0)
    chain = sigma_T(build_sequential(3), 100.0)
    cases = [(lambda: subset_entropies(gm, [1]), "subset_entropies", "6*rho*T", 1800.0),
             (lambda: avg_entropy_sandwich(gm, 2), "avg_entropy_sandwich", "6*rho*T", 1800.0),
             (lambda: avg_entropy_sandwich(gm, 2, explicit=True), "avg_entropy_sandwich",
              "4*rho*T", 1200.0),
             (lambda: max_upper(chain, [1]), "max_upper", "10*rho*T", 1000.0 * chain.rho),
             (lambda: d_T_envelope(nil, 2.0), "d_T_envelope", "2*rho*T", 1200.0)]
    for route, name, label, reach in cases:
        with pytest.raises(ValueError) as exc:
            route()
        assert str(exc.value) == (f"{name}'s factor e^({label}) overflows double precision "
                                  f"at {label} = {reach:.6g}")


def test_triangular_row_square_sums():
    for n in (4, 9):
        tri = triangular(n)
        d = tri.dense()
        fwd = float((((d ** 2).sum(axis=1)) ** 2).sum())
        bwd = float((((d.T ** 2).sum(axis=1)) ** 2).sum())
        assert fwd == float(n - 1)
        assert bwd == float((n - 1) ** 2)


def test_avg_trace_sq_brute_force():
    g = stream(47)
    for n in (2, 5, 9):
        a = g.standard_normal((n, n))
        a = (a + a.T) / 2
        for k in range(1, n + 1):
            brute = np.mean([float((a[np.ix_(c, c)] ** 2).sum())
                             for c in combinations(range(n), k)])
            assert avg_trace_sq(a, k) == pytest.approx(brute, rel=1e-12, abs=1e-13)


def test_batched_avg_quantities_equal_the_per_k_calls():
    # an array of sizes gives bitwise the values of one call per size, from
    # one symmetry check and one d_T series; a scalar size gives floats
    for xi in random_matrices(6, seed=54, n_lo=2, n_hi=9) + [InteractionMatrix([[0.0]])]:
        gm = sigma_T(xi, 0.3)
        a = gm.centered()
        ks = np.arange(1, xi.n + 1)
        got = avg_trace_sq(a, ks)
        assert got.shape == ks.shape
        assert got.tolist() == [avg_trace_sq(a, int(k)) for k in ks]
        for explicit in (False, True):
            lo, hi = avg_entropy_sandwich(gm, ks, explicit)
            pairs = [avg_entropy_sandwich(gm, int(k), explicit) for k in ks]
            assert (lo.tolist(), hi.tolist()) == tuple(map(list, zip(*pairs)))
            assert all(type(x) is float for pair in pairs for x in pair)
        assert type(avg_trace_sq(a, 1)) is float
    gm = sigma_T(random_matrices(1, seed=55, n_lo=4, n_hi=4)[0], 0.3)
    for bad in (0, 5, [1, 5], np.array([0, 2])):
        with pytest.raises(ValueError, match="need 1 <= k <= n"):
            avg_trace_sq(gm.centered(), bad)
        for explicit in (False, True):
            with pytest.raises(ValueError, match="need 1 <= k <= n"):
                avg_entropy_sandwich(gm, bad, explicit)


def test_sigma_T_quadrature_operator_keeps_its_bits():
    # the operator writes one array; the stacked form it replaced gives the same bits
    for xi in random_matrices(4, seed=56, n_lo=2, n_hi=7):
        d, T, n = xi.dense(), 0.4, xi.n

        def stacked(z):
            y, x = z
            return np.stack((T * (d @ y + y @ d.T + x), np.zeros_like(x)))

        start = np.stack((np.zeros((n, n)), np.eye(n)))
        mu = T * (2.0 * float(np.linalg.norm(d, np.inf)) + 1.0)
        want = expm_action(stacked, start, mu, tol=1e-12)[0]
        assert np.array_equal(sigma_T_quadrature(xi, T), want)


def test_avg_entropy_enumerate_vs_sample():
    xi = random_matrices(1, seed=48, n_lo=6, n_hi=6)[0]
    gm = sigma_T(xi, 0.3)
    exact = avg_entropy(gm, 2, mode="enumerate")
    sampled = avg_entropy(gm, 2, mode="sample", reps=4000, seed=5)
    assert exact.stderr is None and sampled.stderr is not None
    assert abs(sampled.value - exact.value) <= 4.0 * sampled.stderr + 1e-12


def test_avg_entropy_sample_deterministic():
    xi = random_matrices(1, seed=49, n_lo=5, n_hi=5)[0]
    gm = sigma_T(xi, 0.25)
    a = avg_entropy(gm, 3, mode="sample", reps=500, seed=7)
    b = avg_entropy(gm, 3, mode="sample", reps=500, seed=7)
    assert a.value == b.value and a.stderr == b.stderr


def test_avg_entropy_sample_masks_do_not_depend_on_chunk(monkeypatch):
    # the draws read one stream in order, so smaller chunks give the same bits
    gm = sigma_T(random_matrices(1, seed=51, n_lo=7, n_hi=7)[0], 0.25)
    want = avg_entropy(gm, 3, mode="sample", reps=50, seed=3)
    monkeypatch.setattr(rng, "CHUNK", 7)
    assert avg_entropy(gm, 3, mode="sample", reps=50, seed=3) == want
    # past bit 63 the masks are Python ints; on mean field every pair has one entropy
    wide = sigma_T(build_mean_field(70), 0.2)
    got = avg_entropy(wide, 2, mode="sample", reps=20, seed=0)
    assert got.value == pytest.approx(subset_entropies(wide, [0b11])[0][0], rel=1e-9)


def test_avg_entropy_needs_no_upper_factor():
    # e^{6 rho T} overflows here, while every exact entropy is finite
    nil = InteractionMatrix(np.array([[0, 300.0, 0], [0, 0, 0], [0, 0, 0]]))
    gm = sigma_T(nil, 1.0)
    want = np.mean([gaussian_kl(np.eye(2), gm.sigma_T[np.ix_(pair, pair)])
                    for pair in combinations(range(3), 2)])
    got = avg_entropy(gm, 2).value
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-9)


def test_avg_entropy_sandwich_brackets_enumeration():
    for xi in random_matrices(6, seed=50, n_lo=3, n_hi=7):
        rho = max(sigma_T(xi, 1.0).rho, 1e-9)
        T = min(0.8 * math.log(2.0) / (2.0 * rho), 1.0)
        gm = sigma_T(xi, T)
        for k in range(1, min(xi.n, 4) + 1):
            val = avg_entropy(gm, k).value
            lo, hi = avg_entropy_sandwich(gm, k)
            lo_e, hi_e = avg_entropy_sandwich(gm, k, explicit=True)
            assert lo - 1e-12 <= val <= hi + 1e-12
            assert lo_e - 1e-12 <= val <= hi_e + 1e-12


def test_eigenvalue_window():
    for xi in random_matrices(8, seed=53):
        T = 0.3
        gm = sigma_T(xi, T)
        lam = np.linalg.eigvalsh(gm.centered())
        lo = math.exp(-2 * gm.rho * T) - 1.0
        hi = math.exp(2 * gm.rho * T) - 1.0
        assert lam.min() >= lo - 1e-10
        assert lam.max() <= hi + 1e-10
