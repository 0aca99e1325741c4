import math
from itertools import combinations

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from chaoscope.gaussian import (InvalidCovariance, avg_entropy,
                                avg_entropy_sandwich, avg_trace_sq,
                                clique_lower, d_T, d_T_envelope,
                                d_T_quadrature, entropy_bounds, exact_entropy,
                                gaussian_kl, h, max_upper, sigma_T,
                                sigma_T_quadrature, subset_entropies)
from chaoscope.matrix import InteractionMatrix, SubsetState, build_sequential
from chaoscope.rng import stream

from conftest import random_matrices


def triangular(n):
    """Every row i >= 1 feeds on index 0 with weight 1: xi^2 = 0."""
    d = np.zeros((n, n))
    d[1:, 0] = 1.0
    return InteractionMatrix.from_dense(d)


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
    xi = InteractionMatrix(3, [], [], [])
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


def test_exact_entropy_is_kl_against_reference():
    for xi in random_matrices(6, seed=44, n_lo=2, n_hi=6):
        T = 0.4
        gm = sigma_T(xi, T)
        masks = np.arange(1, 1 << xi.n)
        exact, _, _ = subset_entropies(gm, masks)
        for mask, got in zip(masks.tolist(), exact):
            v = SubsetState(mask, xi.n)
            mem = v.members
            sub = gm.sigma_T[np.ix_(mem, mem)]
            want = gaussian_kl(T * np.eye(v.size), sub)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
            if mask in (1, (1 << xi.n) - 1):
                assert exact_entropy(gm, v) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_subset_entropy_above_bit_63():
    # n = 70: the mask of {0, 68} is a Python int beyond int64
    xi = random_matrices(1, seed=46, n_lo=70, n_hi=70)[0]
    T = 0.3
    gm = sigma_T(xi, T)
    v = SubsetState.of([0, 68], 70)
    assert v.mask >= 1 << 63
    sub = gm.sigma_T[np.ix_([0, 68], [0, 68])]
    want = gaussian_kl(T * np.eye(2), sub)
    assert exact_entropy(gm, v) == pytest.approx(want, rel=1e-9, abs=1e-12)
    pair = entropy_bounds(gm, v)
    a = sub / T - np.eye(2)
    assert pair.exact == pytest.approx(want, rel=1e-9, abs=1e-12)
    assert pair.lower == pytest.approx((a * a).sum() / 6.0, rel=1e-12)
    assert pair.upper == pytest.approx(math.exp(6 * gm.rho * T) * (a * a).sum(), rel=1e-12)


def test_entropy_bounds_sandwich_small_time():
    for xi in random_matrices(10, seed=45):
        rho = max(sigma_T(xi, 1.0).rho, 1e-9)
        T = min(0.9 * math.log(2.0) / (2.0 * rho), 1.0)
        gm = sigma_T(xi, T)
        for mask in range(1, 1 << xi.n):
            v = SubsetState(mask, xi.n)
            pair = entropy_bounds(gm, v)
            assert pair.lower <= pair.exact + 1e-12
            assert pair.exact <= pair.upper + 1e-12
            assert clique_lower(xi, v, T) <= pair.exact + 1e-12
            assert pair.exact <= max_upper(gm, v) + 1e-12


def test_max_upper_requires_row_sums():
    hot = InteractionMatrix.from_dense(np.array([[0.0, 1.5], [0.0, 0.0]]))
    gm = sigma_T(hot, 0.2)
    with pytest.raises(ValueError):
        max_upper(gm, [0, 1])


def test_exact_entropy_rejects_empty():
    gm = sigma_T(build_sequential(3), 0.3)
    with pytest.raises(ValueError):
        exact_entropy(gm, [])


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


def test_centered_submatrix_consistency():
    xi = random_matrices(1, seed=52, n_lo=5, n_hi=5)[0]
    gm = sigma_T(xi, 0.4)
    v = SubsetState.of([1, 3], 5)
    mem = v.members
    want = gm.sigma_T[np.ix_(mem, mem)] / 0.4 - np.eye(2)
    assert np.allclose(gm.centered(v), want, rtol=0, atol=1e-15)


def test_eigenvalue_window():
    for xi in random_matrices(8, seed=53):
        T = 0.3
        gm = sigma_T(xi, T)
        lam = np.linalg.eigvalsh(gm.centered())
        lo = math.exp(-2 * gm.rho * T) - 1.0
        hi = math.exp(2 * gm.rho * T) - 1.0
        assert lam.min() >= lo - 1e-10
        assert lam.max() <= hi + 1e-10
