import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.stats

from chaoscope.linalg import (expm, expm_action, integrate_doubling, op_norm,
                              poisson_truncation, poisson_weights,
                              simpson_adaptive)
from chaoscope.rng import stream


def test_expm_action_matches_scipy():
    g = stream(1)
    for _ in range(20):
        n = int(g.integers(1, 9))
        a = g.standard_normal((n, n))
        b = g.standard_normal(n)
        want = scipy.linalg.expm(a) @ b
        got = expm_action(a, b)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_expm_action_matrix_argument():
    g = stream(2)
    a = g.standard_normal((5, 5))
    b = g.standard_normal((5, 3))
    want = scipy.linalg.expm(a) @ b
    assert np.allclose(expm_action(a, b), want, rtol=1e-10, atol=1e-12)


def test_expm_matches_scipy():
    g = stream(3)
    a = 2.0 * g.standard_normal((6, 6))
    assert np.allclose(expm(a), scipy.linalg.expm(a), rtol=1e-9, atol=1e-11)


def test_expm_action_zero_matrix():
    b = np.arange(4.0)
    assert np.array_equal(expm_action(np.zeros((4, 4)), b), b)


def test_op_norm_matches_svd():
    g = stream(4)
    for _ in range(20):
        n = int(g.integers(1, 10))
        a = g.standard_normal((n, n))
        want = scipy.linalg.svdvals(a)[0]
        assert abs(op_norm(a) - want) <= 1e-8 * max(want, 1.0)
    assert op_norm(np.zeros((3, 3))) == 0.0


def test_op_norm_raises_without_convergence():
    a = stream(5).random((6, 6))
    assert op_norm(a) == pytest.approx(scipy.linalg.svdvals(a)[0], rel=1e-8)
    with pytest.raises(RuntimeError, match="did not converge"):
        op_norm(a, max_iter=2)


def test_simpson_adaptive_scalar():
    got = simpson_adaptive(math.exp, 0.0, 2.0, rel_tol=1e-10)
    want = math.exp(2.0) - 1.0
    assert abs(got - want) <= 1e-9 * want


def test_simpson_adaptive_vector():
    def f(t):
        return np.array([math.sin(t), t ** 4])

    got = simpson_adaptive(f, 0.0, 1.0, rel_tol=1e-10)
    want = np.array([1.0 - math.cos(1.0), 0.2])
    assert np.allclose(got, want, rtol=1e-8)


def test_simpson_adaptive_raises_at_max_depth():
    step = lambda x: 1.0 if x > 0.3 else 0.0
    with pytest.raises(RuntimeError):
        simpson_adaptive(step, 0.0, 1.0, rel_tol=1e-6)


def test_simpson_empty_interval():
    assert simpson_adaptive(math.exp, 1.0, 1.0) == 0.0


def test_integrate_doubling_matches_quad():
    def f(s):
        return np.array([[math.cos(3 * s), s], [s * s, math.exp(-s)]])

    got = integrate_doubling(f, 0.0, 1.5, tol=1e-10)
    for i in range(2):
        for j in range(2):
            want, _ = scipy.integrate.quad(lambda s: f(s)[i, j], 0.0, 1.5)
            assert abs(got[i, j] - want) <= 1e-8


def test_poisson_truncation_certifies_tail():
    for lam in (0.1, 1.0, 7.5, 40.0):
        for tol in (1e-8, 1e-12):
            k = poisson_truncation(lam, tol)
            tail = scipy.stats.poisson.sf(k, lam)
            assert tail <= tol
    assert poisson_truncation(0.0, 1e-12) == 0


def test_poisson_weights_match_scipy():
    lam = 5.3
    k = poisson_truncation(lam, 1e-12)
    w = poisson_weights(lam, k)
    want = scipy.stats.poisson.pmf(np.arange(k + 1), lam)
    assert np.allclose(w, want, rtol=1e-12, atol=1e-300)
    assert w.sum() >= 1.0 - 1e-11


def test_poisson_truncation_rejects_bad_tol():
    with pytest.raises(ValueError):
        poisson_truncation(3.0, 0.0)
