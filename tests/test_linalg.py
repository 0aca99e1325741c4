import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from chaoscope.linalg import expm_action, op_norm, poisson_truncation, poisson_weights
from chaoscope.rng import stream
from chaoscope.verify import random_substochastic


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
    assert np.allclose(expm_action(a, np.eye(6)), scipy.linalg.expm(a), rtol=1e-9, atol=1e-11)


def test_expm_action_operator_form():
    # the Sylvester operator X -> a X + X a^T, applied matrix-free, is the
    # Kronecker sum a (+) a acting on vec(X)
    g = stream(6)
    a = g.standard_normal((4, 4))
    x0 = g.standard_normal((4, 4))
    kron = np.kron(a, np.eye(4)) + np.kron(np.eye(4), a)
    mu = np.linalg.norm(kron, np.inf)
    got = expm_action(lambda x: a @ x + x @ a.T, x0, mu=mu)
    want = (scipy.linalg.expm(kron) @ x0.ravel()).reshape(4, 4)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12)
    with pytest.raises(ValueError, match="norm bound"):
        expm_action(lambda x: a @ x, x0)


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
    # a nonnegative matrix takes no iteration; a signed one does
    assert op_norm(a, max_iter=2) == op_norm(a)
    signed = stream(5).standard_normal((6, 6))
    assert op_norm(signed) == pytest.approx(scipy.linalg.svdvals(signed)[0], rel=1e-8)
    with pytest.raises(RuntimeError, match="did not converge"):
        op_norm(signed, max_iter=2)


def test_op_norm_iterates_when_the_eigenvector_underflows():
    # a^T a rounds to diag(1.25, 0): eigh's eigenvector (1, 0) certifies
    # nothing at its zero entry, and the norm cap sqrt(1.5) is loose, so the
    # bound comes from the iteration
    a = np.array([[1.0, 0.0], [0.5, 0.0], [1e-170, 1e-170]])
    assert 0.0 in np.linalg.eigh(a.T @ a)[1][:, -1]
    want = scipy.linalg.svdvals(a)[0]
    assert want <= op_norm(a) <= want * (1 + 1e-14)


def test_op_norm_bounds_nonnegative_matrices_from_above():
    g = stream(7)
    for _ in range(500):
        a = random_substochastic(int(g.integers(2, 11)), g).dense()
        want = scipy.linalg.svdvals(a)[0]
        assert want <= op_norm(a) <= want * (1 + 1e-11)
    # two blocks of nearly equal norm: the Rayleigh quotient settles while
    # the iterate still mixes both, so an estimate stops below 0.5
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 0.5
    a[2, 3] = a[3, 2] = 0.5 * (1 - 1e-7)
    assert 0.5 <= op_norm(a) <= 0.5 * (1 + 1e-14)


def _two_blocks(eps):
    """Zero-diagonal 4x4: [[0, .5], [.3, 0]] beside a symmetric 0.5 - eps pair."""
    a = np.zeros((4, 4))
    a[0, 1], a[1, 0] = 0.5, 0.3
    a[2, 3] = a[3, 2] = 0.5 - eps
    return a


@pytest.mark.parametrize("eps", [1e-3, 1e-4, 3e-5, 1e-5, 1e-6, 1e-7, 1e-8])
def test_op_norm_certifies_blocks_of_nearly_equal_norm(eps):
    # power iteration on a^T a converged at rate (sigma_2 / sigma_1)^2 here
    # and gave up at eps = 1e-5 and 3e-5
    a = _two_blocks(eps)
    want = scipy.linalg.svdvals(a)[0]
    assert want <= op_norm(a) <= want * (1 + 1e-12)
    # the same blocks once their columns share rows
    mixed = a + 0.01 * stream(6).random((4, 4))
    want = scipy.linalg.svdvals(mixed)[0]
    assert want <= op_norm(mixed) <= want * (1 + 1e-12)


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
    for tol in (0.0, -1e-10, math.nan):  # a NaN tol once searched forever
        with pytest.raises(ValueError, match="tol must be positive"):
            poisson_truncation(3.0, tol)


def test_poisson_truncation_names_a_mean_it_cannot_truncate():
    # above about 2^54 the first K + 2 past lam rounds to lam, the envelope's
    # 1 - lam/(K+2) to 0, and math.log raised a bare "math domain error"
    for lam in (2e16, 1e300):
        with pytest.raises(ValueError, match="Poisson mean .* is too large"):
            poisson_truncation(lam, 1e-10)
    for lam in (math.inf, math.nan):
        with pytest.raises(ValueError, match="Poisson mean must be finite"):
            poisson_truncation(lam, 1e-10)
    assert poisson_truncation(1e6, 1e-10) > 1e6


def _reference_truncation(lam, tol):
    """poisson_truncation before large means were handled: the direct log pmf."""
    if lam <= 0.0:
        return 0
    k = max(int(lam), 1)
    step = max(1, int(math.sqrt(lam) / 4))
    while True:
        if k + 2 > lam:
            log_p = (k + 1) * math.log(lam) - lam - math.lgamma(k + 2.0)
            if log_p - math.log(1.0 - lam / (k + 2)) <= math.log(tol):
                return k
        k += step


def test_poisson_truncation_keeps_every_order_up_to_a_million():
    lams = np.concatenate([np.geomspace(1e-6, 1e6, 600), np.arange(1.0, 200.0),
                           [4.74, 4.74 * 0.5, 4.74 * 2.0, 1e6]])
    for lam in lams.tolist():
        for tol in (1e-8, 1e-10, 1e-12, 1e-20):
            assert poisson_truncation(lam, tol) == _reference_truncation(lam, tol), (lam, tol)


def test_poisson_truncation_certifies_tail_at_huge_means():
    # the direct log pmf cancels terms near 4e17 at lam = 1e16, and once
    # returned K = lam, a tail mass of 0.5
    for lam in (1e12, 1e15, 1e16):
        for tol in (1e-10, 1e-20):
            k = poisson_truncation(lam, tol)
            assert scipy.stats.poisson.sf(k, lam) <= tol
            assert k <= lam + 12.0 * math.sqrt(lam)  # and not far past the bulk
