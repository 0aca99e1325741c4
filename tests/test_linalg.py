import math
import sys
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from chaoscope import linalg, verify
from chaoscope.linalg import expm_action, op_norm, poisson_truncation, poisson_weights
from chaoscope.matrix import random_substochastic
from chaoscope.rng import stream


def matrix_action(a, b):
    """expm_action of a dense matrix: its product as the operator, ||a||_inf as mu."""
    return expm_action(a.__matmul__, b, np.linalg.norm(a, np.inf))


def test_expm_action_matches_scipy():
    g = stream(1)
    for _ in range(20):
        n = int(g.integers(1, 9))
        a = g.standard_normal((n, n))
        b = g.standard_normal(n)
        want = scipy.linalg.expm(a) @ b
        got = matrix_action(a, b)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)
    # a block of columns
    g = stream(2)
    a = g.standard_normal((5, 5))
    b = g.standard_normal((5, 3))
    want = scipy.linalg.expm(a) @ b
    assert np.allclose(matrix_action(a, b), want, rtol=1e-10, atol=1e-12)


def test_expm_action_meets_scipy_on_signed_matrices_up_to_norm_10():
    # stages of norm up to 4 sum terms that grow before they fall; against
    # scipy's expm the error stays near 1e-12 of the largest entry
    g = stream(11)
    worst = 0.0
    for _ in range(200):
        n = int(g.integers(1, 9))
        a = g.standard_normal((n, n))
        a *= float(g.uniform(0.01, 10.0)) / np.linalg.norm(a, np.inf)
        b = g.standard_normal((n, 3))
        want = scipy.linalg.expm(a) @ b
        worst = max(worst, float(np.abs(matrix_action(a, b) - want).max() / np.abs(want).max()))
    assert worst <= 1e-11


def test_expm_action_stages_cut_the_battery_applications(monkeypatch):
    # at seed 0 the stages of norm <= 1, one instance at a time, applied the
    # ceiling operator 3,804 times, sigma_T_quadrature's 1,351 and
    # d_T_quadrature's 1,025, and its ceiling step at mu = 4.6 took 45
    # applications in five stages; with stages of norm <= 4 and one batch per
    # size, one application serving every member of a batch, they take 451,
    # 104 and 89, and the step at mu = 4.6 is among its batch's 24
    counts, steps = Counter(), []
    real = linalg.expm_action

    def counted(apply, b, mu, tol=1e-12):
        caller = sys._getframe(1).f_code.co_name
        before = counts[caller]

        def one(x):
            counts[caller] += 1
            return apply(x)

        out = real(one, b, mu, tol)
        steps.append((float(np.max(mu)), caller, counts[caller] - before))
        return out

    monkeypatch.setattr(linalg, "expm_action", counted)
    verify.expectations_suite(seed=0)
    verify.gaussian_suite(seed=0)
    assert counts["expectation_bounds_batch"] <= 460
    assert counts["sigma_T_quadrature_batch"] <= 110
    assert counts["d_T_quadrature_batch"] <= 95
    mu, caller, calls = max(steps)
    assert caller == "expectation_bounds_batch" and round(mu, 1) == 4.6 and calls <= 25


def test_expm_matches_scipy():
    g = stream(3)
    a = 2.0 * g.standard_normal((6, 6))
    assert np.allclose(matrix_action(a, np.eye(6)), scipy.linalg.expm(a), rtol=1e-9, atol=1e-11)


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
    for bad in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="norm bound"):
            expm_action(lambda x: a @ x, x0, mu=bad)


def loop_expm_action(apply, b, mu, tol=1e-12):
    """The Taylor loop that reduces max|acc| at every term, as a reference."""
    b = np.asarray(b, dtype=float)
    if mu == 0.0 or not b.any():
        return b.copy()
    stages = max(1, math.ceil(mu / 4.0))
    theta, step_tol = mu / stages, tol / stages
    out = b.copy()
    for _ in range(stages):
        acc = out.copy()
        term = out
        for k in range(1, 200):
            term = apply(term) / (stages * k)
            acc += term
            if k + 2 <= theta:
                continue
            rem = np.abs(term).max() * (theta / (k + 1)) / (1.0 - theta / (k + 2))
            if rem <= step_tol * max(np.abs(acc).max(), 1e-300):
                break
        out = acc
    return out


def test_expm_action_keeps_the_bits_of_the_plain_loop():
    # dividing in place and skipping max|acc| while the running bound fails
    # the stop test change no bit, for signed operators too
    g = stream(7)
    for trial in range(40):
        n = int(g.integers(1, 9))
        a = g.standard_normal((n, n)) * float(g.choice([1e-3, 0.3, 1.0, 4.0]))
        if trial % 2:
            a = np.abs(a)
        b = g.standard_normal((n, 3)) if trial % 4 > 1 else g.random(n)
        mu = float(np.linalg.norm(a, np.inf))
        for tol in (1e-12, 1e-6):
            want = loop_expm_action(a.__matmul__, b, mu, tol)
            assert np.array_equal(expm_action(a.__matmul__, b, mu, tol), want)
    # mu < 1 with a start the first term already settles: one term is taken
    a = np.array([[0.0, 1e-20], [0.0, 0.0]])
    b = np.array([1.0, 1.0])
    calls = []

    def counted(x):
        calls.append(1)
        return a @ x

    got = expm_action(counted, b, 1e-20)
    assert len(calls) == 1 and np.array_equal(got, loop_expm_action(a.__matmul__, b, 1e-20))


def test_expm_action_zero_matrix():
    b = np.arange(4.0)
    assert np.array_equal(matrix_action(np.zeros((4, 4)), b), b)


def test_op_norm_matches_svd():
    # a signed matrix is bounded through |a|
    g = stream(4)
    for _ in range(20):
        n = int(g.integers(1, 10))
        a = g.standard_normal((n, n))
        assert scipy.linalg.svdvals(a)[0] <= op_norm(a) == op_norm(np.abs(a))
    assert op_norm(np.zeros((3, 3))) == 0.0


def test_op_norm_iterates_when_the_eigenvector_underflows():
    # a^T a rounds to diag(1.25, 0): eigh's eigenvector (1, 0) certifies
    # nothing at its zero entry, and the norm cap sqrt(1.5) is loose, so the
    # second column is bounded on its own
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


def test_op_norm_certifies_signed_and_extreme_matrices():
    # the signed blocks once took an uncertified Rayleigh quotient, 0.49999999689
    # at eps = 1e-3, or gave up; a^T a underflowed at 1e-200 and overflowed at
    # 1e308, and the norm came back as 0
    cases = []
    for eps in (1e-3, 1e-4, 3e-5, 1e-5, 1e-6, 1e-7, 1e-8):
        a = _two_blocks(eps)
        a[1, 0], a[3, 2] = -a[1, 0], -a[3, 2]
        cases.append(a)
    apart, one_row = np.zeros((3, 3)), np.zeros((3, 3))
    apart[0, 1] = apart[1, 2] = 1e308
    one_row[0, 1] = one_row[0, 2] = 1e308
    cases += [np.array([[0.0, 1e-200], [1e-200, 0.0]]), apart, one_row]
    for a in cases:
        want = scipy.linalg.svdvals(a)[0]
        assert want <= op_norm(a) <= want * (1 + 1e-12)


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
