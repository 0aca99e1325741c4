"""Each batch kernel against its batch of one, bit for bit, and the verify
battery's use of them: one call per instance size, and report bytes pinned.

A batch steps all of its members together, but each member keeps its own
series order, Taylor stages, truncation order and stop tests, so every
member must get exactly the bits it gets alone, and the first member that is
refused raises the error it raises alone.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest

from chaoscope import gaussian as gauss
from chaoscope import linalg
from chaoscope import percolation as perc
from chaoscope import verify
from chaoscope.cli import console_main
from chaoscope.matrix import InteractionMatrix, random_substochastic
from chaoscope.rng import stream


def _group(n, count, seed):
    """count random substochastic n x n matrices, then a zero one."""
    g = stream(seed)
    zero = InteractionMatrix(np.zeros((n, n)))
    return [random_substochastic(n, g) for _ in range(count)] + [zero]


def _same(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


# T from 0.02 to 3: series orders from a few terms to about thirty, and
# quadratures of one to three Taylor stages
TIMES = (0.02, 0.3, 1.1, 3.0)


@pytest.mark.parametrize("n", [1, 4, 7])
def test_gaussian_batches_keep_each_members_bits(n):
    xis = _group(n, 4, 80 + n)
    Ts = [TIMES[i % len(TIMES)] for i in range(len(xis))]
    models = gauss.sigma_T_batch(xis, Ts)
    assert len({m.series_order for m in models}) >= (1 if n == 1 else 3)
    quad = gauss.sigma_T_quadrature_batch(xis, Ts)
    dts = gauss.d_T_batch(xis, Ts)
    dqs = gauss.d_T_quadrature_batch(xis, Ts)
    masks = np.arange(1, 1 << n)
    exact, lower, upper = gauss.subset_entropies_batch(models, masks)
    for i, (xi, T) in enumerate(zip(xis, Ts)):
        alone = gauss.sigma_T(xi, T)
        assert alone == models[i] and alone.tail_bound == models[i].tail_bound
        assert _same(alone.sigma_T, models[i].sigma_T)
        assert _same(gauss.sigma_T_quadrature(xi, T), quad[i])
        assert _same(gauss.d_T(xi, T), dts[i]) and _same(gauss.d_T_quadrature(xi, T), dqs[i])
        # the subsets of 3 or more sites are gathered from the batch; the
        # gather must come back C-ordered for Tr(A^2) to keep its bits
        for got, want in zip((exact[i], lower[i], upper[i]), gauss.subset_entropies(alone, masks)):
            assert _same(got, want)


def test_a_member_past_its_order_ignores_its_overflowing_terms():
    # BIG's own series stops at order 2; the batch goes on to its other
    # member's order, past the term at which BIG's powers overflow
    big = InteractionMatrix(np.array([[0, 1e60, 0], [1e60, 0, 0], [0, 0, 0]]))
    ok = _group(3, 1, 90)[0]
    Ts = [1e-64, 3.0]
    models = gauss.sigma_T_batch([big, ok], Ts)
    assert models[0].series_order < 5 < models[1].series_order
    for i, (xi, T) in enumerate(zip([big, ok], Ts)):
        alone = gauss.sigma_T(xi, T)
        assert alone == models[i] and _same(alone.sigma_T, models[i].sigma_T)
    dts = gauss.d_T_batch([big, ok], Ts)
    assert _same(dts, [gauss.d_T(big, Ts[0]), gauss.d_T(ok, Ts[1])])


ROT3 = InteractionMatrix(np.array([[0, 3.0, 0], [-2.7, 0, 0], [0, 0, 0.5]]))  # cancels at T = 7
HUGE = InteractionMatrix(np.array([[0, 1e100, 0], [1e100, 0, 0], [0, 0, 0]]))  # a term overflows
NIL400 = InteractionMatrix(np.array([[0, 400.0, 0], [0, 0, 0], [0, 0, 0]]))  # envelope overflows


def _error(call):
    with pytest.raises(ValueError) as exc:
        call()
    return str(exc.value)


@pytest.mark.parametrize("f, batch", [(gauss.sigma_T, gauss.sigma_T_batch),
                                      (gauss.d_T, gauss.d_T_batch)])
def test_the_first_refused_member_raises_its_own_error(f, batch):
    good = _group(3, 2, 90)[:2]
    refused = [(ROT3, 7.0), (HUGE, 1e-100)] + ([(NIL400, 1.0)] if f is gauss.sigma_T else [])
    for bad, T in refused:
        alone = _error(lambda: f(bad, T))
        assert f"gaussian.{f.__name__}_quadrature" in alone
        assert _error(lambda: batch(good + [bad], [0.4, 0.9, T])) == alone
    # of two refused members the first raises, whatever the other's reason
    for (first, t1), (second, t2) in zip(refused, refused[1:] + refused[:1]):
        got = _error(lambda: batch([good[0], first, second], [0.4, t1, t2]))
        assert got == _error(lambda: f(first, t1))


def test_expm_action_stacks_keep_each_members_bits():
    # signed operators of norm 0.01 to 10 (one to three stages), a zero
    # operator (mu = 0) and a start of signed zeros, which must keep their
    # sign, stepped as one stack
    g = stream(91)
    n = 5
    ops, starts, mus = [], [], []
    for scale in (0.01, 0.7, 3.9, 4.1, 10.0, 0.0, 2.0):
        a = g.standard_normal((n, n))
        a *= scale / np.linalg.norm(a, np.inf)
        ops.append(a)
        starts.append(g.standard_normal((n, 2)) if scale != 2.0 else -np.zeros((n, 2)))
        mus.append(float(np.linalg.norm(a, np.inf)))
    stack = np.stack(ops)
    got = linalg.expm_action(stack.__matmul__, np.stack(starts), mus)
    for a, b, mu, row in zip(ops, starts, mus, got):
        assert _same(linalg.expm_action(a.__matmul__, b, mu), row)
    assert _same(got[5], starts[5]) and _same(got[6], starts[6])  # mu = 0, and b = -0


def _tables(n, count, seed, columns):
    g = stream(seed)
    shape = (1 << n,) + ((columns,) if columns else ())
    return [(lambda t: (lambda masks: t[masks]))(g.standard_normal(shape)) for _ in range(count)]


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("columns", [0, 3])
def test_exact_engine_batches_keep_each_members_bits(n, columns):
    # kappas from 0.2 to 1.9 give each member its own rate lam and
    # truncation order; the zero matrix has lam = 0 and takes no step
    xis = _group(n, 3, 100 + n)
    models = [perc.PercolationModel(xi, kappa) for xi, kappa in zip(xis, (0.2, 1.9, 0.7, 1.0))]
    Fs = _tables(n, len(models), 110 + n, columns)
    lhs = perc.generator_apply_batch(models, Fs)
    for v, times, rate in ((None, (0.1, 0.5, 2.0), 0.3), ([0], (0.0, 1.3), None),
                           ([0], (), 0.0)):
        got = perc.exact_expectations_batch(models, Fs, v, times, rate=rate, horizon=2.5)
        for i, (model, F) in enumerate(zip(models, Fs)):
            want = perc.exact_expectations(model, F, v, times, rate=rate, horizon=2.5)
            assert got[i].shape == want.shape and _same(got[i], want)
    for i, (model, F) in enumerate(zip(models, Fs)):
        assert _same(lhs[i], perc.generator_apply(model, F))


@pytest.mark.parametrize("n", [1, 5])
def test_expectation_bound_batches_keep_each_members_bits(n):
    g = stream(120 + n)
    models = [perc.PercolationModel(xi, kappa)
              for xi, kappa in zip(_group(n, 3, 121), (0.3, 1.0, 2.5, 0.8))]
    xs = [g.random(n) for _ in models]
    Gs = [g.random((n, n)) for _ in models]
    masks = np.arange(1 << n)
    times = (0.1, 0.5, 1.0, 2.0)
    for x_arg, G_arg in ((xs, Gs), (xs, None), (None, Gs), (None, None)):
        got = perc.expectation_bounds_batch(models, masks, times, x_arg, G_arg)
        for i, model in enumerate(models):
            want = perc.expectation_bounds(model, masks, times,
                                           None if x_arg is None else xs[i],
                                           None if G_arg is None else Gs[i])
            assert _same(got[i], want)


def test_batches_refuse_mixed_sizes():
    xis = [random_substochastic(n, stream(130)) for n in (3, 4)]
    with pytest.raises(ValueError, match="one size"):
        gauss.sigma_T_batch(xis, [0.5, 0.5])
    models = [perc.PercolationModel(xi, 1.0) for xi in xis]
    with pytest.raises(ValueError, match="one size"):
        perc.generator_apply_batch(models, [lambda m: m * 1.0] * 2)


# ---------------------------------------------------------------------------
# verify: one call per size, and the same report bytes

def test_each_suite_calls_each_batch_kernel_once_per_size(monkeypatch):
    counts = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("sigma_T_batch", "sigma_T_quadrature_batch", "d_T_batch",
                 "d_T_quadrature_batch", "subset_entropies_batch", "_series", "_spectra"):
        counted(gauss, name)
    for name in ("generator_apply_batch", "exact_expectations_batch",
                 "expectation_bounds_batch", "_Engine"):
        counted(perc, name)
    counted(linalg, "expm_action")
    verify.gaussian_suite(seed=0)
    gaussian = dict(counts)
    counts.clear()
    verify.expectations_suite(seed=0)
    expectations = dict(counts)
    counts.clear()
    verify.generator_suite(seed=0)
    generator = dict(counts)
    # one call per size group, never one per instance: at seed 0 each
    # ensemble, of 100 or 50 instances, holds all nine sizes 2..10
    for name in ("sigma_T_batch", "sigma_T_quadrature_batch", "d_T_batch",
                 "d_T_quadrature_batch", "subset_entropies_batch", "_spectra"):
        assert gaussian[name] == 9, name
    assert gaussian["_series"] == 18 and gaussian["expm_action"] == 18
    assert expectations["exact_expectations_batch"] == 9
    assert expectations["expectation_bounds_batch"] == 9
    assert expectations["_Engine"] == 9 and expectations["expm_action"] == 9 * 4
    assert generator["generator_apply_batch"] == 9 and generator["_Engine"] == 9


def test_slack_minimum_does_not_depend_on_the_order_of_adds():
    # the suites add a size group at a time, not an instance at a time: a
    # zero of either sign, and a NaN anywhere, must record the same value
    for adds in ([-0.0, 0.0], [0.0, -0.0], [np.array([1.0, -0.0]), 0.5]):
        for order in (adds, adds[::-1]):
            agg = verify._Slack()
            for slack in order:
                agg.add("c", slack)
            assert _same(agg.worst["c"], 0.0)
    for adds in ([1.0, np.nan], [np.nan, 1.0], [np.array([2.0, np.nan]), -1.0]):
        for order in (adds, adds[::-1]):
            agg = verify._Slack()
            for slack in order:
                agg.add("c", slack)
            (check,) = agg.checks()
            assert np.isnan(check.slack) and not check.passed


# sha256 of `verify --suite all --seed S --out`, which the batches must keep
REPORT_SHA256 = {
    0: "e0b097a1ad3dd3c11addf11c5a5887140c25ccd7526748d90a87080080e3bff0",
    1: "b29382f9d2b8544730f006fb74b28afbbc07df97225a573f3302ddeaa8fe7035",
    2: "54e28620611d13cba899d507c27e0910903a8517c785b48e53bd6fa535c33725",
    3: "841ff85456636373d928ab7b01f0641660f1261495d948e63f985ab67cfb7a76",
}


@pytest.mark.parametrize("seed", sorted(REPORT_SHA256))
def test_verify_report_bytes_are_pinned(seed, tmp_path):
    out = tmp_path / "report.json"
    assert console_main(["verify", "--suite", "all", "--seed", str(seed), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256[seed]
