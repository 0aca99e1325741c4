"""The exact engine's and the birth chain's one increment pass, held bit for
bit to frozen copies of the kernels it replaced.

Both chains step through percolation._step_sum, one contiguous pass per bit.
Before it, _Engine kept its rates in a pair-view layout (the two halves of
each bit's blocks, transposed for the low bits) and the mean-field birth
chain stepped with an np.roll lambda.  Those kernels are frozen here, and
exact_expectations, generator_apply, percolation_entropy_bound and
mean_field_size_expectation must return the same bits through either.
"""

import numpy as np
import pytest

from chaoscope import percolation as perc
from chaoscope.bounds import ModelConstants, percolation_entropy_bound
from chaoscope.matrix import InteractionMatrix, random_substochastic, step_pairs
from chaoscope.rng import stream

KAPPA = 0.8


def _pairs(f, j):
    lo, hi = step_pairs(f, j)
    return (lo.swapaxes(0, 1), hi.swapaxes(0, 1)) if j < 4 else (lo, hi)


class _PairEngine:
    """The pair-view engine as it stood before _step_sum, frozen."""

    def __init__(self, model, v=0):
        n = model.n
        self.kappa = model.kappa
        d = model.xi.dense()
        free = [j for j in range(n) if not v >> j & 1]
        sums = np.zeros((len(free), 1 << len(free)))
        self.masks = np.full(1 << len(free), v, dtype=np.int64)
        size = 1
        for i in range(n):
            row = d[i, free][:, None]
            if v >> i & 1:
                sums[:, :size] += row
            else:
                np.add(sums[:, :size], row, out=sums[:, size:2 * size])
                np.bitwise_or(self.masks[:size], 1 << i, out=self.masks[size:2 * size])
                size *= 2
        self.rates = [_pairs(sums[j], j)[0].copy() for j in range(len(free))]
        exits = np.zeros(size)
        for j, rate in enumerate(self.rates):
            lo = _pairs(exits, j)[0]
            lo += rate
        top = float(exits.max())
        self.lam = model.kappa * top * (1.0 + 1e-12) if top > 0.0 else model.kappa
        self.curve_lam = self.lam if top > 0.0 else 0.0

    def apply_generator(self, f):
        out = np.zeros(f.shape)
        buf = np.empty(f.size // 2)
        for j, rate in enumerate(self.rates):
            lo, hi = _pairs(f, j)
            step = buf.reshape(lo.shape)
            np.subtract(hi, lo, out=step)
            np.multiply(step, rate.reshape(rate.shape + (1,) * (f.ndim - 1)), out=step)
            acc = _pairs(out, j)[0]
            acc += step
        out *= self.kappa
        return out

    def apply_kernel(self, f):
        out = self.apply_generator(f)
        out /= self.lam
        out += f
        return out


def _roll_mean_field(n, kappa, k0, t, power=2, tol=1e-12):
    """mean_field_size_expectation with the np.roll birth kernel, frozen."""
    ks = np.arange(n + 1, dtype=float)
    birth = kappa * ks * (n - ks) / (n - 1)
    lam = float(birth.max())
    kernel = lambda cur: cur + (birth * (np.roll(cur, -1) - cur)) / lam
    return perc.uniformized(kernel, ks ** power, lam, [t], tol)[0, np.asarray(k0)]


def _matrices():
    g = stream(37)
    out = [random_substochastic(n, g) for n in range(1, 11)]
    return out + [InteractionMatrix(np.zeros((4, 4)))]


MATRICES = _matrices()
IDS = [f"n{xi.n}" for xi in MATRICES[:-1]] + ["zero4"]


def _stack(n):
    """Three signed columns over all 2^n masks, so increments take both signs."""
    table = stream(100 + n).standard_normal((1 << n, 3))
    return lambda masks: table[masks]


def _both(monkeypatch, compute):
    """compute() through _step_sum, then through the frozen pair-view engine."""
    new = compute()
    with monkeypatch.context() as m:
        m.setattr(perc, "_Engine", _PairEngine)
        old = compute()
    return new, old


@pytest.mark.parametrize("xi", MATRICES, ids=IDS)
def test_generator_apply_keeps_the_pair_view_bits(xi, monkeypatch):
    model = perc.PercolationModel(xi, KAPPA)
    for F in (_stack(xi.n), lambda masks: np.bitwise_count(masks).astype(float) ** 2):
        new, old = _both(monkeypatch, lambda: perc.generator_apply(model, F))
        assert np.array_equal(new, old)


@pytest.mark.parametrize("xi", MATRICES, ids=IDS)
def test_exact_expectations_keep_the_pair_view_bits(xi, monkeypatch):
    model = perc.PercolationModel(xi, KAPPA)
    n = xi.n
    for v in (None, [0], list(range(n))):
        for F in (_stack(n), lambda masks: np.bitwise_count(masks).astype(float)):
            new, old = _both(monkeypatch, lambda: perc.exact_expectations(
                model, F, v, [0.3, 1.0, 2.5], rate=0.7))
            assert new.shape[0] == 4  # three times and the integral row
            assert np.array_equal(new, old)


@pytest.mark.parametrize("xi", MATRICES, ids=IDS)
def test_growth_bound_keeps_the_pair_view_bits(xi, monkeypatch):
    plain = ModelConstants(gamma=1.0, M=1.0, sigma=1.0, T=1.5)
    uniform = ModelConstants(gamma=1.0, M=1.0, sigma=1.0, T=1.5, eta=0.05)
    for v in (None, [0], list(range(xi.n))):
        for kwargs in (dict(constants=plain),
                       dict(constants=plain, h3=0.4, H0=lambda m: np.bitwise_count(m) * 0.1),
                       dict(constants=uniform, uniform=True)):
            new, old = _both(monkeypatch,
                             lambda: percolation_entropy_bound(xi, v, **kwargs))
            assert np.array_equal(new, old)


@pytest.mark.parametrize("power", [1, 2, 3])
def test_birth_chain_keeps_the_roll_kernel_bits(power):
    for n in range(2, 1001, 7):
        for kappa, t in ((1.0, 0.6), (0.35, 2.0)):
            k0 = np.arange(1, n + 1)
            new = perc.mean_field_size_expectation(n, kappa, k0, t, power=power)
            assert np.array_equal(new, _roll_mean_field(n, kappa, k0, t, power))
    for n in (2, 3, 4, 999, 1000):
        assert perc.mean_field_size_expectation(n, 1.0, 1, 1.0, power) == \
            float(_roll_mean_field(n, 1.0, 1, 1.0, power))


def test_step_sum_adds_the_bits_in_order():
    # increments 1, 1e16 and -1e16 at row 0: in bit order the 1 is rounded away
    f = np.array([0.0, 1.0, 1e16, 0.0, -1e16, 0.0, 0.0, 0.0])
    rates = np.zeros((3, 8))
    rates[:, 0] = 1.0
    assert perc._step_sum(f, rates)[0] == 0.0
    assert (-1e16 + 1e16) + 1.0 == 1.0  # the reversed order keeps it


def test_tables_with_a_non_finite_value_are_refused():
    # a held site's term is 0.0 * (f[m + 2^j] - f[m]), NaN beside an inf
    model = perc.PercolationModel(MATRICES[3], KAPPA)
    for bad in (np.inf, -np.inf, np.nan):
        table = np.zeros(1 << model.n)
        table[0b100] = bad
        for call in (lambda: perc.generator_apply(model, lambda m: table[m]),
                     lambda: perc.exact_expectations(model, lambda m: table[m], None, [1.0])):
            with pytest.raises(ValueError, match="F must be finite"):
                call()
