import math
from functools import partial

import numpy as np
import pytest
import scipy.integrate

from chaoscope import bounds
from chaoscope.bounds import (ModelConstants, avg_entropy_bound,
                              gaussian_fk_constants, h3_bound, lsi_convex, lsi_torus,
                              max_entropy_bound, percolation_entropy_bound,
                              reversed_variant, setwise_bound,
                              sharper_avg_bound, weighted_avg_bound)
from chaoscope.gaussian import sigma_T
from chaoscope.matrix import (MatrixError, NotApplicable, build_mean_field, cost_values,
                              mask_members, p_xi, q_xi, subset_mask)
from chaoscope.percolation import (EngineTooLarge, PercolationModel,
                                   exact_expectations, functional_values, mc_expectation,
                                   terminal_masks)

from conftest import lookup, random_matrices


def cost_fn(xi, c, h3=None):
    """C (h3=None) or C-hat as a function of masks, the cost the growth bound takes."""
    return lambda masks: cost_values(xi, masks, c, h3)


def test_constants_validation():
    with pytest.raises(ValueError):
        ModelConstants(gamma=0.0, M=1.0, sigma=1.0, T=1.0)
    for T in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            ModelConstants(gamma=1.0, M=1.0, sigma=1.0, T=T)
    with pytest.raises(ValueError):
        ModelConstants(gamma=1.0, M=1.0, sigma=1.0, T=1.0, eta=0.0)
    base = dict(gamma=1.0, M=1.0, sigma=1.0, T=1.0, eta=0.1, C0=0.0)
    for name in ("gamma", "M", "sigma", "eta", "C0"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be"):
                ModelConstants(**dict(base, **{name: bad}))
    # sigma^2 underflows to 0 (1e-200), gamma / sigma^2 overflows (1e-160),
    # or gamma / sigma^2 underflows to 0 (1e200)
    for sigma in (1e-200, 1e-160, 1e200):
        with pytest.raises(ValueError, match="^sigma must keep gamma / sigma"):
            ModelConstants(**dict(base, sigma=sigma))
    c = ModelConstants(gamma=2.0, M=3.0, sigma=0.5, T=1.0)
    assert c.rate_scale() == pytest.approx(8.0)


def test_uniform_gate():
    tight = ModelConstants(gamma=1.0, M=1.0, sigma=1.0, T=1.0, eta=1.0 / 12.0)
    with pytest.raises(ValueError):  # sigma^2 = 12 eta gamma exactly: refused
        tight.require_uniform()
    ok = ModelConstants(gamma=1.0, M=1.0, sigma=1.0, T=1.0, eta=1.0 / 16.0)
    assert ok.discount_rate() == pytest.approx(4.0)
    missing = ModelConstants(gamma=1.0, M=1.0, sigma=1.0, T=1.0)
    with pytest.raises(ValueError):
        missing.discount_rate()


def test_growth_bound_single_edge_closed_form(single_edge):
    a = 0.7
    c = ModelConstants(gamma=0.9, M=2.0, sigma=1.1, T=1.4)
    kappa = c.rate_scale()
    c_full = 2.0 * a * a * c.M / c.sigma ** 2

    # start at the full set: the cost is frozen at its full-set value
    got = percolation_entropy_bound(single_edge, [0, 1], c)[0]
    assert got == pytest.approx(c.T * c_full, rel=1e-8)

    # start at a singleton: cost turns on once the neighbor joins
    rate = kappa * a
    want = c_full * (c.T - (1.0 - math.exp(-rate * c.T)) / rate)
    got = percolation_entropy_bound(single_edge, [0], c)[0]
    assert got == pytest.approx(want, rel=1e-7)


def test_growth_bound_discounted(single_edge):
    a = 0.7
    c = ModelConstants(gamma=0.05, M=2.0, sigma=1.0, T=1.0, eta=0.2)
    r = c.discount_rate()
    kappa = c.rate_scale()
    c_full = 2.0 * a * a * c.M / c.sigma ** 2
    rate = kappa * a
    want, _ = scipy.integrate.quad(
        lambda t: math.exp(-r * t) * c_full * (1.0 - math.exp(-rate * t)),
        0.0, c.T, epsabs=1e-13, epsrel=1e-13)
    got = percolation_entropy_bound(single_edge, [0], c, uniform=True)[0]
    assert got == pytest.approx(want, rel=1e-7)


def test_growth_bound_h0_term(single_edge):
    c = ModelConstants(gamma=0.9, M=2.0, sigma=1.1, T=0.8)
    h0 = lookup([0.0, 1.0, 1.0, 5.0])
    base = percolation_entropy_bound(single_edge, [0], c)[0]
    with_h0 = percolation_entropy_bound(single_edge, [0], c, H0=h0)[0]
    rate = c.rate_scale() * 0.7
    p_joined = 1.0 - math.exp(-rate * c.T)
    want_h0 = 5.0 * p_joined + 1.0 * (1.0 - p_joined)
    assert with_h0 - base == pytest.approx(want_h0, rel=1e-8)


def test_growth_bound_h0_shares_one_curve():
    # cost and H0 through one stacked pass equal the two passes taken apart
    xi = random_matrices(1, seed=71, n_lo=7, n_hi=7)[0]
    h0 = lookup(np.linspace(0.0, 3.0, 1 << 7))
    for uniform in (False, True):
        c = ModelConstants(gamma=0.5, M=1.5, sigma=1.2, T=0.7, eta=0.05)
        model = PercolationModel(xi, c.rate_scale())
        rate = c.discount_rate() if uniform else 0.0
        cost = cost_fn(xi, c)
        want = (exact_expectations(model, cost, None, [c.T], 1e-10, rate)[1]
                + math.exp(-rate * c.T) * exact_expectations(model, h0, None, [c.T], 1e-10)[0])
        got = percolation_entropy_bound(xi, None, c, H0=h0, uniform=uniform)
        assert np.array_equal(got, want)
        # a start subset: the same two passes, each on the up-set of v
        want_v = (exact_expectations(model, cost, [0, 2], [c.T], 1e-10, rate)[1]
                  + math.exp(-rate * c.T)
                  * exact_expectations(model, h0, [0, 2], [c.T], 1e-10)[0])
        got = percolation_entropy_bound(xi, [0, 2], c, H0=h0, uniform=uniform)
        assert np.array_equal(got, want_v)
    # H0 must give one value per mask: not a stack, not another row count, not a scalar
    for bad in (lambda m: np.zeros((m.size, 2)), lambda m: np.zeros((m.size, 1, 1)),
                lambda m: np.zeros(8), lambda m: 0.0):
        with pytest.raises(ValueError, match="H0 must give one value per mask"):
            percolation_entropy_bound(xi, None, c, H0=bad)


def test_growth_bound_asks_for_the_integral_row_alone(monkeypatch):
    # without H0 the bound's pass forms no value row at T, and its integral
    # row is bitwise the one formed next to that row
    xi = random_matrices(1, seed=73, n_lo=6, n_hi=6)[0]
    c = ModelConstants(gamma=0.5, M=1.5, sigma=1.2, T=0.7, eta=0.05)
    model = PercolationModel(xi, c.rate_scale())
    shapes = []

    def recording(*args, **kwargs):
        out = exact_expectations(*args, **kwargs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(bounds, "exact_expectations", recording)
    for h3 in (None, 0.8):
        cost = cost_fn(xi, c, h3)
        for uniform in (False, True):
            rate = c.discount_rate() if uniform else 0.0
            for v in (None, [0], [1, 4]):
                alone = exact_expectations(model, cost, v, [], 1e-10, rate, horizon=c.T)
                both = exact_expectations(model, cost, v, [c.T], 1e-10, rate)
                assert alone.shape == (1,) + both.shape[1:]
                assert np.array_equal(alone[0], both[1])
                shapes.clear()
                got = percolation_entropy_bound(xi, v, c, h3=h3, uniform=uniform)
                assert shapes == [alone.shape]
                assert np.array_equal(got, both[1])


def test_percolation_entropy_bound_builds_its_rate(monkeypatch):
    # the bound runs the growth process at gamma / sigma^2, the proofs' rate
    xi = random_matrices(1, seed=74, n_lo=6, n_hi=6)[0]
    c = ModelConstants(gamma=0.5, M=1.5, sigma=1.2, T=0.7)
    model = PercolationModel(xi, c.rate_scale())
    for v in (None, [2]):
        want = exact_expectations(model, cost_fn(xi, c), v, [], 1e-10, 0.0, horizon=c.T)[0]
        assert np.array_equal(percolation_entropy_bound(xi, v, c), want)
    # past the exact engine it refuses before tabulating a cost over 2^n masks
    monkeypatch.setattr(bounds, "cost_values", None)
    with pytest.raises(EngineTooLarge, match="exact engine handles n <= 16, got 20"):
        percolation_entropy_bound(build_mean_field(20), [0], c)


def test_growth_bound_runs_on_the_up_set(monkeypatch):
    # a start subset v runs on its 2^(n-|v|) supersets; the full lattice's row
    # v agrees within the certificate, T * 1e-10 * max|C| (+ 1e-10 * max|H0|)
    n = 6
    xi = random_matrices(1, seed=72, n_lo=n, n_hi=n)[0]
    h0_values = np.linspace(0.0, 2.0, 1 << n)
    h0 = lookup(h0_values)
    c = ModelConstants(gamma=0.5, M=1.5, sigma=1.2, T=0.7, eta=0.05)
    model = PercolationModel(xi, c.rate_scale())
    curves = []  # (start subset, states) of each pass

    def recording(model, F, v, *args, **kwargs):
        out = exact_expectations(model, F, v, *args, **kwargs)
        curves.append((v, out.shape[1]))
        return out

    monkeypatch.setattr(bounds, "exact_expectations", recording)
    for h3 in (None, 0.8):
        cost = cost_values(xi, np.arange(1 << n), c, h3)
        for uniform in (False, True):
            rate = c.discount_rate() if uniform else 0.0
            for H0 in (None, h0):
                # the full-lattice route: one pass over all 2^n masks, row v
                F = lookup(cost if H0 is None else np.column_stack((cost, h0_values)))
                at_T, want = exact_expectations(model, F, None, [c.T], 1e-10, rate)
                allowance = c.T * 1e-10 * np.abs(cost).max()
                if H0 is not None:
                    want = want[:, 0] + math.exp(-rate * c.T) * at_T[:, 1]
                    allowance += 1e-10 * np.abs(h0_values).max()
                kw = dict(H0=H0, h3=h3, uniform=uniform)
                for members in ([0], [3], [5], [1, 4], list(range(n))):
                    curves.clear()
                    got = percolation_entropy_bound(xi, members, c, **kw)[0]
                    assert curves == [(members, 1 << (n - len(members)))]
                    assert abs(got - want[subset_mask(members, n)]) <= allowance, (
                        members, h3, uniform)
                curves.clear()
                percolation_entropy_bound(xi, None, c, **kw)
                assert curves == [(None, 1 << n)]


def test_growth_bound_all_matches_single(four_cycle):
    c = ModelConstants(gamma=1.0, M=1.5, sigma=1.0, T=0.6)
    vec = percolation_entropy_bound(four_cycle, None, c)
    for mask in (0b0001, 0b0101, 0b1111):
        single = percolation_entropy_bound(four_cycle, mask_members(mask), c)[0]
        assert vec[mask] == pytest.approx(single, rel=1e-6, abs=1e-12)
    assert vec[0] == pytest.approx(0.0, abs=1e-12)


def test_chat_needs_nonnegative_h3(single_edge):
    c = ModelConstants(gamma=1.0, M=1.0, sigma=1.0, T=0.5)
    with pytest.raises(ValueError):
        percolation_entropy_bound(single_edge, [0], c, h3=-1.0)


def test_h3_bound_forms():
    c = ModelConstants(gamma=1.0, M=1.0, sigma=1.0, T=0.0)
    assert h3_bound(c, 1.0) == pytest.approx(72.0)
    assert h3_bound(c, 0.0) == 0.0
    c2 = ModelConstants(gamma=0.5, M=2.0, sigma=1.0, T=0.3, C0=0.1)
    want = 8.0 * math.exp(1.5 * 0.3) * (0.1 + 2.0 / 1.5) * 27.0 * 0.04
    assert h3_bound(c2, 0.2) == pytest.approx(want, rel=1e-12)
    cu = ModelConstants(gamma=0.1, M=1.0, sigma=1.0, T=1.0, eta=0.5, C0=0.2)
    r = cu.discount_rate()  # 0.5 > 0.3 = 3 gamma
    want_u = 8.0 * (0.2 + 1.0 / (r - 0.3)) * 27.0 * 0.04
    assert h3_bound(cu, 0.2, uniform=True) == pytest.approx(want_u, rel=1e-12)
    with pytest.raises(ValueError):
        h3_bound(c, -0.5)


def test_max_and_avg_structural_values():
    xi = build_mean_field(6)  # delta = 1/5
    rep = max_entropy_bound(xi, 3)
    dk = 3.0 / 5.0
    assert rep.structural == pytest.approx((dk + 1.0) * dk * dk)
    assert rep.prefactor == pytest.approx(dk + 1.0)
    avg = avg_entropy_bound(xi, 3)
    want = (dk + 1.0) * 9.0 / 6.0 * 6.0 * (1.0 / 25.0)
    assert avg.structural == pytest.approx(want)
    assert avg.structural <= rep.structural + 1e-15


def test_sharper_avg_uses_pxi():
    xi = build_mean_field(5)
    rep = sharper_avg_bound(xi, 2)
    sq = float((xi.dense() ** 2).sum())
    want = (2.0 / 4.0 + 1.0) * (4.0 / 25.0 * sq + 2.0 / 5.0 * p_xi(xi))
    assert rep.structural == pytest.approx(want, rel=1e-12)


def test_single_subset_apis_take_member_indices():
    # order and repeats do not matter, and a numpy index array reads alike;
    # member n is refused by name
    xi = build_mean_field(5)
    model = PercolationModel(xi, 0.7)
    c = ModelConstants(gamma=1.0, M=1.5, sigma=1.0, T=0.4)
    apis = {
        "exact_expectations": lambda v: exact_expectations(
            model, partial(functional_values, "size2", xi), v, [0.5, 1.0]),
        "terminal_masks": lambda v: terminal_masks(model, v, 0.5, 50, 3),
        "terminal_masks.fpp": lambda v: terminal_masks(model, v, 0.5, 50, 3, method="fpp"),
        "mc_expectation": lambda v: mc_expectation(model, "size", v, 0.5, 50, 3),
        "percolation_entropy_bound": lambda v: percolation_entropy_bound(xi, v, c),
        "q_xi": lambda v: q_xi(xi, v),
        "setwise_bound": lambda v: setwise_bound(xi, v),
    }
    for name, api in apis.items():
        a, b = api([3, 1, 1]), api(np.array([1, 3]))
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, name
        with pytest.raises(MatrixError, match=r"^subset members out of range for n=5$"):
            api([1, 5])


def test_setwise_matches_q_xi():
    xi = build_mean_field(5)
    v = [4, 0, 2, 2]
    rep = setwise_bound(xi, v)
    assert rep.structural == pytest.approx(q_xi(xi, v), rel=1e-15)
    assert rep.inputs["v"] == [0, 2, 4]


def test_weighted_avg_validation_and_value():
    xi = build_mean_field(4)
    pi = np.full(4, 0.25)
    rep = weighted_avg_bound(xi, 2, pi)
    want = (2.0 / 3.0 + 1.0) * 4.0 * float((pi * xi.delta_i ** 2).sum())
    assert rep.structural == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        weighted_avg_bound(xi, 2, np.array([0.5, 0.5, 0.5, 0.5]))  # mass > 1
    with pytest.raises(ValueError):
        weighted_avg_bound(xi, 2, np.array([-0.1, 0.4, 0.4, 0.3]))
    skew = np.array([0.9, 0.1, 0.0, 0.0])
    with pytest.raises(ValueError):  # pi^T xi exceeds pi on some coordinate
        weighted_avg_bound(xi, 2, skew)


def test_reversed_variant():
    xi = build_mean_field(6)
    rep = avg_entropy_bound(xi, 3)
    rev = reversed_variant(rep)
    assert rev.theorem == "avg.reversed"
    assert rev.structural == pytest.approx(rep.structural / rep.prefactor)
    assert rev.prefactor == 1.0
    with pytest.raises(ValueError):
        reversed_variant(rev)


def test_lsi_constants():
    assert lsi_convex(2.0, 1.0, 1.0) == pytest.approx(0.5)
    assert lsi_convex(0.1, 0.2, 1.0) == pytest.approx(10.0)
    base = lsi_torus(3.0, 1.0)
    assert base == pytest.approx(9.0 / (8.0 * math.pi ** 2))
    # a divergence term strictly inflates eta
    more = lsi_torus(3.0, 1.0, div_norm=1.0)
    assert more > base
    with pytest.raises(NotApplicable):
        lsi_torus(3.0, 1.0, div_norm=100.0)
    with pytest.raises(ValueError, match="lam >= 1"):
        lsi_torus(0.5, 1.0)
    with pytest.raises(ValueError, match="div_norm must be nonnegative"):
        lsi_torus(3.0, 1.0, div_norm=-1.0)
    with pytest.raises(ValueError, match="lam > 0"):
        lsi_convex(0.0, 1.0, 1.0)


def test_gaussian_fk_constants():
    xi = random_matrices(1, seed=61, n_lo=4, n_hi=4)[0]
    gm = sigma_T(xi, 0.5)
    c = gaussian_fk_constants(gm)
    assert c.gamma == pytest.approx(1.0)
    assert c.M == pytest.approx(float(np.diag(gm.sigma_T).max()))
    assert c.sigma == 1.0 and c.T == 0.5

