import math

import numpy as np
import pytest
import scipy.integrate

from chaoscope.bounds import (ModelConstants, avg_entropy_bound,
                              gaussian_fk_constants, h3_bound, lsi_constants,
                              max_entropy_bound, percolation_entropy_bound,
                              reversed_variant, setwise_bound,
                              sharper_avg_bound, weighted_avg_bound)
from chaoscope.gaussian import sigma_T
from chaoscope.matrix import SubsetState, build_mean_field, p_xi, q_xi
from chaoscope.percolation import (NotApplicable, PercolationModel,
                                   SubsetFunction, expectation_curve,
                                   functional_table)

from conftest import random_matrices


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
    model = PercolationModel(single_edge, kappa)
    c_full = 2.0 * a * a * c.M / c.sigma ** 2

    # start at the full set: the cost is frozen at its full-set value
    got = percolation_entropy_bound(model, [0, 1], c)
    assert got == pytest.approx(c.T * c_full, rel=1e-8)

    # start at a singleton: cost turns on once the neighbor joins
    rate = kappa * a
    want = c_full * (c.T - (1.0 - math.exp(-rate * c.T)) / rate)
    got = percolation_entropy_bound(model, [0], c)
    assert got == pytest.approx(want, rel=1e-7)


def test_growth_bound_discounted(single_edge):
    a = 0.7
    c = ModelConstants(gamma=0.05, M=2.0, sigma=1.0, T=1.0, eta=0.2)
    r = c.discount_rate()
    kappa = c.rate_scale()
    model = PercolationModel(single_edge, kappa)
    c_full = 2.0 * a * a * c.M / c.sigma ** 2
    rate = kappa * a
    want, _ = scipy.integrate.quad(
        lambda t: math.exp(-r * t) * c_full * (1.0 - math.exp(-rate * t)),
        0.0, c.T, epsabs=1e-13, epsrel=1e-13)
    got = percolation_entropy_bound(model, [0], c, uniform=True)
    assert got == pytest.approx(want, rel=1e-7)


def test_growth_bound_h0_term(single_edge):
    c = ModelConstants(gamma=0.9, M=2.0, sigma=1.1, T=0.8)
    model = PercolationModel(single_edge, c.rate_scale())
    h0 = SubsetFunction(np.array([0.0, 1.0, 1.0, 5.0]), 2)
    base = percolation_entropy_bound(model, [0], c)
    with_h0 = percolation_entropy_bound(model, [0], c, H0=h0)
    rate = c.rate_scale() * 0.7
    p_joined = 1.0 - math.exp(-rate * c.T)
    want_h0 = 5.0 * p_joined + 1.0 * (1.0 - p_joined)
    assert with_h0 - base == pytest.approx(want_h0, rel=1e-8)


def test_growth_bound_h0_shares_one_curve():
    # cost and H0 through one stacked curve equal the two curves taken apart
    xi = random_matrices(1, seed=71, n_lo=7, n_hi=7)[0]
    h0 = SubsetFunction(np.linspace(0.0, 3.0, 1 << 7), 7)
    for uniform in (False, True):
        c = ModelConstants(gamma=0.5, M=1.5, sigma=1.2, T=0.7, eta=0.05)
        model = PercolationModel(xi, c.rate_scale())
        rate = c.discount_rate() if uniform else 0.0
        cost = functional_table(("C", {"constants": c}), xi)
        want = (expectation_curve(model, cost, c.T, tol=1e-10).integral_all(c.T, rate)
                + math.exp(-rate * c.T) * expectation_curve(model, h0, c.T, tol=1e-10).eval_all(c.T))
        got = percolation_entropy_bound(model, None, c, H0=h0, uniform=uniform)
        assert np.array_equal(got, want)
        assert percolation_entropy_bound(model, [0, 2], c, H0=h0, uniform=uniform) == want[0b101]
    for bad in (SubsetFunction(np.zeros((1 << 7, 2)), 7), SubsetFunction(np.zeros(8), 3)):
        with pytest.raises(ValueError, match="H0 must be one table"):
            percolation_entropy_bound(model, None, c, H0=bad)


def test_growth_bound_all_matches_single(four_cycle):
    c = ModelConstants(gamma=1.0, M=1.5, sigma=1.0, T=0.6)
    model = PercolationModel(four_cycle, c.rate_scale())
    vec = percolation_entropy_bound(model, None, c)
    for mask in (0b0001, 0b0101, 0b1111):
        single = percolation_entropy_bound(model, SubsetState(mask, 4), c)
        assert vec[mask] == pytest.approx(single, rel=1e-6, abs=1e-12)
    assert vec[0] == pytest.approx(0.0, abs=1e-12)


def test_chat_needs_nonnegative_h3(single_edge):
    c = ModelConstants(gamma=1.0, M=1.0, sigma=1.0, T=0.5)
    model = PercolationModel(single_edge, c.rate_scale())
    with pytest.raises(ValueError):
        percolation_entropy_bound(model, [0], c, use_chat=True, h3=-1.0)


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
    sq = float((xi.vals ** 2).sum())
    want = (2.0 / 4.0 + 1.0) * (4.0 / 25.0 * sq + 2.0 / 5.0 * p_xi(xi))
    assert rep.structural == pytest.approx(want, rel=1e-12)


def test_setwise_matches_q_xi():
    xi = build_mean_field(5)
    v = SubsetState.of([0, 2, 4], 5)
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
    assert lsi_constants("convex", {"lam": 2.0, "eta0": 1.0, "sigma": 1.0}) \
        == pytest.approx(0.5)
    assert lsi_constants("convex", {"lam": 0.1, "eta0": 0.2, "sigma": 1.0}) \
        == pytest.approx(10.0)
    base = lsi_constants("torus", {"lam": 3.0, "sigma": 1.0})
    assert base == pytest.approx(9.0 / (8.0 * math.pi ** 2))
    # a divergence term strictly inflates eta
    more = lsi_constants("torus", {"lam": 3.0, "sigma": 1.0, "div_norm": 1.0})
    assert more > base
    with pytest.raises(NotApplicable):
        lsi_constants("torus", {"lam": 3.0, "sigma": 1.0, "div_norm": 100.0})
    with pytest.raises(ValueError):
        lsi_constants("torus", {"lam": 0.5, "sigma": 1.0})
    with pytest.raises(ValueError):
        lsi_constants("spiral", {})


def test_gaussian_fk_constants():
    xi = random_matrices(1, seed=61, n_lo=4, n_hi=4)[0]
    gm = sigma_T(xi, 0.5)
    c = gaussian_fk_constants(gm)
    assert c.gamma == pytest.approx(1.0)
    assert c.M == pytest.approx(float(np.diag(gm.sigma_T).max()))
    assert c.sigma == 1.0 and c.T == 0.5

