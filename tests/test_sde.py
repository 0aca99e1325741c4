import math

import numpy as np
import pytest

from chaoscope.gaussian import sigma_T
from chaoscope.matrix import InteractionMatrix, build_mean_field
from chaoscope.percolation import NotApplicable
from chaoscope.rng import stream
from chaoscope.sde import (DriftSpec, SimConfig, gaussian_entropy_from_samples,
                           save_samples, simulate_particles,
                           simulate_projection)

from conftest import random_matrices


def zero_matrix(n):
    return InteractionMatrix.from_dense(np.zeros((n, n)))


def cov_close(emp, want, samples, nsig):
    """Entrywise |emp - want| <= nsig * delta-method stderr of emp."""
    k = emp.shape[0]
    for i in range(k):
        for j in range(i, k):
            se = math.sqrt((emp[i, i] * emp[j, j] + emp[i, j] ** 2) / samples)
            assert abs(emp[i, j] - want[i, j]) <= nsig * se, (i, j)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, T=1.0, samples=10, seed=0)
    for T in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            SimConfig(dt=0.1, T=T, samples=10, seed=0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.1, T=1.0, samples=0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.1, T=1.0, samples=10, seed=0, sigma=0.0)
    with pytest.raises(ValueError):  # 1.0 / 0.3 is not an integer step count
        SimConfig(dt=0.3, T=1.0, samples=10, seed=0)
    assert SimConfig(dt=0.05, T=1.0, samples=10, seed=0).steps == 20


def test_zero_drift_covariance():
    cfg = SimConfig(dt=0.02, T=0.5, samples=4000, seed=11, sigma=1.3)
    out = simulate_particles(zero_matrix(3), DriftSpec.zero(), cfg)
    assert out.shape == (4000, 3)
    emp = np.cov(out, rowvar=False)
    want = cfg.sigma ** 2 * cfg.T * np.eye(3)
    cov_close(emp, want, cfg.samples, nsig=5.0)


def test_linear_drift_covariance_matches_oracle():
    xi = random_matrices(1, seed=29, n_lo=3, n_hi=3)[0]
    cfg = SimConfig(dt=0.005, T=0.4, samples=4000, seed=5)
    out = simulate_particles(xi, DriftSpec.linear(), cfg)
    emp = np.cov(out, rowvar=False)
    want = cfg.sigma ** 2 * sigma_T(xi, cfg.T).sigma_T
    cov_close(emp, want, cfg.samples, nsig=6.0)


def test_projection_linear_equals_decoupled_particles():
    cfg = SimConfig(dt=0.05, T=0.5, samples=500, seed=77)
    xi = random_matrices(1, seed=13, n_lo=3, n_hi=3)[0]
    decoupled = simulate_particles(zero_matrix(3), DriftSpec.linear(), cfg)
    proj = simulate_projection(xi, DriftSpec.linear(), cfg)
    assert np.array_equal(proj, decoupled)
    proj_zero = simulate_projection(zero_matrix(3), DriftSpec.zero(), cfg)
    assert np.array_equal(proj_zero, decoupled)


def test_sine_projection_runs_on_stochastic_rows():
    cfg = SimConfig(dt=0.02, T=0.5, samples=3000, seed=9)
    out = simulate_projection(build_mean_field(4), DriftSpec.custom("sine"), cfg)
    assert out.shape == (3000, 4)
    assert np.isfinite(out).all()
    # odd drift and centered noise: terminal mean stays at zero
    se = out.std(axis=0, ddof=1) / math.sqrt(cfg.samples)
    assert (np.abs(out.mean(axis=0)) <= 5.0 * se).all()


def test_projection_refusals():
    cfg = SimConfig(dt=0.1, T=0.5, samples=20, seed=0)
    halved = InteractionMatrix.from_dense(0.5 * build_mean_field(4).dense())
    with pytest.raises(NotApplicable):  # row sums 1/2, marginals unknown
        simulate_projection(halved, DriftSpec.custom("sine"), cfg)
    hookless = DriftSpec("flat", b=lambda t, x, y: np.zeros_like(y))
    with pytest.raises(NotApplicable):
        simulate_projection(build_mean_field(4), hookless, cfg)
    with pytest.raises(ValueError):
        DriftSpec.custom("nope")


def test_entropy_from_samples():
    gen = stream(424242)
    T = 0.7
    flat = math.sqrt(T) * gen.standard_normal((5000, 3))
    est = gaussian_entropy_from_samples(flat, [0, 1], T)
    assert 0.0 <= est < 0.02  # true law is the reference, entropy 0

    doubled = math.sqrt(2.0 * T) * gen.standard_normal((5000, 1))
    est = gaussian_entropy_from_samples(doubled, [0], T)
    want = 0.5 * (1.0 - math.log(2.0))
    assert est == pytest.approx(want, abs=0.08)

    with pytest.raises(ValueError):
        gaussian_entropy_from_samples(flat[:39], [0, 1], T)
    with pytest.raises(ValueError):
        gaussian_entropy_from_samples(flat, [], T)


def test_save_samples(tmp_path):
    path = tmp_path / "samples.csv"
    save_samples(np.array([[1.5, 2.25], [395.0, -0.5]]), path)
    lines = path.read_text().splitlines()
    assert lines == ["1.5,2.25", "395.0,-0.5"]
