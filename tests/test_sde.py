import math
import os
import sys
import threading

import numpy as np
import pytest

from chaoscope import sde
from chaoscope.gaussian import sigma_T
from chaoscope.matrix import InteractionMatrix, NotApplicable, build_mean_field
from chaoscope.rng import CHUNK, chunk_streams
from chaoscope.sde import (DRIFTS, DriftSpec, SimConfig, save_samples,
                           simulate_particles, simulate_projection)

from conftest import random_matrices


def zero_matrix(n):
    return InteractionMatrix(np.zeros((n, n)))


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
    out = simulate_particles(zero_matrix(3), DRIFTS["zero"], cfg)
    assert out.shape == (4000, 3)
    emp = np.cov(out, rowvar=False)
    want = cfg.sigma ** 2 * cfg.T * np.eye(3)
    cov_close(emp, want, cfg.samples, nsig=5.0)


def test_linear_drift_covariance_matches_oracle():
    xi = random_matrices(1, seed=29, n_lo=3, n_hi=3)[0]
    cfg = SimConfig(dt=0.005, T=0.4, samples=4000, seed=5)
    out = simulate_particles(xi, DRIFTS["linear"], cfg)
    emp = np.cov(out, rowvar=False)
    want = cfg.sigma ** 2 * sigma_T(xi, cfg.T).sigma_T
    cov_close(emp, want, cfg.samples, nsig=6.0)


def test_projection_linear_equals_decoupled_particles():
    cfg = SimConfig(dt=0.05, T=0.5, samples=500, seed=77)
    xi = random_matrices(1, seed=13, n_lo=3, n_hi=3)[0]
    decoupled = simulate_particles(zero_matrix(3), DRIFTS["linear"], cfg)
    proj = simulate_projection(xi, DRIFTS["linear"], cfg)
    assert np.array_equal(proj, decoupled)
    proj_zero = simulate_projection(zero_matrix(3), DRIFTS["zero"], cfg)
    assert np.array_equal(proj_zero, decoupled)


def test_sine_projection_runs_on_stochastic_rows():
    cfg = SimConfig(dt=0.02, T=0.5, samples=3000, seed=9)
    out = simulate_projection(build_mean_field(4), DRIFTS["sine"], cfg)
    assert out.shape == (3000, 4)
    assert np.isfinite(out).all()
    # odd drift and centered noise: terminal mean stays at zero
    se = out.std(axis=0, ddof=1) / math.sqrt(cfg.samples)
    assert (np.abs(out.mean(axis=0)) <= 5.0 * se).all()


def test_projection_refusals():
    cfg = SimConfig(dt=0.1, T=0.5, samples=20, seed=0)
    halved = InteractionMatrix(0.5 * build_mean_field(4).dense())
    with pytest.raises(NotApplicable):  # row sums 1/2, marginals unknown
        simulate_projection(halved, DRIFTS["sine"], cfg)
    hookless = DriftSpec("flat", b=lambda t, x, y: np.zeros_like(y))
    with pytest.raises(NotApplicable):
        simulate_projection(build_mean_field(4), hookless, cfg)


def test_save_samples(tmp_path):
    path = tmp_path / "samples.csv"
    save_samples(np.array([[1.5, 2.25], [395.0, -0.5]]), path)
    lines = path.read_text().splitlines()
    assert lines == ["1.5,2.25", "395.0,-0.5"]


# ---------------------------------------------------------------------------
# Chunks on threads

POOL_CFG = SimConfig(dt=0.1, T=0.3, samples=3 * CHUNK + 17, seed=21)


def cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def serial_run(xi, drift, cfg):
    """One chunk after another, each stepped in its own rows: the loop the
    threads replace."""
    out = np.zeros((cfg.samples, xi.n))
    interaction = sde._particle_interaction(xi, drift)
    for lo, hi, gen in chunk_streams(cfg.seed, cfg.samples):
        sde._step_block(out[lo:hi], [(0, hi - lo, gen)], cfg, interaction)
    return out


@pytest.fixture
def fast_switching():
    """Switch threads as often as the interpreter allows, so that a race shows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("drift", DRIFTS.values(), ids=lambda d: d.kind)
def test_threaded_chunks_are_byte_identical(monkeypatch, fast_switching, drift):
    xi = random_matrices(1, seed=31, n_lo=3, n_hi=3)[0]
    want = serial_run(xi, drift, POOL_CFG).tobytes()
    decoupled = serial_run(xi, DRIFTS["zero"], POOL_CFG).tobytes()
    for count in (1, 2, 3, 8):
        cpus(monkeypatch, count)
        before = threading.active_count()
        assert simulate_particles(xi, drift, POOL_CFG).tobytes() == want, count
        assert threading.active_count() == before, count
        if drift.kind != "sine":  # the linear/zero projection is the zero-drift run
            assert simulate_projection(xi, drift, POOL_CFG).tobytes() == decoupled, count


class ChunkFailed(Exception):
    pass


def test_a_failing_chunk_raises_in_the_caller(monkeypatch):
    real = sde._step_block

    def last_chunk_fails(x, streams, cfg, interaction):
        if len(x) == 17:
            raise ChunkFailed
        return real(x, streams, cfg, interaction)

    monkeypatch.setattr(sde, "_step_block", last_chunk_fails)
    # with 4 chunks the last runs in a worker thread on 2 and 8 CPUs, in the
    # caller on 3 (its share is chunks 0 and 3)
    for count in (1, 2, 3, 8):
        cpus(monkeypatch, count)
        before = threading.active_count()
        with pytest.raises(ChunkFailed):
            simulate_particles(build_mean_field(3), DRIFTS["linear"], POOL_CFG)
        assert threading.active_count() == before, count


def test_worker_threads_keep_the_callers_errstate(monkeypatch):
    real = sde._step_block

    def overflow_off_the_main_thread(x, streams, cfg, interaction):
        if threading.current_thread() is not threading.main_thread():
            np.full(1, 1e308) * 10.0
        return real(x, streams, cfg, interaction)

    monkeypatch.setattr(sde, "_step_block", overflow_off_the_main_thread)
    cpus(monkeypatch, 2)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        simulate_particles(build_mean_field(3), DRIFTS["zero"], POOL_CFG)


def test_one_chunk_starts_no_thread(monkeypatch):
    started = []
    real = threading.Thread.start

    def start(thread):
        started.append(thread)
        real(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    cpus(monkeypatch, 8)
    xi = build_mean_field(3)
    for samples in (1, CHUNK):
        cfg = SimConfig(dt=0.1, T=0.3, samples=samples, seed=2)
        simulate_particles(xi, DRIFTS["linear"], cfg)
    assert started == []
    cfg = SimConfig(dt=0.1, T=0.3, samples=CHUNK + 1, seed=2)
    simulate_particles(xi, DRIFTS["linear"], cfg)
    assert len(started) == 1
